(* Supervision layer: wall-clock deadlines, seeded retry backoff, the
   checkpoint journal, checkpoint/resume byte-identity, and the
   deadline -> retry -> quarantine ladder. Wall-clock is kept tight:
   backoff sleeps are injected away, the watchdog is off, and
   deadlines are either 0 (instant, deterministic) or generous enough
   to never be waited out. *)

module Deadline = Rustudy.Deadline
module Retry = Rustudy.Retry
module Journal = Rustudy.Journal
module Supervisor = Rustudy.Supervisor
module Classify = Rustudy.Classify

let case name f = Alcotest.test_case name `Quick f

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* No real sleeps, no watchdog: every test below is deterministic and
   fast regardless of machine load. *)
let quiet =
  {
    Supervisor.default_config with
    Supervisor.watchdog_interval_ms = 0;
    sleep = (fun (_ : float) -> ());
  }

(* ---------------- deadlines ----------------------------------------- *)

let deadline =
  [
    case "no ambient deadline never expires" (fun () ->
        let t = Deadline.token () in
        Alcotest.(check bool) "active" false (Deadline.active t);
        Alcotest.(check bool) "expired" false (Deadline.expired t);
        Alcotest.(check bool) "hit" false (Deadline.hit t));
    case "a 0 ms budget expires on the first poll" (fun () ->
        Deadline.with_deadline_ms 0 (fun () ->
            let t = Deadline.token () in
            Alcotest.(check bool) "active" true (Deadline.active t);
            Alcotest.(check bool) "expired" true (Deadline.expired t);
            Alcotest.(check bool) "hit is sticky" true (Deadline.hit t)));
    case "a generous budget does not expire" (fun () ->
        Deadline.with_deadline_ms 60_000 (fun () ->
            let t = Deadline.token () in
            Alcotest.(check bool) "expired" false (Deadline.expired t)));
    case "nesting keeps the tighter deadline" (fun () ->
        Deadline.with_deadline_ms 0 (fun () ->
            Deadline.with_deadline_ms 60_000 (fun () ->
                let t = Deadline.token () in
                Alcotest.(check bool) "inner cannot extend" true
                  (Deadline.expired t))));
    case "the ambient deadline is restored on exit" (fun () ->
        Deadline.with_deadline_ms 60_000 (fun () ->
            let outer = Deadline.current () in
            Deadline.with_deadline_ms 30_000 (fun () -> ());
            Alcotest.(check bool) "restored" true
              (Deadline.current () = outer)));
    case "default budget set/get round-trips, <= 0 disables" (fun () ->
        let saved = Deadline.get_default_ms () in
        Deadline.set_default_ms 1234;
        Alcotest.(check int) "set" 1234 (Deadline.get_default_ms ());
        Deadline.set_default_ms (-5);
        Alcotest.(check int) "disabled" 0 (Deadline.get_default_ms ());
        Deadline.set_default_ms saved);
    case "reset clears a leaked ambient deadline" (fun () ->
        (* simulate a worker killed mid-scope: the Fun.protect restore
           of with_deadline_ms never ran, so the deadline leaks into
           whatever runs next on this domain. The server's per-request
           reset is the cure; regression-pin it here. *)
        Deadline.with_deadline_ms 0 (fun () ->
            Alcotest.(check bool)
              "leak visible before reset" true
              (Deadline.current () <> None);
            Deadline.reset ();
            Alcotest.(check bool) "cleared" true (Deadline.current () = None);
            let t = Deadline.token () in
            Alcotest.(check bool)
              "fresh tokens no longer expire" false (Deadline.expired t));
        (* the scoped restore after reset is harmless: still clear *)
        Alcotest.(check bool)
          "no deadline after the scope" true
          (Deadline.current () = None));
  ]

(* ---------------- per-domain fuel budget ---------------------------- *)

let fuel =
  [
    case "domain-scoped budget shadows the global one locally" (fun () ->
        let saved = Rustudy.Fuel.get () in
        Rustudy.Fuel.set 5000;
        Rustudy.Fuel.with_domain_budget 3 (fun () ->
            Alcotest.(check int) "override wins here" 3
              (Rustudy.Fuel.effective ());
            Alcotest.(check int)
              "the global budget is untouched" 5000 (Rustudy.Fuel.get ());
            (* counters start from the effective budget *)
            let c = Rustudy.Fuel.counter () in
            Alcotest.(check bool) "burn 1" true (Rustudy.Fuel.burn c);
            Alcotest.(check bool) "burn 2" true (Rustudy.Fuel.burn c);
            Alcotest.(check bool) "burn 3" true (Rustudy.Fuel.burn c);
            Alcotest.(check bool) "exhausted at 3" false (Rustudy.Fuel.burn c);
            (* other domains never see the override *)
            let remote =
              Domain.spawn (fun () -> Rustudy.Fuel.effective ())
            in
            Alcotest.(check int) "other domain unaffected" 5000
              (Domain.join remote));
        Alcotest.(check int)
          "override gone after the scope" 5000 (Rustudy.Fuel.effective ());
        Rustudy.Fuel.set saved);
    case "reset_domain clears a leaked override" (fun () ->
        Rustudy.Fuel.with_domain_budget 7 (fun () ->
            Rustudy.Fuel.reset_domain ();
            Alcotest.(check bool)
              "cleared mid-scope" true
              (Rustudy.Fuel.domain_budget () = None));
        Alcotest.(check bool)
          "still clear after the scope" true
          (Rustudy.Fuel.domain_budget () = None));
  ]

(* ---------------- retry policy -------------------------------------- *)

let retry =
  [
    case "backoff is deterministic, zero before attempt 2, and bounded"
      (fun () ->
        let p = Retry.default in
        Alcotest.(check (float 0.0))
          "attempt 1" 0.0
          (Retry.delay_ms p ~key:"k" ~attempt:1);
        List.iter
          (fun attempt ->
            let d = Retry.delay_ms p ~key:"k" ~attempt in
            Alcotest.(check (float 0.0))
              (Printf.sprintf "attempt %d deterministic" attempt)
              d
              (Retry.delay_ms p ~key:"k" ~attempt);
            let nominal =
              p.Retry.base_delay_ms
              *. (p.Retry.multiplier ** float_of_int (attempt - 2))
            in
            let lo = nominal *. (1.0 -. p.Retry.jitter)
            and hi = nominal *. (1.0 +. p.Retry.jitter) in
            if d < lo -. 1e-9 || d > hi +. 1e-9 then
              Alcotest.failf "attempt %d delay %.3f outside [%.3f, %.3f]"
                attempt d lo hi)
          [ 2; 3; 4 ]);
    case "run retries to success and counts sleeps" (fun () ->
        let calls = ref 0 and sleeps = ref 0 in
        let r =
          Retry.run
            ~sleep:(fun (_ : float) -> incr sleeps)
            Retry.default ~key:"x"
            (fun ~attempt ->
              incr calls;
              if attempt < 3 then Error attempt else Ok "done")
        in
        Alcotest.(check bool) "succeeded" true (r = Ok "done");
        Alcotest.(check int) "three attempts" 3 !calls;
        Alcotest.(check int) "two backoff sleeps" 2 !sleeps);
    case "run reports all errors oldest-first on exhaustion" (fun () ->
        match
          Retry.run
            ~sleep:(fun (_ : float) -> ())
            Retry.default ~key:"x"
            (fun ~attempt -> Error attempt)
        with
        | Ok _ -> Alcotest.fail "expected exhaustion"
        | Error errs -> Alcotest.(check (list int)) "oldest-first" [ 1; 2; 3 ] errs);
  ]

(* ---------------- journal ------------------------------------------- *)

let temp_journal () = Filename.temp_file "rustudy-journal" ".j"

let journal =
  [
    case "round-trip, escapes, last-wins" (fun () ->
        let path = temp_journal () in
        let j = Journal.open_append path in
        Journal.append j ~key:"a" "one\ttwo\nthree\\four\r";
        Journal.append j ~key:"b" "plain";
        Journal.append j ~key:"a" "superseded by me";
        Journal.close j;
        Alcotest.(check (list (pair string string)))
          "surviving records, chronological"
          [ ("b", "plain"); ("a", "superseded by me") ]
          (Journal.load path);
        Sys.remove path);
    case "escape/unescape inverse, bad escapes rejected" (fun () ->
        let samples = [ ""; "plain"; "\t\n\r\\"; "a\\nb"; "x\ty\nz" ] in
        List.iter
          (fun s ->
            Alcotest.(check string) "inverse" s (Journal.unescape (Journal.escape s)))
          samples;
        List.iter
          (fun bad ->
            match Journal.unescape bad with
            | (_ : string) -> Alcotest.failf "accepted %S" bad
            | exception Journal.Bad_escape -> ())
          [ "\\"; "\\q"; "trailing\\" ]);
    case "torn tail and corrupt lines are skipped, reopen heals" (fun () ->
        let path = temp_journal () in
        let j = Journal.open_append path in
        Journal.append j ~key:"a" "1";
        Journal.append j ~key:"b" "2";
        Journal.close j;
        (* a wrong-checksum line and a torn (kill -9 mid-write) tail *)
        let oc =
          open_out_gen [ Open_append; Open_binary ] 0o644 path
        in
        output_string oc "J1\tdeadbeef\tx\ty\n";
        output_string oc "J1\tab";
        close_out oc;
        Alcotest.(check (list (pair string string)))
          "valid records survive"
          [ ("a", "1"); ("b", "2") ]
          (Journal.load path);
        (* re-opening after the crash must not glue the next record
           onto the torn line *)
        let j = Journal.open_append path in
        Journal.append j ~key:"c" "3";
        Journal.close j;
        Alcotest.(check (list (pair string string)))
          "post-crash append survives"
          [ ("a", "1"); ("b", "2"); ("c", "3") ]
          (Journal.load path);
        Sys.remove path);
    case "missing file is an empty journal" (fun () ->
        Alcotest.(check (list (pair string string)))
          "empty" []
          (Journal.load "/nonexistent/rustudy-journal"));
  ]

(* ---------------- golden diagnostic codes --------------------------- *)

let golden_codes =
  [
    case "the stable code set is pinned" (fun () ->
        Alcotest.(check (list string))
          "all_codes"
          [
            "E0101"; "E0102"; "E0103"; "E0104"; "E0105"; "E0106"; "E0107";
            "E0201"; "E0202"; "E0301"; "W0401"; "W0402"; "W0403"; "W0404";
            "W0405"; "E0501"; "W0501"; "E0502"; "W0503"; "W0504"; "E0601";
            "W0602"; "W0603"; "W0604"; "E0000";
          ]
          (List.map Rustudy.Diag.code_name Rustudy.Diag.all_codes));
    case "code_of_name inverts code_name" (fun () ->
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Rustudy.Diag.code_name c) true
              (Rustudy.Diag.code_of_name (Rustudy.Diag.code_name c) = Some c))
          Rustudy.Diag.all_codes;
        Alcotest.(check bool)
          "unknown name" true
          (Rustudy.Diag.code_of_name "E9999" = None));
  ]

(* ---------------- supervisor core ----------------------------------- *)

let supervisor =
  [
    case "all-success run is positional and clean" (fun () ->
        let verdicts, stats =
          Supervisor.run ~config:quiet
            ~f:(fun ~attempt:_ ~key:_ x -> Ok (x * 2))
            [ ("a", 1); ("b", 2); ("c", 3) ]
        in
        Alcotest.(check (list (pair string int)))
          "positional results"
          [ ("a", 2); ("b", 4); ("c", 6) ]
          (List.map
             (fun (k, v) ->
               match v with
               | Supervisor.Done (x, 1) -> (k, x)
               | _ -> Alcotest.failf "unexpected verdict for %s" k)
             verdicts);
        Alcotest.(check int) "completed" 3 stats.Supervisor.completed;
        Alcotest.(check int) "retried" 0 stats.Supervisor.retried;
        Alcotest.(check int) "quarantined" 0 stats.Supervisor.quarantined);
    case "failures retry then quarantine deterministically" (fun () ->
        let f ~attempt ~key (_ : unit) =
          match key with
          | "flaky" when attempt >= 2 -> Ok attempt
          | "good" -> Ok attempt
          | _ ->
              Error
                {
                  Supervisor.f_msg = Printf.sprintf "%s/%d" key attempt;
                  f_timeout = key = "stuck";
                }
        in
        let verdicts, stats =
          Supervisor.run ~config:quiet ~f
            [ ("good", ()); ("flaky", ()); ("stuck", ()) ]
        in
        (match List.assoc "good" verdicts with
        | Supervisor.Done (1, 1) -> ()
        | _ -> Alcotest.fail "good should succeed first try");
        (match List.assoc "flaky" verdicts with
        | Supervisor.Done (2, 2) -> ()
        | _ -> Alcotest.fail "flaky should succeed on attempt 2");
        (match List.assoc "stuck" verdicts with
        | Supervisor.Quarantined { attempts = 3; errors } ->
            Alcotest.(check (list string))
              "errors oldest-first"
              [ "stuck/1"; "stuck/2"; "stuck/3" ]
              errors
        | _ -> Alcotest.fail "stuck should quarantine");
        Alcotest.(check int) "completed" 2 stats.Supervisor.completed;
        (* flaky attempt 2; stuck attempts 2 and 3 *)
        Alcotest.(check int) "retried" 3 stats.Supervisor.retried;
        Alcotest.(check int) "timeouts" 3 stats.Supervisor.timeouts;
        Alcotest.(check int) "quarantined" 1 stats.Supervisor.quarantined);
    case "an expired run deadline skips everything, never drops" (fun () ->
        let config = { quiet with Supervisor.run_deadline_ms = Some 0 } in
        let verdicts, stats =
          Supervisor.run ~config
            ~f:(fun ~attempt:_ ~key:_ x -> Ok x)
            [ ("a", 1); ("b", 2) ]
        in
        Alcotest.(check int) "skipped" 2 stats.Supervisor.skipped;
        List.iter
          (fun (k, v) ->
            match v with
            | Supervisor.Skipped _ -> ()
            | _ -> Alcotest.failf "%s not skipped" k)
          verdicts);
    case "on_done fires exactly once per item" (fun () ->
        let seen = ref [] in
        let _ =
          Supervisor.run ~config:quiet
            ~on_done:(fun ~key _ -> seen := key :: !seen)
            ~f:(fun ~attempt:_ ~key:_ x -> Ok x)
            [ ("a", 1); ("b", 2); ("c", 3) ]
        in
        Alcotest.(check (list string))
          "each key once"
          [ "a"; "b"; "c" ]
          (List.sort compare !seen));
  ]

(* ---------------- the full ladder over real corpus entries ---------- *)

let ladder =
  [
    case "instant deadline: degrade -> retry -> quarantine, exit via W0404"
      (fun () ->
        let entries = take 2 Rustudy.Corpus.all_bugs in
        let config =
          {
            quiet with
            Supervisor.per_entry_deadline_ms = Some 0;
            retry = { Retry.default with Retry.max_attempts = 2 };
          }
        in
        let results, stats, replayed =
          Classify.analyze_entries_supervised ~config entries
        in
        Alcotest.(check int) "nothing replayed" 0 replayed;
        Alcotest.(check int) "all quarantined" 2 stats.Supervisor.quarantined;
        Alcotest.(check int) "one retry each" 2 stats.Supervisor.retried;
        Alcotest.(check int) "every attempt timed out" 4
          stats.Supervisor.timeouts;
        List.iter
          (fun ((e : Rustudy.Corpus.entry), o) ->
            match o with
            | Classify.Quarantined { attempts = 2; errors } ->
                List.iter
                  (fun m ->
                    Alcotest.(check string)
                      "deterministic timeout message"
                      "per-entry wall-clock deadline exceeded (W0402)" m)
                  errors
            | _ -> Alcotest.failf "%s not quarantined" e.Rustudy.Corpus.id)
          results;
        let summary = Classify.degraded_summary results in
        Alcotest.(check bool)
          "summary names W0404" true
          (let needle = "[W0404]" in
           let n = String.length needle and m = String.length summary in
           let rec go i =
             i + n <= m && (String.sub summary i n = needle || go (i + 1))
           in
           go 0));
  ]

(* ---------------- checkpoint / resume ------------------------------- *)

let fingerprints results = List.map (fun (_, o) -> Classify.payload_of_outcome o) results

let resume =
  [
    case "kill-and-resume replays byte-identically, analyzes only the rest"
      (fun () ->
        let entries = take 6 Rustudy.Corpus.all_bugs in
        let baseline, _, _ =
          Classify.analyze_entries_supervised ~config:quiet entries
        in
        (* simulate a run killed after 3 entries: only they reach the
           checkpoint journal *)
        let j1 = temp_journal () in
        let _ =
          Classify.analyze_entries_supervised ~config:quiet ~checkpoint:j1
            (take 3 entries)
        in
        (* resume over the full list into a fresh journal *)
        let j2 = temp_journal () in
        let results, stats, replayed =
          Classify.analyze_entries_supervised ~config:quiet ~checkpoint:j2
            ~resume:j1 entries
        in
        Alcotest.(check int) "first half replayed" 3 replayed;
        Alcotest.(check int) "only the rest analyzed" 3 stats.Supervisor.total;
        Alcotest.(check (list string))
          "outcomes byte-identical to an unbroken run" (fingerprints baseline)
          (fingerprints results);
        Alcotest.(check string)
          "summaries identical too"
          (Classify.degraded_summary baseline)
          (Classify.degraded_summary results);
        (* the fresh journal is self-contained: resuming from it alone
           replays everything *)
        let results2, stats2, replayed2 =
          Classify.analyze_entries_supervised ~config:quiet ~resume:j2 entries
        in
        Alcotest.(check int) "everything replayed" 6 replayed2;
        Alcotest.(check int) "nothing analyzed" 0 stats2.Supervisor.total;
        Alcotest.(check (list string))
          "still byte-identical" (fingerprints baseline)
          (fingerprints results2);
        Sys.remove j1;
        Sys.remove j2);
    case "a stale journal entry (changed source) is re-analyzed" (fun () ->
        let e = List.hd Rustudy.Corpus.all_bugs in
        let j = temp_journal () in
        let _ =
          Classify.analyze_entries_supervised ~config:quiet ~checkpoint:j [ e ]
        in
        let changed =
          { e with Rustudy.Corpus.source = e.Rustudy.Corpus.source ^ "\n" }
        in
        let _, stats, replayed =
          Classify.analyze_entries_supervised ~config:quiet ~resume:j
            [ changed ]
        in
        Alcotest.(check int) "not replayed" 0 replayed;
        Alcotest.(check int) "re-analyzed" 1 stats.Supervisor.total;
        Sys.remove j);
    case "payload codec round-trips every corpus outcome" (fun () ->
        let entries = take 8 Rustudy.Corpus.all_bugs in
        let results, _, _ =
          Classify.analyze_entries_supervised ~config:quiet entries
        in
        List.iter
          (fun ((e : Rustudy.Corpus.entry), o) ->
            let p = Classify.payload_of_outcome o in
            match Classify.outcome_of_payload e p with
            | None -> Alcotest.failf "%s payload rejected" e.Rustudy.Corpus.id
            | Some o2 ->
                Alcotest.(check string)
                  e.Rustudy.Corpus.id p
                  (Classify.payload_of_outcome o2))
          results);
  ]

let suite =
  deadline @ fuel @ retry @ journal @ golden_codes @ supervisor @ ladder
  @ resume
