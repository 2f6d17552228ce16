(* Observability tests: the metrics registry and tracer must be no-ops
   while disabled, merge per-domain shards correctly, export
   byte-deterministic snapshots under an injected clock, never change
   what the detectors report, and produce traces that [tracecat]
   validates. *)

let case name f = Alcotest.test_case name `Quick f

let with_metrics f =
  let was = Support.Metrics.enabled () in
  Support.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Support.Metrics.disable ())
    f

let with_tracing f =
  let was = Support.Trace.enabled () in
  Support.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was then Support.Trace.disable ();
      Support.Trace.set_clock None)
    f

(* ---------------- disabled paths are no-ops ------------------------ *)

let disabled_noop =
  case "disabled recording leaves no samples" (fun () ->
      Support.Metrics.disable ();
      Support.Trace.disable ();
      Support.Metrics.reset ();
      Support.Trace.reset ();
      let c =
        Support.Metrics.counter ~help:"Test." "t_obs_disabled_total"
      in
      Support.Metrics.incr c;
      Support.Metrics.incr c ~by:41.;
      Alcotest.(check (float 0.0))
        "counter untouched" 0.
        (Support.Metrics.counter_value c);
      let r =
        Support.Trace.with_span "t_obs.disabled" (fun () -> 17)
      in
      Alcotest.(check int) "with_span passes the value through" 17 r;
      Alcotest.(check int)
        "no aggregates recorded" 0
        (List.length
           (List.filter
              (fun (a : Support.Trace.agg) ->
                a.Support.Trace.agg_name = "t_obs.disabled")
              (Support.Trace.aggregates ()))))

(* ---------------- shard merge under the domain pool ----------------- *)

let shard_merge =
  case "per-domain shards merge to the true total" (fun () ->
      with_metrics (fun () ->
          Support.Metrics.reset ();
          let c =
            Support.Metrics.counter ~labels:[ "worker" ] ~help:"Test."
              "t_obs_shard_total"
          in
          let items = List.init 100 (fun i -> i) in
          let results =
            Support.Domain_pool.map ~domains:4
              ~f:(fun i ->
                Support.Metrics.incr c ~labels:[ "any" ];
                i * 2)
              items
          in
          Alcotest.(check (list int))
            "pool results in order"
            (List.map (fun i -> i * 2) items)
            results;
          (* Domain.join before this read orders every shard write *)
          Alcotest.(check (float 0.0))
            "merged count" 100.
            (Support.Metrics.counter_value c ~labels:[ "any" ]);
          Alcotest.(check (float 0.0))
            "readable by family name" 100.
            (Support.Metrics.read_counter ~labels:[ "any" ]
               "t_obs_shard_total")))

(* ---------------- golden exporter shapes ---------------------------- *)

let golden_exports =
  case "exporter output matches the documented shape exactly" (fun () ->
      with_metrics (fun () ->
          Support.Metrics.reset ();
          let c =
            Support.Metrics.counter ~labels:[ "op" ] ~help:"Test ops."
              "t_obs_golden_ops_total"
          in
          Support.Metrics.incr c ~labels:[ "read" ];
          Support.Metrics.incr c ~labels:[ "read" ];
          Support.Metrics.incr c ~labels:[ "write" ] ~by:3.;
          let g =
            Support.Metrics.gauge ~help:"Test level." "t_obs_golden_level"
          in
          Support.Metrics.set g 2.5;
          let h =
            Support.Metrics.histogram ~buckets:[ 1.; 5. ] ~help:"Test sizes."
              "t_obs_golden_sizes"
          in
          Support.Metrics.observe h 0.5;
          Support.Metrics.observe h 3.;
          Support.Metrics.observe h 10.;
          let prom_expected =
            String.concat "\n"
              [
                "# HELP t_obs_golden_level Test level.";
                "# TYPE t_obs_golden_level gauge";
                "t_obs_golden_level 2.500000";
                "# HELP t_obs_golden_ops_total Test ops.";
                "# TYPE t_obs_golden_ops_total counter";
                "t_obs_golden_ops_total{op=\"read\"} 2";
                "t_obs_golden_ops_total{op=\"write\"} 3";
                "# HELP t_obs_golden_sizes Test sizes.";
                "# TYPE t_obs_golden_sizes histogram";
                "t_obs_golden_sizes_bucket{le=\"1\"} 1";
                "t_obs_golden_sizes_bucket{le=\"5\"} 2";
                "t_obs_golden_sizes_bucket{le=\"+Inf\"} 3";
                "t_obs_golden_sizes_sum 13.500000";
                "t_obs_golden_sizes_count 3";
                "";
              ]
          in
          Alcotest.(check string)
            "prometheus snapshot" prom_expected
            (Support.Metrics.export_prometheus ());
          let json_expected =
            "{\"metrics\":[\n"
            ^ "{\"name\":\"t_obs_golden_level\",\"type\":\"gauge\",\"help\":\"Test \
               level.\",\"samples\":[{\"labels\":{},\"value\":2.500000}]},\n"
            ^ "{\"name\":\"t_obs_golden_ops_total\",\"type\":\"counter\",\"help\":\"Test \
               ops.\",\"samples\":[{\"labels\":{\"op\":\"read\"},\"value\":2},{\"labels\":{\"op\":\"write\"},\"value\":3}]},\n"
            ^ "{\"name\":\"t_obs_golden_sizes\",\"type\":\"histogram\",\"help\":\"Test \
               sizes.\",\"samples\":[{\"labels\":{},\"count\":3,\"sum\":13.500000,\"buckets\":[{\"le\":1,\"count\":1},{\"le\":5,\"count\":2},{\"le\":\"+Inf\",\"count\":3}]}]}\n"
            ^ "]}\n"
          in
          Alcotest.(check string)
            "json snapshot" json_expected
            (Support.Metrics.export_json ())))

(* ---------------- injected-clock determinism ------------------------ *)

(* The acceptance criterion: two identical sequential runs under the
   same injected clock export byte-identical metrics and trace files. *)
let entries () =
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  take 3 Corpus.all_bugs

let one_run () =
  let t = ref 0L in
  Support.Trace.set_clock
    (Some
       (fun () ->
         t := Int64.add !t 1_000L;
         !t));
  (* purge the program cache first: the purge events it records must
     not land in the snapshot being compared *)
  Analysis.Cache.clear_programs ();
  Study.Classify.clear_provenance ();
  Support.Metrics.reset ();
  Support.Trace.reset ();
  List.iter
    (fun e -> ignore (Study.Classify.analyze_entry_result e))
    (entries ());
  let out =
    ( Support.Metrics.export_prometheus (),
      Support.Metrics.export_json (),
      Support.Trace.export_chrome (),
      Study.Classify.provenance_block () )
  in
  Support.Trace.set_clock None;
  out

let clock_determinism =
  case "two injected-clock runs export byte-identical files" (fun () ->
      with_metrics (fun () ->
          with_tracing (fun () ->
              let p1, j1, t1, b1 = one_run () in
              let p2, j2, t2, b2 = one_run () in
              Alcotest.(check string) "prometheus identical" p1 p2;
              Alcotest.(check string) "json identical" j1 j2;
              Alcotest.(check string) "chrome trace identical" t1 t2;
              Alcotest.(check string) "provenance identical" b1 b2;
              Alcotest.(check bool)
                "trace is non-trivial" true
                (String.length t1 > 200);
              Alcotest.(check bool)
                "provenance names every entry" true
                (List.for_all
                   (fun (e : Corpus.entry) ->
                     List.exists
                       (fun (p : Study.Classify.provenance) ->
                         p.Study.Classify.prov_id = e.Corpus.id)
                       (Study.Classify.provenances ()))
                   (entries ())))))

(* ---------------- findings unchanged by instrumentation ------------- *)

let findings_unchanged =
  case "tracing + metrics never change detector findings" (fun () ->
      Support.Metrics.disable ();
      Support.Trace.disable ();
      Analysis.Cache.clear_programs ();
      let run () =
        List.concat_map
          (fun (e : Corpus.entry) ->
            List.map Rustudy.Finding.to_string
              (Rustudy.check ~file:(e.Corpus.id ^ ".rs") e.Corpus.source))
          (entries ())
      in
      let off = run () in
      Analysis.Cache.clear_programs ();
      let on =
        with_metrics (fun () -> with_tracing (fun () -> run ()))
      in
      Alcotest.(check (list string)) "identical findings" off on)

(* ---------------- tracecat validation ------------------------------- *)

let tracecat_accepts =
  case "tracecat validates a real export" (fun () ->
      with_tracing (fun () ->
          Support.Trace.reset ();
          Support.Trace.with_span ~cat:"t" "outer" (fun () ->
              Support.Trace.with_span ~cat:"t" "inner" (fun () -> ());
              Support.Trace.instant "mark");
          match Tracecat_lib.validate (Support.Trace.export_chrome ()) with
          | Ok events ->
              Alcotest.(check bool)
                "at least outer+inner+mark" true
                (List.length events >= 3)
          | Error msg -> Alcotest.fail ("validate rejected a real trace: " ^ msg)))

let tracecat_rejects =
  case "tracecat rejects malformed and overlapping traces" (fun () ->
      let span name ts dur =
        Printf.sprintf
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":%s,\"dur\":%s}"
          name ts dur
      in
      let trace events = "[\n" ^ String.concat ",\n" events ^ "\n]" in
      let deep = String.make 200 '[' ^ String.make 200 ']' in
      (* (what, input, expected error prefix); the last three were
         accepted by tracecat's former lax parser *)
      List.iter
        (fun (what, text, prefix) ->
          match Tracecat_lib.validate text with
          | Ok _ -> Alcotest.failf "%s: accepted" what
          | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %S starts with %S" what msg prefix)
                true
                (String.starts_with ~prefix msg))
        [
          ("not JSON", "wibble", "not valid JSON: ");
          ( "not an array",
            "{\"name\":\"x\"}",
            "top-level value is not an array" );
          ( "missing fields",
            trace [ "{\"name\":\"a\",\"ph\":\"X\",\"ts\":1.0}" ],
            "event 0: missing" );
          ( "negative duration",
            trace [ span "a" "1.0" "-2.0" ],
            "event 0: negative dur" );
          ( "partially overlapping spans",
            trace [ span "a" "0.0" "10.0"; span "b" "5.0" "10.0" ],
            "thread 1.0: span" );
          ( "trailing garbage after the array",
            trace [ span "a" "0.0" "1.0" ] ^ "\n]",
            "not valid JSON: " );
          ( "invalid UTF-8 inside a string",
            trace [ span "a\xff" "0.0" "1.0" ],
            "not valid JSON: " );
          ( "nesting deeper than 128",
            trace
              [
                "{\"name\":\"a\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":1.0,\
                 \"args\":{\"x\":" ^ deep ^ "}}";
              ],
            "not valid JSON: " );
        ];
      Alcotest.(check bool)
        "properly nested spans pass" true
        (Result.is_ok
           (Tracecat_lib.validate
              (trace
                 [
                   span "a" "0.0" "10.0";
                   span "b" "2.0" "3.0";
                   span "c" "6.0" "4.0";
                 ]))))

(* ---------------- one escaper across the exporters ----------------- *)

(* Every exporter escapes through Support.Sjson, so a string with each
   class of awkward byte decodes back exactly from the Chrome trace,
   the flight dump and the JSON metrics snapshot. *)
let escaping_parity =
  case "trace, flight and metrics JSON decode awkward strings exactly"
    (fun () ->
      let nasty = "q\"b\\s\nn\rr\tt\001x" in
      let find what pred l =
        match List.find_opt pred l with
        | Some v -> v
        | None -> Alcotest.failf "%s: not found" what
      in
      let str what expected = function
        | Some s -> Alcotest.(check string) what expected s
        | None -> Alcotest.failf "%s: missing" what
      in
      let module J = Support.Sjson in
      with_tracing (fun () ->
          Support.Trace.reset ();
          Support.Trace.with_span ~args:[ (nasty, nasty) ] nasty ignore;
          match J.parse (Support.Trace.export_chrome ()) with
          | J.List evs ->
              let ev =
                find "trace event"
                  (fun e -> J.str_member "name" e = Some nasty)
                  evs
              in
              str "trace arg"
                nasty
                (Option.bind (J.member "args" ev) (J.str_member nasty))
          | _ -> Alcotest.fail "trace is not an array");
      Support.Flight.record ~fields:[ (nasty, nasty) ] "t_obs.escape";
      let lines =
        String.split_on_char '\n' (Support.Flight.dump_jsonl ())
        |> List.filter (( <> ) "")
        |> List.map J.parse
      in
      str "flight field" nasty
        (J.str_member nasty
           (find "flight event"
              (fun l -> J.str_member "kind" l = Some "t_obs.escape")
              lines));
      with_metrics (fun () ->
          Support.Metrics.reset ();
          let c =
            Support.Metrics.counter ~labels:[ "k" ] ~help:"Test."
              "t_obs_escape_total"
          in
          Support.Metrics.incr c ~labels:[ nasty ];
          let snapshot = J.parse (Support.Metrics.export_json ()) in
          match J.member "metrics" snapshot with
          | Some (J.List fams) -> (
              let fam =
                find "metric family"
                  (fun f -> J.str_member "name" f = Some "t_obs_escape_total")
                  fams
              in
              match J.member "samples" fam with
              | Some (J.List [ sample ]) ->
                  str "metric label" nasty
                    (Option.bind (J.member "labels" sample) (J.str_member "k"))
              | _ -> Alcotest.fail "expected one sample")
          | _ -> Alcotest.fail "metrics snapshot has no family list"))

(* ---------------- oracle spans and counters -------------------------- *)

let oracle_smoke =
  case "oracle spans validate under tracecat; counters land" (fun () ->
      with_tracing (fun () ->
          with_metrics (fun () ->
              Support.Metrics.reset ();
              Support.Trace.reset ();
              let prog =
                Rustudy.load ~file:"t_obs_oracle.rs"
                  "fn main() { let b = Box::new(1); drop(b); let x = *b; \
                   println!(\"{}\", x); }"
              in
              ignore (Rustudy.Oracle.run prog);
              let names =
                List.map
                  (fun (a : Support.Trace.agg) -> a.Support.Trace.agg_name)
                  (Support.Trace.aggregates ())
              in
              Alcotest.(check bool) "oracle.exec span" true
                (List.mem "oracle.exec" names);
              Alcotest.(check bool) "oracle.schedule span" true
                (List.mem "oracle.schedule" names);
              (match Tracecat_lib.validate (Support.Trace.export_chrome ()) with
              | Ok _ -> ()
              | Error msg ->
                  Alcotest.fail ("tracecat rejected the oracle trace: " ^ msg));
              let prom = Support.Metrics.export_prometheus () in
              let has needle =
                let re = Str.regexp_string needle in
                match Str.search_forward re prom 0 with
                | _ -> true
                | exception Not_found -> false
              in
              Alcotest.(check bool) "runs counter" true
                (has "rustudy_oracle_runs_total");
              Alcotest.(check bool) "uaf trap counter" true
                (has "rustudy_oracle_traps_total{class=\"uaf\"}"))))

(* ---------------- span aggregates / profile -------------------------- *)

let profile_aggregates =
  case "span aggregates drive the profile table" (fun () ->
      with_tracing (fun () ->
          Support.Trace.reset ();
          let t = ref 0L in
          Support.Trace.set_clock
            (Some
               (fun () ->
                 t := Int64.add !t 2_000_000L;
                 !t));
          for _ = 1 to 3 do
            Support.Trace.with_span "t_obs.work" (fun () -> ())
          done;
          let agg =
            List.find
              (fun (a : Support.Trace.agg) ->
                a.Support.Trace.agg_name = "t_obs.work")
              (Support.Trace.aggregates ())
          in
          Alcotest.(check int) "count" 3 agg.Support.Trace.agg_count;
          (* each span sees exactly one 2ms clock tick between open and
             close *)
          Alcotest.(check bool)
            "total is 3 ticks" true
            (agg.Support.Trace.agg_total_ns = 6_000_000L);
          let table = Support.Trace.profile_table () in
          Alcotest.(check bool)
            "profile table names the span" true
            (let re = Str.regexp_string "t_obs.work" in
             match Str.search_forward re table 0 with
             | _ -> true
             | exception Not_found -> false)))

let ring_drop_accounting =
  case "trace ring overflow is accounted exactly" (fun () ->
      with_tracing (fun () ->
          Support.Trace.reset ();
          (* capacity changes bind at shard creation: record on a fresh
             domain so its ring is born with the small capacity *)
          Support.Trace.set_ring_capacity 32;
          Fun.protect
            ~finally:(fun () -> Support.Trace.set_ring_capacity 32768)
            (fun () ->
              Domain.join
                (Domain.spawn (fun () ->
                     for i = 1 to 50 do
                       Support.Trace.instant
                         ~args:[ ("i", string_of_int i) ]
                         "t_obs.flood"
                     done));
              Alcotest.(check int)
                "50 instants into a 32-slot ring drop exactly 18" 18
                (Support.Trace.dropped_total ()));
          Support.Trace.reset ();
          Alcotest.(check int) "reset zeroes the drop counter" 0
            (Support.Trace.dropped_total ())))

(* ---------------- the shared ring ---------------------------------- *)

let ring_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"ring keeps the newest min(n, cap) pushes and counts the rest"
       QCheck.(triple (int_range 1 64) (int_range 0 300) (int_range 1 64))
       (fun (cap, n, cap') ->
         let module R = Support.Ring in
         let r = R.create cap in
         for i = 1 to n do
           R.push r i
         done;
         let kept = min n cap in
         let window_ok =
           R.to_list r = List.init kept (fun k -> n - kept + 1 + k)
           && R.length r = kept
           && R.dropped r = max 0 (n - cap)
         in
         (* a cleared ring keeps its capacity, a resized one takes the
            new one: one push past capacity drops exactly one *)
         let refill_ok c =
           for i = 0 to c do
             R.push r i
           done;
           R.to_list r = List.init c (fun k -> k + 1) && R.dropped r = 1
         in
         R.clear r;
         let clear_ok =
           R.to_list r = [] && R.length r = 0 && R.dropped r = 0
           && refill_ok cap
         in
         R.resize r cap';
         let resize_ok =
           R.to_list r = [] && R.length r = 0 && R.dropped r = 0
           && refill_ok cap'
         in
         window_ok && clear_ok && resize_ok))

let suite =
  [
    disabled_noop;
    shard_merge;
    golden_exports;
    clock_determinism;
    findings_unchanged;
    tracecat_accepts;
    tracecat_rejects;
    escaping_parity;
    oracle_smoke;
    profile_aggregates;
    ring_drop_accounting;
    ring_model;
  ]
