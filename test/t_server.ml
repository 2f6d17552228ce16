(* The analysis daemon (`rustudy serve`): wire codec hardening, the
   full request/response taxonomy (ok / shed / draining / bad frame /
   worker lost / retries exhausted), cross-request budget hygiene,
   graceful drain, and crash-safe journal replay — all against live
   in-process servers on temp sockets. *)

module Sjson = Support.Sjson
module Frame = Server.Frame
module Proto = Server.Proto
module Handlers = Server.Handlers
module Daemon = Server.Daemon
module Client = Server.Client

let case name f = Alcotest.test_case name `Quick f

(* ---------------- harness ------------------------------------------- *)

let tmp_sock () = Filename.temp_file "rustudy_srv" ".sock"

let with_server ?(tune = fun c -> c) (f : Daemon.t -> unit) : unit =
  let sock = tmp_sock () in
  (* Daemon.start probes and replaces the stale temp file *)
  let d = Daemon.start (tune (Daemon.default_config ~socket_path:sock)) in
  Fun.protect
    (fun () -> f d)
    ~finally:(fun () ->
      Daemon.stop d;
      try Sys.remove sock with _ -> ())

let rpc_once d req =
  let c = Client.connect (Daemon.socket_path d) in
  Fun.protect (fun () -> Client.rpc c req) ~finally:(fun () -> Client.close c)

let sfield resp key = Option.value ~default:"" (Sjson.str_member key resp)
let status resp = sfield resp "status"
let code resp = sfield resp "code"

(* Wait (bounded) for an asynchronous stat to reach a threshold —
   monitor threads update worker_deaths after the join, not
   synchronously with the response. *)
let await_stat ?(ms = 2000) d pick threshold =
  let rec go n =
    if pick (Daemon.stats d) >= threshold then true
    else if n <= 0 then false
    else begin
      Thread.delay 0.01;
      go (n - 1)
    end
  in
  go (ms / 10)

let buggy_src =
  "fn f(m: Arc<Mutex<u32>>) { let a = m.lock().unwrap(); let b = \
   m.lock().unwrap(); }"

let clean_src = "fn f() { let x = 1; }"

(* Healthy under default budgets, but its reference-typed local pulls
   in the points-to and storage-liveness fixpoints, whose worklists
   need more than one pop — so [fuel:1] starves it deterministically. *)
let fuel_hungry_src =
  "fn f() { let mut i = 0; while i < 10 { i = i + 1; } let r = &i; let y = \
   *r; }"

(* ---------------- wire codec ---------------------------------------- *)

let sjson_cases =
  [
    case "sjson round-trips a nested value" (fun () ->
        let v =
          Sjson.Obj
            [
              ("id", Sjson.Num 7.);
              ("s", Sjson.Str "a\"b\\c\nd\te\001f");
              ("l", Sjson.List [ Sjson.Null; Sjson.Bool true; Sjson.Num (-2.5) ]);
              ("o", Sjson.Obj [ ("k", Sjson.Str "v") ]);
            ]
        in
        Alcotest.(check bool)
          "parse (to_string v) = v" true
          (Sjson.parse (Sjson.to_string v) = v));
    case "sjson rejects trailing garbage" (fun () ->
        Alcotest.(check bool)
          "trailing" true
          (Result.is_error (Sjson.parse_result "{} x")));
    case "sjson rejects invalid UTF-8" (fun () ->
        Alcotest.(check bool)
          "lone continuation" true
          (Result.is_error (Sjson.parse_result "\"\x80\""));
        Alcotest.(check bool)
          "overlong" true
          (Result.is_error (Sjson.parse_result "\"\xC0\xAF\""));
        Alcotest.(check bool)
          "surrogate" true
          (Result.is_error (Sjson.parse_result "\"\xED\xA0\x80\""));
        Alcotest.(check bool)
          "valid multibyte accepted" true
          (Sjson.parse_result "\"\xE2\x9C\x93\"" = Ok (Sjson.Str "\xE2\x9C\x93")));
    case "sjson bounds nesting depth" (fun () ->
        let deep = String.make 500 '[' in
        Alcotest.(check bool)
          "no stack overflow, just an error" true
          (Result.is_error (Sjson.parse_result deep)));
    case "frame round-trips, stream stays framed" (fun () ->
        let stream = Frame.encode "first" ^ Frame.encode "second" in
        let src = Frame.of_string stream in
        Alcotest.(check bool) "first" true (Frame.read src = Ok "first");
        Alcotest.(check bool) "second" true (Frame.read src = Ok "second");
        Alcotest.(check bool) "clean close" true (Frame.read src = Error Frame.Closed));
    case "frame: torn payload and torn header detected" (fun () ->
        let frame = Frame.encode "payload" in
        let torn = String.sub frame 0 (String.length frame - 2) in
        (match Frame.read (Frame.of_string torn) with
        | Error (Frame.Torn _) -> ()
        | _ -> Alcotest.fail "expected torn payload");
        match Frame.read (Frame.of_string "\000\000") with
        | Error (Frame.Torn _) -> ()
        | _ -> Alcotest.fail "expected torn header");
    case "frame: oversized is skimmable, stream recovers" (fun () ->
        let stream = Frame.encode (String.make 100 'x') ^ Frame.encode "next" in
        let src = Frame.of_string stream in
        (match Frame.read ~max_len:10 src with
        | Error (Frame.Oversized 100) ->
            Alcotest.(check bool) "skim" true (Frame.skim src 100)
        | _ -> Alcotest.fail "expected Oversized 100");
        Alcotest.(check bool)
          "next frame intact after skim" true
          (Frame.read ~max_len:10 src = Ok "next"));
    case "frame fuzz: seeded mutations never raise" (fun () ->
        let payload =
          Sjson.to_string
            (Client.check ~id:1 ~source:buggy_src ~file:"t.rs" ())
        in
        let frame = Frame.encode payload in
        for seed = 1 to 25 do
          List.iter
            (fun (_name, bytes) ->
              let src = Frame.of_string bytes in
              (* drain the whole mutated stream through the reader: the
                 only acceptable outcomes are values and read_errors *)
              let rec drain n =
                if n > 0 then
                  match Frame.read ~max_len:4096 src with
                  | Ok _ -> drain (n - 1)
                  | Error (Frame.Oversized len) ->
                      if Frame.skim src len then drain (n - 1)
                  | Error _ -> ()
              in
              drain 8)
            (Support.Fault.frame_mutations ~seed frame)
        done);
  ]

(* ---------------- request round trips -------------------------------- *)

let roundtrip_cases =
  [
    case "ping answers ok and echoes the id" (fun () ->
        with_server @@ fun d ->
        let resp = rpc_once d (Client.ping ~id:42) in
        Alcotest.(check string) "status" "ok" (status resp);
        Alcotest.(check bool)
          "id echoed" true
          (Sjson.int_member "id" resp = Some 42));
    case "check response is byte-identical to the offline handler" (fun () ->
        with_server @@ fun d ->
        let offline = Handlers.check ~file:"t.rs" ~source:buggy_src () in
        let resp =
          rpc_once d (Client.check ~id:1 ~source:buggy_src ~file:"t.rs" ())
        in
        Alcotest.(check string) "status" "findings" (status resp);
        Alcotest.(check string) "out" offline.Proto.out (sfield resp "out");
        Alcotest.(check string) "err" offline.Proto.err (sfield resp "err");
        Alcotest.(check bool)
          "exit" true
          (Sjson.int_member "exit" resp = Some offline.Proto.exit_code);
        Alcotest.(check bool)
          "the buggy source actually has findings" true
          (offline.Proto.out <> "" && offline.Proto.exit_code = 1));
    case "clean source answers 'no issues found'" (fun () ->
        with_server @@ fun d ->
        let resp =
          rpc_once d (Client.check ~id:2 ~source:clean_src ~file:"t.rs" ())
        in
        Alcotest.(check string) "status" "ok" (status resp);
        Alcotest.(check string) "out" "no issues found\n" (sfield resp "out"));
    case "keep-going check degrades on malformed source" (fun () ->
        with_server @@ fun d ->
        let resp =
          rpc_once d
            (Client.check ~id:3 ~source:"fn f( {{{ $$$" ~keep_going:true
               ~file:"t.rs" ())
        in
        Alcotest.(check string) "status" "degraded" (status resp);
        Alcotest.(check bool) "recovery diags on err" true (sfield resp "err" <> ""));
    case "concurrent clients all get their own answers" (fun () ->
        with_server ~tune:(fun c -> { c with Daemon.workers = 4 })
        @@ fun d ->
        let n_threads = 8 and per_thread = 4 in
        let results = Array.make (n_threads * per_thread) None in
        let worker ti =
          let c = Client.connect (Daemon.socket_path d) in
          Fun.protect
            (fun () ->
              for i = 0 to per_thread - 1 do
                let idx = (ti * per_thread) + i in
                let buggy = idx mod 2 = 0 in
                let resp =
                  Client.rpc c
                    (Client.check ~id:idx
                       ~source:(if buggy then buggy_src else clean_src)
                       ~file:"t.rs" ())
                in
                results.(idx) <- Some (buggy, resp)
              done)
            ~finally:(fun () -> Client.close c)
        in
        let ts = List.init n_threads (fun ti -> Thread.create worker ti) in
        List.iter Thread.join ts;
        Array.iteri
          (fun idx r ->
            match r with
            | None -> Alcotest.fail "a request got no response"
            | Some (buggy, resp) ->
                Alcotest.(check bool)
                  "id echoed" true
                  (Sjson.int_member "id" resp = Some idx);
                Alcotest.(check string) "status"
                  (if buggy then "findings" else "ok")
                  (status resp))
          results;
        let s = Daemon.stats d in
        Alcotest.(check int) "all requests counted" (n_threads * per_thread)
          s.Daemon.requests);
  ]

(* ---------------- budgets & hygiene ----------------------------------- *)

let hook_sleep_on file seconds (req : Proto.request) ~attempt:_ =
  match req.Proto.cmd with
  | Proto.Check { file = f; _ } when f = file -> Thread.delay seconds
  | _ -> ()

let budget_cases =
  [
    case "deadline-exhausted request degrades with W0402" (fun () ->
        with_server @@ fun d ->
        let resp =
          rpc_once d
            (Client.check ~id:1 ~deadline_ms:0 ~source:buggy_src
               ~keep_going:true ~file:"t.rs" ())
        in
        Alcotest.(check string) "status" "degraded" (status resp);
        let err = sfield resp "err" in
        Alcotest.(check bool)
          (Printf.sprintf "W0402 on err (got %S)" err)
          true
          (try
             ignore (Str.search_forward (Str.regexp_string "W0402") err 0);
             true
           with Not_found -> false);
        Alcotest.(check bool)
          "timeout counted" true
          ((Daemon.stats d).Daemon.timeouts >= 1));
    case "fuel-exhausted request degrades with W0401" (fun () ->
        with_server @@ fun d ->
        let resp =
          rpc_once d
            (Client.check ~id:1 ~fuel:1 ~source:fuel_hungry_src
               ~keep_going:true ~file:"h.rs" ())
        in
        Alcotest.(check string) "status" "degraded" (status resp);
        let err = sfield resp "err" in
        Alcotest.(check bool)
          (Printf.sprintf "W0401 on err (got %S)" err)
          true
          (try
             ignore (Str.search_forward (Str.regexp_string "W0401") err 0);
             true
           with Not_found -> false));
    case "budgets do not bleed across requests on the same worker" (fun () ->
        (* one worker: both requests run on the same domain, so a
           leaked deadline or fuel override would poison the second *)
        with_server ~tune:(fun c -> { c with Daemon.workers = 1 })
        @@ fun d ->
        let starved =
          rpc_once d
            (Client.check ~id:1 ~deadline_ms:0 ~fuel:1 ~source:buggy_src
               ~keep_going:true ~file:"t.rs" ())
        in
        Alcotest.(check string) "first request degraded" "degraded"
          (status starved);
        let healthy =
          rpc_once d
            (Client.check ~id:2 ~source:buggy_src ~keep_going:true
               ~file:"t.rs" ())
        in
        Alcotest.(check string)
          "second request sees full budgets" "findings" (status healthy);
        Alcotest.(check string) "and no degradation on err" ""
          (sfield healthy "err"));
  ]

(* ---------------- shedding, retries, worker loss ---------------------- *)

let fault_cases =
  [
    case "overload sheds with W0501, then recovers" (fun () ->
        with_server ~tune:(fun c ->
            {
              c with
              Daemon.workers = 1;
              queue_cap = 1;
              before_handle = Some (hook_sleep_on "slow.rs" 0.15);
            })
        @@ fun d ->
        let n = 8 in
        let results = Array.make n None in
        let fire i =
          results.(i) <-
            Some
              (rpc_once d
                 (Client.check ~id:i ~source:clean_src ~file:"slow.rs" ()))
        in
        let ts = List.init n (fun i -> Thread.create fire i) in
        List.iter Thread.join ts;
        let shed = ref 0 and okc = ref 0 in
        Array.iter
          (function
            | None -> Alcotest.fail "a request got no response"
            | Some resp -> (
                match status resp with
                | "rejected" ->
                    Alcotest.(check string) "shed code" "W0501" (code resp);
                    incr shed
                | "ok" -> incr okc
                | other -> Alcotest.fail ("unexpected status " ^ other)))
          results;
        Alcotest.(check bool) "some requests shed" true (!shed >= 1);
        Alcotest.(check bool) "some requests served" true (!okc >= 1);
        let s = Daemon.stats d in
        Alcotest.(check int) "stats.shed matches" !shed s.Daemon.shed;
        (* the queue drains: a later request is served, not shed *)
        let later =
          rpc_once d (Client.check ~id:99 ~source:clean_src ~file:"t.rs" ())
        in
        Alcotest.(check string) "recovered" "ok" (status later));
    case "flaky handler is retried to success" (fun () ->
        let hook (req : Proto.request) ~attempt =
          match req.Proto.cmd with
          | Proto.Check { file = "flaky.rs"; _ } when attempt < 3 ->
              failwith "injected flake"
          | _ -> ()
        in
        with_server ~tune:(fun c ->
            { c with Daemon.retries = 3; retry_base_ms = 1.; before_handle = Some hook })
        @@ fun d ->
        let resp =
          rpc_once d (Client.check ~id:1 ~source:clean_src ~file:"flaky.rs" ())
        in
        Alcotest.(check string) "eventually ok" "ok" (status resp);
        Alcotest.(check int) "two retries counted" 2
          (Daemon.stats d).Daemon.retried);
    case "retry exhaustion answers E0501" (fun () ->
        let hook (req : Proto.request) ~attempt:_ =
          match req.Proto.cmd with
          | Proto.Check { file = "dead.rs"; _ } -> failwith "always fails"
          | _ -> ()
        in
        with_server ~tune:(fun c ->
            { c with Daemon.retries = 2; retry_base_ms = 1.; before_handle = Some hook })
        @@ fun d ->
        let resp =
          rpc_once d (Client.check ~id:1 ~source:clean_src ~file:"dead.rs" ())
        in
        Alcotest.(check string) "status" "error" (status resp);
        Alcotest.(check string) "code" "E0501" (code resp);
        Alcotest.(check int) "errors counted" 1 (Daemon.stats d).Daemon.errors);
    case "killed worker answers W0503 and is respawned" (fun () ->
        let hook (req : Proto.request) ~attempt:_ =
          match req.Proto.cmd with
          | Proto.Check { file = "kill.rs"; _ } -> raise Daemon.Kill_worker
          | _ -> ()
        in
        with_server ~tune:(fun c ->
            { c with Daemon.workers = 1; before_handle = Some hook })
        @@ fun d ->
        let resp =
          rpc_once d (Client.check ~id:1 ~source:clean_src ~file:"kill.rs" ())
        in
        Alcotest.(check string) "status" "error" (status resp);
        Alcotest.(check string) "code" "W0503" (code resp);
        Alcotest.(check bool)
          "worker death observed by the monitor" true
          (await_stat d (fun s -> s.Daemon.worker_deaths) 1);
        (* the single worker died; only a respawn can answer this *)
        let resp2 =
          rpc_once d (Client.check ~id:2 ~source:clean_src ~file:"t.rs" ())
        in
        Alcotest.(check string) "respawned worker serves" "ok" (status resp2));
  ]

(* ---------------- adversarial frames against a live server ----------- *)

let raw_connect d =
  Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  |> fun fd ->
  Unix.connect fd (Unix.ADDR_UNIX (Daemon.socket_path d));
  fd

let adversarial_cases =
  [
    case "garbage frame gets E0502, connection stays usable" (fun () ->
        with_server @@ fun d ->
        let c = Client.connect (Daemon.socket_path d) in
        Fun.protect
          (fun () ->
            (match Client.roundtrip_raw c (Frame.encode "definitely not json") with
            | Ok payload ->
                let resp = Sjson.parse payload in
                Alcotest.(check string) "status" "error" (status resp);
                Alcotest.(check string) "code" "E0502" (code resp)
            | Error e -> Alcotest.fail (Frame.read_error_to_string e));
            (* same connection still frames and serves *)
            let resp =
              Client.rpc c (Client.check ~id:5 ~source:clean_src ~file:"t.rs" ())
            in
            Alcotest.(check string) "healthy after garbage" "ok" (status resp))
          ~finally:(fun () -> Client.close c));
    case "oversized frame gets E0502, connection stays usable" (fun () ->
        with_server ~tune:(fun c -> { c with Daemon.max_frame = 1024 })
        @@ fun d ->
        let c = Client.connect (Daemon.socket_path d) in
        Fun.protect
          (fun () ->
            (match Client.roundtrip_raw c (Frame.encode (String.make 4000 'a')) with
            | Ok payload ->
                Alcotest.(check string) "code" "E0502" (code (Sjson.parse payload))
            | Error e -> Alcotest.fail (Frame.read_error_to_string e));
            let resp =
              Client.rpc c (Client.check ~id:6 ~source:clean_src ~file:"t.rs" ())
            in
            Alcotest.(check string) "healthy after oversized" "ok" (status resp))
          ~finally:(fun () -> Client.close c));
    case "non-UTF-8 payload gets E0502" (fun () ->
        with_server @@ fun d ->
        let c = Client.connect (Daemon.socket_path d) in
        Fun.protect
          (fun () ->
            match Client.roundtrip_raw c (Frame.encode "{\"cmd\":\"\xC0\xAF\"}") with
            | Ok payload ->
                Alcotest.(check string) "code" "E0502" (code (Sjson.parse payload))
            | Error e -> Alcotest.fail (Frame.read_error_to_string e))
          ~finally:(fun () -> Client.close c));
    case "unknown cmd gets E0502 with the id echoed" (fun () ->
        with_server @@ fun d ->
        let c = Client.connect (Daemon.socket_path d) in
        Fun.protect
          (fun () ->
            match
              Client.roundtrip_raw c
                (Frame.encode "{\"id\":11,\"cmd\":\"frobnicate\"}")
            with
            | Ok payload ->
                let resp = Sjson.parse payload in
                Alcotest.(check string) "code" "E0502" (code resp);
                Alcotest.(check bool)
                  "id echoed" true
                  (Sjson.int_member "id" resp = Some 11)
            | Error e -> Alcotest.fail (Frame.read_error_to_string e))
          ~finally:(fun () -> Client.close c));
    case "partial write then hangup does not hurt the server" (fun () ->
        with_server @@ fun d ->
        let fd = raw_connect d in
        (* header promises 100 bytes, deliver 10, vanish *)
        let hdr = Bytes.create 4 in
        Bytes.set_int32_be hdr 0 100l;
        ignore (Unix.write fd hdr 0 4);
        ignore (Unix.write_substring fd "0123456789" 0 10);
        Unix.close fd;
        Alcotest.(check string)
          "server alive" "ok"
          (status (rpc_once d (Client.ping ~id:1))));
    case "seeded frame-mutation fuzz against a live server" (fun () ->
        with_server ~tune:(fun c -> { c with Daemon.max_frame = 4096 })
        @@ fun d ->
        let payload =
          Sjson.to_string (Client.check ~id:1 ~source:clean_src ~file:"t.rs" ())
        in
        let frame = Frame.encode payload in
        for seed = 1 to 10 do
          List.iter
            (fun (name, bytes) ->
              let c = Client.connect_retry (Daemon.socket_path d) in
              Fun.protect
                (fun () ->
                  (* every mutated frame must yield a parseable response
                     frame or a clean close/tear — never a hang or an
                     escaped exception (a dead server would fail the
                     final ping below) *)
                  match Client.roundtrip_raw ~half_close:true c bytes with
                  | Ok payload -> (
                      match Sjson.parse_result payload with
                      | Ok _ -> ()
                      | Error m ->
                          Alcotest.fail
                            (Printf.sprintf "%s/seed %d: unparseable response: %s"
                               name seed m))
                  | Error _ -> ())
                ~finally:(fun () -> Client.close c))
            (Support.Fault.frame_mutations ~seed frame)
        done;
        Alcotest.(check string)
          "server survived the barrage" "ok"
          (status (rpc_once d (Client.ping ~id:999)));
        Alcotest.(check bool)
          "bad frames were counted" true
          ((Daemon.stats d).Daemon.bad_frames >= 1));
  ]

(* ---------------- drain & journal ------------------------------------- *)

let lifecycle_cases =
  [
    case "graceful drain finishes in-flight work, then refuses" (fun () ->
        let sock = tmp_sock () in
        let d =
          Daemon.start
            {
              (Daemon.default_config ~socket_path:sock) with
              Daemon.workers = 1;
              drain_ms = 3000;
              before_handle = Some (hook_sleep_on "slow.rs" 0.2);
            }
        in
        let slow_resp = ref None in
        let th =
          Thread.create
            (fun () ->
              slow_resp :=
                Some
                  (rpc_once d
                     (Client.check ~id:1 ~source:clean_src ~file:"slow.rs" ())))
            ()
        in
        Thread.delay 0.05;
        (* in-flight now; drain must let it finish *)
        Daemon.stop d;
        Thread.join th;
        (match !slow_resp with
        | Some resp ->
            Alcotest.(check string) "in-flight finished normally" "ok"
              (status resp)
        | None -> Alcotest.fail "in-flight request lost");
        Alcotest.(check bool) "stopped" true (Daemon.stopped d);
        (match Client.connect sock with
        | exception Unix.Unix_error _ -> ()
        | c ->
            Client.close c;
            Alcotest.fail "socket should be gone after drain");
        try Sys.remove sock with _ -> ());
    case "drain answers what never started with W0504" (fun () ->
        let sock = tmp_sock () in
        let d =
          Daemon.start
            {
              (Daemon.default_config ~socket_path:sock) with
              Daemon.workers = 1;
              drain_ms = 1;
              before_handle = Some (hook_sleep_on "slow.rs" 0.4);
            }
        in
        let n = 3 in
        let results = Array.make n None in
        let ts =
          List.init n (fun i ->
              Thread.create
                (fun () ->
                  results.(i) <-
                    Some
                      (rpc_once d
                         (Client.check ~id:i ~source:clean_src ~file:"slow.rs" ())))
                ())
        in
        Thread.delay 0.1;
        (* 1 in flight, 2 queued; the 1 ms grace expires instantly *)
        Daemon.stop d;
        List.iter Thread.join ts;
        let drained = ref 0 and lost = ref 0 and okc = ref 0 in
        Array.iter
          (function
            | None -> Alcotest.fail "a request got no response"
            | Some resp -> (
                match code resp with
                | "W0504" -> incr drained
                | "W0503" -> incr lost
                | _ -> incr okc))
          results;
        Alcotest.(check int) "every request answered" n (!drained + !lost + !okc);
        Alcotest.(check bool) "queued work rejected W0504" true (!drained >= 1);
        try Sys.remove sock with _ -> ());
    case "shutdown request drains the server" (fun () ->
        let sock = tmp_sock () in
        let d = Daemon.start (Daemon.default_config ~socket_path:sock) in
        let resp = rpc_once d (Client.shutdown ~id:1) in
        Alcotest.(check string) "shutdown acknowledged" "ok" (status resp);
        (* the daemon answers before it raises the flag (the drain may
           sever the acknowledging connection), so poll for up to 2 s *)
        let rec requested polls =
          Daemon.shutdown_requested d
          || polls > 0
             && begin
                  Thread.delay 0.01;
                  requested (polls - 1)
                end
        in
        Alcotest.(check bool) "drain requested" true (requested 200);
        (* the CLI's serve loop would call stop; do it ourselves *)
        Daemon.stop d;
        Alcotest.(check bool) "stopped" true (Daemon.stopped d);
        try Sys.remove sock with _ -> ());
    case "requests during drain are rejected W0504" (fun () ->
        let sock = tmp_sock () in
        let d =
          Daemon.start
            {
              (Daemon.default_config ~socket_path:sock) with
              Daemon.workers = 1;
              drain_ms = 1500;
              before_handle = Some (hook_sleep_on "slow.rs" 0.3);
            }
        in
        (* keep a connection from before the drain; the accept loop
           refuses new ones once draining *)
        let c = Client.connect sock in
        let slow =
          Thread.create
            (fun () ->
              ignore
                (rpc_once d
                   (Client.check ~id:1 ~source:clean_src ~file:"slow.rs" ())))
            ()
        in
        Thread.delay 0.05;
        let stopper = Thread.create (fun () -> Daemon.stop d) () in
        Thread.delay 0.05;
        (* state is Draining now (stop waits for the slow request) *)
        let resp =
          Client.rpc c (Client.check ~id:2 ~source:clean_src ~file:"t.rs" ())
        in
        Alcotest.(check string) "status" "rejected" (status resp);
        Alcotest.(check string) "code" "W0504" (code resp);
        Client.close c;
        Thread.join slow;
        Thread.join stopper;
        try Sys.remove sock with _ -> ());
    case "journal replays completed responses byte-identically" (fun () ->
        let sock = tmp_sock () in
        let journal = Filename.temp_file "rustudy_srv" ".journal" in
        Sys.remove journal;
        let tune c = { c with Daemon.journal = Some journal } in
        let req_bytes id =
          Frame.encode
            (Sjson.to_string
               (Client.check ~id ~source:buggy_src ~file:"t.rs" ()))
        in
        let ask d id =
          let c = Client.connect (Daemon.socket_path d) in
          Fun.protect
            (fun () ->
              match Client.roundtrip_raw c (req_bytes id) with
              | Ok payload -> payload
              | Error e -> Alcotest.fail (Frame.read_error_to_string e))
            ~finally:(fun () -> Client.close c)
        in
        let d1 = Daemon.start (tune (Daemon.default_config ~socket_path:sock)) in
        let first = ask d1 7 in
        Daemon.stop d1;
        (* restart on the same journal: the response must replay
           byte-for-byte without recomputation *)
        let d2 = Daemon.start (tune (Daemon.default_config ~socket_path:sock)) in
        let second = ask d2 7 in
        Alcotest.(check string) "byte-identical replay" first second;
        Alcotest.(check int) "served from the journal" 1
          (Daemon.stats d2).Daemon.replayed;
        (* a different id patches cleanly into the journalled bytes *)
        let third = Sjson.parse (ask d2 9) in
        Alcotest.(check bool)
          "id patched" true
          (Sjson.int_member "id" third = Some 9);
        Alcotest.(check string) "same body" (sfield (Sjson.parse first) "out")
          (sfield third "out");
        Daemon.stop d2;
        (try Sys.remove journal with _ -> ());
        try Sys.remove sock with _ -> ());
  ]

(* ---------------- admin introspection ops ----------------------------- *)

let ifield resp key = Option.value ~default:(-1) (Sjson.int_member key resp)

let admin_cases =
  [
    case "stats answers inline with live counters and gauges" (fun () ->
        with_server @@ fun d ->
        let _ =
          rpc_once d (Client.check ~id:1 ~source:buggy_src ~file:"t.rs" ())
        in
        let resp = rpc_once d (Client.stats ~id:2) in
        Alcotest.(check string) "status" "ok" (status resp);
        Alcotest.(check bool) "id echoed" true (ifield resp "id" = 2);
        let s =
          Option.value ~default:(Sjson.Obj []) (Sjson.member "stats" resp)
        in
        Alcotest.(check string) "state" "running" (sfield s "state");
        Alcotest.(check bool) "requests counted" true (ifield s "requests" >= 2);
        Alcotest.(check int) "queue_cap" 64 (ifield s "queue_cap");
        Alcotest.(check int) "workers" 2 (ifield s "workers");
        Alcotest.(check int) "workers_live" 2 (ifield s "workers_live");
        Alcotest.(check bool) "uptime" true (ifield s "uptime_ms" >= 0);
        Alcotest.(check bool)
          "flight events flowing" true
          (ifield s "flight_events" >= 1));
    case "health reports pid, protocol version, worker liveness" (fun () ->
        with_server @@ fun d ->
        let resp = rpc_once d (Client.health ~id:3) in
        Alcotest.(check string) "status" "ok" (status resp);
        let h =
          Option.value ~default:(Sjson.Obj []) (Sjson.member "health" resp)
        in
        Alcotest.(check int) "pid (in-process daemon)" (Unix.getpid ())
          (ifield h "pid");
        Alcotest.(check int) "proto" Proto.version (ifield h "proto");
        Alcotest.(check string) "state" "running" (sfield h "state");
        Alcotest.(check int) "workers_live" 2 (ifield h "workers_live"));
    case "enriched ping: uptime, pid, proto, workers" (fun () ->
        with_server @@ fun d ->
        let resp = rpc_once d (Client.ping ~id:4) in
        Alcotest.(check string) "status" "ok" (status resp);
        Alcotest.(check int) "pid" (Unix.getpid ()) (ifield resp "pid");
        Alcotest.(check int) "proto" Proto.version (ifield resp "proto");
        Alcotest.(check int) "workers" 2 (ifield resp "workers");
        Alcotest.(check bool) "uptime" true (ifield resp "uptime_ms" >= 0));
    case "metrics op: json and prometheus formats, bad format E0502"
      (fun () ->
        let was = Support.Metrics.enabled () in
        Support.Metrics.enable ();
        Fun.protect
          ~finally:(fun () -> if not was then Support.Metrics.disable ())
        @@ fun () ->
        with_server @@ fun d ->
        let _ =
          rpc_once d (Client.check ~id:1 ~source:clean_src ~file:"t.rs" ())
        in
        let j = rpc_once d (Client.metrics ~id:2 ()) in
        Alcotest.(check string) "json status" "ok" (status j);
        Alcotest.(check bool)
          "metrics_enabled" true
          (Sjson.bool_member "metrics_enabled" j = Some true);
        (match Sjson.member "metrics" j with
        | Some (Sjson.List fams) ->
            Alcotest.(check bool)
              "server families exported" true
              (List.exists
                 (fun f ->
                   match Sjson.str_member "name" f with
                   | Some n ->
                       String.length n >= 15
                       && String.sub n 0 15 = "rustudy_server_"
                   | None -> false)
                 fams)
        | _ -> Alcotest.fail "metrics member missing or not a list");
        let p = rpc_once d (Client.metrics ~id:3 ~format:"prometheus" ()) in
        let text = sfield p "text" in
        Alcotest.(check bool)
          "prometheus text exposition" true
          (try
             ignore (Str.search_forward (Str.regexp_string "rustudy_") text 0);
             true
           with Not_found -> false);
        let bad = rpc_once d (Client.metrics ~id:4 ~format:"xml" ()) in
        Alcotest.(check string) "bad format rejected" "E0502" (code bad));
    case "admin ops bypass a saturated worker pool" (fun () ->
        with_server ~tune:(fun c ->
            {
              c with
              Daemon.workers = 1;
              before_handle = Some (hook_sleep_on "slow.rs" 0.5);
            })
        @@ fun d ->
        let slow =
          Thread.create
            (fun () ->
              ignore
                (rpc_once d
                   (Client.check ~id:1 ~source:clean_src ~file:"slow.rs" ())))
            ()
        in
        Thread.delay 0.1;
        (* the sole worker is asleep; stats must still answer fast *)
        let t0 = Unix.gettimeofday () in
        let resp = rpc_once d (Client.stats ~id:2) in
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check string) "answered" "ok" (status resp);
        Alcotest.(check bool)
          (Printf.sprintf "inline, not queued (%.3fs)" dt)
          true (dt < 0.35);
        let s =
          Option.value ~default:(Sjson.Obj []) (Sjson.member "stats" resp)
        in
        Alcotest.(check int) "the slow request shows inflight" 1
          (ifield s "inflight");
        Thread.join slow);
  ]

(* ---------------- request ids, access log, flight op ------------------ *)

let reqid_cases =
  [
    case "request id is echoed and traceable through the access log"
      (fun () ->
        with_server @@ fun d ->
        let resp =
          rpc_once d (Client.check ~id:41 ~source:buggy_src ~file:"t.rs" ())
        in
        let req = ifield resp "req" in
        Alcotest.(check bool) "response carries req id" true (req >= 1);
        let line =
          List.find_opt
            (fun l -> Sjson.int_member "req" l = Some req)
            (Daemon.access_log d)
        in
        match line with
        | None -> Alcotest.fail "no access-log line for the request id"
        | Some l ->
            Alcotest.(check string) "op" "check" (sfield l "op");
            Alcotest.(check bool) "client id" true (ifield l "id" = 41);
            Alcotest.(check string) "outcome" "findings" (sfield l "status");
            Alcotest.(check int) "attempts" 1 (ifield l "attempts");
            Alcotest.(check bool) "wall clocked" true (ifield l "wall_ns" >= 0);
            Alcotest.(check bool)
              "queue wait clocked" true
              (ifield l "queue_ns" >= 0);
            Alcotest.(check bool) "bytes counted" true (ifield l "bytes" > 0));
    case "request ids are distinct and monotone across a connection"
      (fun () ->
        with_server @@ fun d ->
        let c = Client.connect (Daemon.socket_path d) in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let r1 = ifield (Client.rpc c (Client.ping ~id:1)) "req" in
        let r2 = ifield (Client.rpc c (Client.ping ~id:2)) "req" in
        Alcotest.(check bool) "minted" true (r1 >= 1);
        Alcotest.(check bool) "monotone" true (r2 > r1));
    case "flight op returns the black box and the access log" (fun () ->
        with_server @@ fun d ->
        let _ = rpc_once d (Client.ping ~id:1) in
        let resp = rpc_once d (Client.flight ~id:2) in
        Alcotest.(check string) "status" "ok" (status resp);
        let dump = sfield resp "flight" in
        Alcotest.(check bool)
          "dump has the meta header" true
          (try
             ignore
               (Str.search_forward
                  (Str.regexp_string "\"kind\":\"flight.meta\"")
                  dump 0);
             true
           with Not_found -> false);
        match Sjson.member "access_log" resp with
        | Some (Sjson.List (_ :: _)) -> ()
        | _ -> Alcotest.fail "access_log missing or empty");
    case "access log is bounded with exact drop accounting" (fun () ->
        (* 16 is the smallest ring the daemon will build *)
        with_server ~tune:(fun c -> { c with Daemon.access_log_cap = 16 })
        @@ fun d ->
        let c = Client.connect (Daemon.socket_path d) in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        for i = 1 to 36 do
          ignore (Client.rpc c (Client.ping ~id:i))
        done;
        Alcotest.(check int) "ring holds the cap" 16
          (List.length (Daemon.access_log d));
        Alcotest.(check int) "drops counted exactly" 20 (Daemon.access_dropped d);
        (* the survivors are the newest lines *)
        Alcotest.(check (list int))
          "newest window, oldest first"
          (List.init 16 (fun k -> 21 + k))
          (List.filter_map
             (fun l -> Sjson.int_member "id" l)
             (Daemon.access_log d)));
    case "10k-request hammer keeps both rings bounded" (fun () ->
        with_server @@ fun d ->
        let c = Client.connect (Daemon.socket_path d) in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        let n = 10_000 in
        for i = 1 to n do
          ignore (Client.rpc c (Client.ping ~id:i))
        done;
        Alcotest.(check int) "all requests served" n
          ((Daemon.stats d).Daemon.requests);
        Alcotest.(check int) "access log capped at the default" 1024
          (List.length (Daemon.access_log d));
        Alcotest.(check int) "access drops exact" (n - 1024)
          (Daemon.access_dropped d);
        (* flight rings overwrite instead of growing: far fewer events
           buffered than were recorded (admit + finish per request) *)
        Alcotest.(check bool)
          "flight ring bounded" true
          (Support.Flight.events_total () <= 8192 * 4);
        Alcotest.(check bool)
          "flight drops accounted" true
          (Support.Flight.dropped_total () > 0));
  ]

(* ---------------- top's percentile estimator -------------------------- *)

let top_cases =
  let hist count buckets =
    {
      Server.Top.h_count = count;
      h_sum = 0.0;
      h_buckets = buckets;
    }
  in
  [
    case "percentile interpolates inside the owning bucket" (fun () ->
        let h = hist 100 [ (1.0, 10); (10.0, 90); (infinity, 100) ] in
        (match Server.Top.percentile h 0.50 with
        | Some p ->
            Alcotest.(check (float 1e-9)) "p50" 5.5 p
        | None -> Alcotest.fail "p50 missing");
        (* q landing in the first bucket interpolates from zero *)
        match Server.Top.percentile h 0.05 with
        | Some p -> Alcotest.(check (float 1e-9)) "p5" 0.5 p
        | None -> Alcotest.fail "p5 missing");
    case "percentile in the +Inf bucket degrades to the last bound"
      (fun () ->
        let h = hist 100 [ (1.0, 10); (10.0, 90); (infinity, 100) ] in
        match Server.Top.percentile h 0.99 with
        | Some p -> Alcotest.(check (float 1e-9)) "p99" 10.0 p
        | None -> Alcotest.fail "p99 missing");
    case "percentile of an empty histogram is None" (fun () ->
        Alcotest.(check bool)
          "None" true
          (Server.Top.percentile (hist 0 []) 0.5 = None));
  ]

let suite =
  sjson_cases @ roundtrip_cases @ budget_cases @ fault_cases
  @ adversarial_cases @ lifecycle_cases @ admin_cases @ reqid_cases
  @ top_cases
