(* Flight-recorder tests: the always-on ring buffers must account
   drops exactly, dump parseable JSONL with a meta header, survive
   unwritable black-box paths, and — driven against the real binary —
   leave a dump on disk when a serving process is killed mid-flight. *)

module Flight = Support.Flight
module Sjson = Support.Sjson
module Client = Server.Client

let case name f = Alcotest.test_case name `Quick f

(* Restore global recorder state around each test: the recorder is a
   process-wide singleton shared with every other suite. *)
let with_flight f =
  Flight.enable ();
  Flight.reset ();
  Fun.protect
    ~finally:(fun () ->
      Flight.set_blackbox None;
      Flight.set_ring_capacity 8192;
      Flight.reset ();
      Flight.enable ();
      Support.Trace.set_clock None)
    f

let lines_of s = String.split_on_char '\n' s |> List.filter (( <> ) "")

let parse_line l =
  match Sjson.parse_result l with
  | Ok v -> v
  | Error m -> Alcotest.fail (Printf.sprintf "bad dump line %S: %s" l m)

let kind_of v = Option.value ~default:"" (Sjson.str_member "kind" v)

(* ---------------- recording & dump ----------------------------------- *)

let dump_cases =
  [
    case "dump: meta header then flat events in clock order" (fun () ->
        with_flight @@ fun () ->
        (* injected clock makes timestamps deterministic *)
        let t = ref 0L in
        Support.Trace.set_clock
          (Some (fun () -> t := Int64.add !t 10L; !t));
        Flight.record "first" ~fields:[ ("k", "v1") ];
        Flight.record "second" ~fields:[ ("k", "v\"2"); ("extra", "x") ];
        let dump = Flight.dump_jsonl () in
        match lines_of dump with
        | meta :: rest ->
            let m = parse_line meta in
            Alcotest.(check string) "meta kind" "flight.meta" (kind_of m);
            Alcotest.(check bool)
              "meta pid" true
              (Sjson.int_member "pid" m = Some (Unix.getpid ()));
            Alcotest.(check bool)
              "meta event count" true
              (Sjson.int_member "events" m = Some 2);
            let evs = List.map parse_line rest in
            Alcotest.(check (list string))
              "kinds in clock order" [ "first"; "second" ]
              (List.map kind_of evs);
            List.iter
              (fun e ->
                Alcotest.(check bool)
                  "ts monotone positive" true
                  (match Sjson.int_member "ts" e with
                  | Some ts -> ts > 0
                  | None -> false))
              evs;
            Alcotest.(check bool)
              "fields flattened (escaped value intact)" true
              (Sjson.str_member "k" (List.nth evs 1) = Some "v\"2")
        | [] -> Alcotest.fail "empty dump");
    case "disabled recording is a no-op" (fun () ->
        with_flight @@ fun () ->
        Flight.disable ();
        Flight.record "ghost";
        Alcotest.(check int) "nothing buffered" 0 (Flight.events_total ());
        Flight.enable ();
        Flight.record "real";
        Alcotest.(check int) "re-enabled records" 1 (Flight.events_total ()));
  ]

(* ---------------- exact drop accounting ------------------------------- *)

let overflow_cases =
  [
    case "ring overflow keeps the newest window, counts drops exactly"
      (fun () ->
        with_flight @@ fun () ->
        Flight.set_ring_capacity 16;
        for i = 1 to 50 do
          Flight.record "tick" ~fields:[ ("i", string_of_int i) ]
        done;
        Alcotest.(check int) "buffered = capacity" 16 (Flight.events_total ());
        Alcotest.(check int) "dropped = overflow" 34 (Flight.dropped_total ());
        (* the survivors are the *last* 16 ticks, oldest first *)
        let evs =
          match lines_of (Flight.dump_jsonl ()) with
          | _meta :: rest -> List.map parse_line rest
          | [] -> Alcotest.fail "empty dump"
        in
        let is =
          List.filter_map
            (fun e ->
              Option.map int_of_string (Sjson.str_member "i" e))
            evs
        in
        Alcotest.(check (list int))
          "newest window survives" (List.init 16 (fun k -> 35 + k))
          is;
        Flight.reset ();
        Alcotest.(check int) "reset zeroes events" 0 (Flight.events_total ());
        Alcotest.(check int) "reset zeroes drops" 0 (Flight.dropped_total ()));
  ]

(* ---------------- black box ------------------------------------------ *)

let blackbox_cases =
  [
    case "crash hook writes the black box with the reason" (fun () ->
        with_flight @@ fun () ->
        let path = Filename.temp_file "rustudy_flight" ".jsonl" in
        Flight.set_blackbox (Some path);
        Flight.record "work" ~fields:[ ("step", "1") ];
        Flight.crash ~reason:"injected boom" ();
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let dump = really_input_string ic n in
        close_in ic;
        (match lines_of dump with
        | meta :: rest ->
            Alcotest.(check string)
              "meta first" "flight.meta"
              (kind_of (parse_line meta));
            let evs = List.map parse_line rest in
            Alcotest.(check bool)
              "work event present" true
              (List.exists (fun e -> kind_of e = "work") evs);
            let crash =
              List.find_opt (fun e -> kind_of e = "crash") evs
            in
            Alcotest.(check bool)
              "crash event carries the reason" true
              (match crash with
              | Some e -> Sjson.str_member "reason" e = Some "injected boom"
              | None -> false)
        | [] -> Alcotest.fail "empty black box");
        Sys.remove path);
    case "unwritable black-box path never raises" (fun () ->
        with_flight @@ fun () ->
        Flight.set_blackbox (Some "/nonexistent-dir-rustudy/bb.jsonl");
        Flight.record "doomed";
        Alcotest.(check bool)
          "write reports failure as None" true
          (Flight.write_blackbox () = None);
        (* the crash path must also swallow it *)
        Flight.crash ~reason:"still fine" ());
    case "no installed path: write_blackbox is None" (fun () ->
        with_flight @@ fun () ->
        Flight.set_blackbox None;
        Alcotest.(check bool) "None" true (Flight.write_blackbox () = None));
  ]

(* ---------------- killing a real run mid-flight ----------------------- *)

(* Boot the actual CLI binary as a serving subprocess with a black-box
   path, SIGQUIT it (dump-on-demand), then SIGKILL it mid-flight: the
   dump must be on disk even though the process never exited cleanly. *)

let cli_binary = "../bin/rustudy_cli.exe"

let wait_for ?(ms = 5000) pred =
  let rec go n =
    if pred () then true
    else if n <= 0 then false
    else begin
      Thread.delay 0.01;
      go (n - 1)
    end
  in
  go (ms / 10)

let kill_cases =
  [
    case "SIGKILLed serve leaves its black box on disk" (fun () ->
        with_flight @@ fun () ->
        Alcotest.(check bool)
          (Printf.sprintf "CLI binary present at %s" cli_binary)
          true (Sys.file_exists cli_binary);
        let sock = Filename.temp_file "rustudy_flight" ".sock" in
        let bb = Filename.temp_file "rustudy_flight" ".jsonl" in
        Sys.remove bb;
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process cli_binary
            [|
              cli_binary; "serve"; "--socket"; sock; "--workers"; "1";
              "--flight-out"; bb;
            |]
            Unix.stdin devnull devnull
        in
        Unix.close devnull;
        Fun.protect
          ~finally:(fun () ->
            (* the happy path already killed and reaped the child *)
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
            (try Sys.remove sock with _ -> ());
            try Sys.remove bb with _ -> ())
          (fun () ->
            let c = Client.connect_retry sock in
            let resp = Client.rpc c (Client.ping ~id:1) in
            Client.close c;
            Alcotest.(check bool)
              "subprocess serves" true
              (Sjson.str_member "status" resp = Some "ok");
            (* dump-on-demand from the live process *)
            Unix.kill pid Sys.sigquit;
            Alcotest.(check bool)
              "black box appears after SIGQUIT" true
              (wait_for (fun () -> Sys.file_exists bb));
            (* now kill it for real: the dump survives the murder *)
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            let ic = open_in_bin bb in
            let dump = really_input_string ic (in_channel_length ic) in
            close_in ic;
            match lines_of dump with
            | meta :: rest ->
                Alcotest.(check string)
                  "meta header" "flight.meta"
                  (kind_of (parse_line meta));
                let kinds = List.map (fun l -> kind_of (parse_line l)) rest in
                Alcotest.(check bool)
                  "server.start recorded" true
                  (List.mem "server.start" kinds);
                Alcotest.(check bool)
                  "the ping was admitted" true
                  (List.mem "req.admit" kinds);
                Alcotest.(check bool)
                  "the SIGQUIT itself is on the record" true
                  (List.mem "sigquit" kinds)
            | [] -> Alcotest.fail "empty black box"));
  ]

let suite = dump_cases @ overflow_cases @ blackbox_cases @ kill_cases
