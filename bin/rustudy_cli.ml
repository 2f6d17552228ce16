(** The `rustudy` command-line tool.

    - [rustudy check FILE]     parse/lower a RustLite file and run all detectors
    - [rustudy mir FILE]       dump the MIR of a RustLite file
    - [rustudy unsafe FILE]    scan a file for unsafe usages
    - [rustudy detect --eval]  run the §7 detector evaluation
    - [rustudy oracle ...]     run the dynamic oracle (differentially with --eval)
    - [rustudy study ...]      regenerate the paper's tables and figures

    Exit codes form a ladder: 0 = clean, 1 = findings reported,
    2 = some entries degraded (recovered-from errors or exhausted
    analysis fuel), 3 = fatal error. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let exit_clean = 0
let exit_degraded = 2
let exit_fatal = 3

(* Replay a Server.Handlers outcome as this process's observable
   behaviour. The same record is shipped over the wire by `rustudy
   serve`, so offline and served runs are byte-identical by
   construction. *)
let print_outcome (o : Server.Proto.outcome) =
  print_string o.Server.Proto.out;
  prerr_string o.Server.Proto.err;
  o.Server.Proto.exit_code

let fuel_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Iteration budget for the fixpoint analyses. An analysis that \
           exhausts it stops early and is reported as incomplete instead of \
           running forever; values <= 0 restore the default \
           (100000).")

let apply_fuel fuel = Option.iter Rustudy.Fuel.set fuel

let deadline_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget in milliseconds per analyzed entry (the \
           time-domain analogue of $(b,--fuel)). An analysis that exceeds it \
           stops early and is reported as incomplete (W0402) instead of \
           running forever; values <= 0 disable the budget.")

let apply_deadline deadline = Option.iter Rustudy.Deadline.set_default_ms deadline

(* ---------------- observability ------------------------------------ *)

type obs = {
  trace_out : string option;
  metrics_out : string option;
  flight_out : string option;
  profile : bool;
}

let obs_term =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record spans for the whole run and write a Chrome trace-event \
             JSON file to $(docv) on exit (load it in chrome://tracing or \
             Perfetto). Implies tracing is enabled.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Record pipeline metrics (fixpoint iterations, cache traffic, \
             detector findings, supervisor verdicts, ...) and write a \
             snapshot to $(docv) on exit: JSON when $(docv) ends in .json, \
             Prometheus text format otherwise.")
  in
  let flight_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-out" ] ~docv:"FILE"
          ~doc:
            "Write the flight-recorder black box (JSONL, the most recent \
             structured events per domain) to $(docv) on exit — including \
             fatal exits — and on SIGQUIT while running. The recorder \
             itself is always on; this only sets where the dump lands.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Enable tracing and metrics and print a per-span wall-time \
             summary (count, total, mean) to stderr on exit.")
  in
  Term.(
    const (fun trace_out metrics_out flight_out profile ->
        { trace_out; metrics_out; flight_out; profile })
    $ trace_out $ metrics_out $ flight_out $ profile)

(* Write-then-rename: the periodic metrics flusher and the exit-path
   flush can race on the same path, and a reader (or the crash hook)
   must never see a torn export. *)
let write_file path s =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  output_string oc s;
  close_out oc;
  Sys.rename tmp path

let flush_metrics path =
  write_file path
    (if Filename.check_suffix path ".json" then Rustudy.Metrics.export_json ()
     else Rustudy.Metrics.export_prometheus ())

(* Enable the requested sinks, run the command body, then flush the
   exports. The exports run on every exit: nonzero exit codes
   (degraded runs still produce their telemetry) and uncaught
   exceptions alike — the crash hook writes the flight-recorder black
   box plus final trace/metrics snapshots before the exception
   resumes, so a fatal crash leaves postmortem evidence instead of
   silence. *)
let with_obs (obs : obs) (f : unit -> int) : int =
  if obs.trace_out <> None || obs.profile then Rustudy.Trace.enable ();
  if obs.metrics_out <> None || obs.profile then Rustudy.Metrics.enable ();
  (match obs.flight_out with
  | Some p ->
      Rustudy.Flight.set_blackbox (Some p);
      Rustudy.Flight.install_sigquit ()
  | None -> ());
  let flush () =
    Option.iter
      (fun p -> write_file p (Rustudy.Trace.export_chrome ()))
      obs.trace_out;
    Option.iter flush_metrics obs.metrics_out;
    ignore (Rustudy.Flight.write_blackbox ())
  in
  match f () with
  | code ->
      flush ();
      if obs.profile then prerr_string (Rustudy.Trace.profile_table ());
      code
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (* [crash] records the event and writes the black box itself, so
         the flight dump survives even if an exporter below throws *)
      Rustudy.Flight.crash ~reason:(Printexc.to_string e) ();
      (try flush () with _ -> ());
      Printexc.raise_with_backtrace e bt

(* ---------------- check ------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"RustLite source file")

let statement_tmp =
  Arg.(
    value & flag
    & info [ "statement-temporaries" ]
        ~doc:
          "Ablation: drop match/if scrutinee temporaries at the end of \
           their own statement instead of Rust's extended rule.")

let config_of_flag statement_tmp =
  if statement_tmp then
    { Ir.Lower.tmp_lifetime = Ir.Lower.Statement_local }
  else Ir.Lower.default_config

let domains_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Size of the worker pool for corpus-wide analysis (default: the \
           detected core count minus one, so the coordinating domain keeps \
           a core; 1 forces the sequential path). Results are identical \
           and corpus-ordered for any value.")

let check_cmd =
  let keep_going =
    Arg.(
      value & flag
      & info [ "keep-going" ]
          ~doc:
            "Recover from malformed input instead of stopping at the first \
             syntax error: findings cover the healthy parts of the file and \
             recovery diagnostics go to stderr (exit code 2).")
  in
  let run file statement_tmp keep_going fuel deadline obs =
    apply_fuel fuel;
    apply_deadline deadline;
    with_obs obs @@ fun () ->
    (* the body lives in Server.Handlers, shared verbatim with the
       analysis daemon: printing the outcome here is what makes a
       healthy server response byte-identical to this offline run *)
    print_outcome
      (Server.Handlers.check
         ~config:(config_of_flag statement_tmp)
         ~file ~keep_going ())
  in
  Cmd.v (Cmd.info "check" ~doc:"Run all bug detectors on a RustLite file")
    Term.(
      const run $ file_arg $ statement_tmp $ keep_going $ fuel_opt
      $ deadline_opt $ obs_term)

(* ---------------- mir --------------------------------------------- *)

let mir_cmd =
  let run file statement_tmp =
    let source = read_file file in
    let program =
      Rustudy.load ~config:(config_of_flag statement_tmp) ~file source
    in
    List.iter
      (fun b -> print_string (Rustudy.Mir.body_to_string b))
      (Rustudy.Mir.body_list program);
    0
  in
  Cmd.v (Cmd.info "mir" ~doc:"Dump the MIR lowering of a RustLite file")
    Term.(const run $ file_arg $ statement_tmp)

(* ---------------- unsafe ------------------------------------------ *)

let unsafe_cmd =
  let run file =
    let source = read_file file in
    let crate = Rustudy.parse ~file source in
    let s = Rustudy.scan_unsafe crate in
    Printf.printf
      "unsafe blocks: %d\nunsafe fns: %d\nunsafe traits: %d\nunsafe impls: %d\n\
       interior-unsafe fns: %d\nmemory ops: %d\nunsafe calls: %d\nstatic accesses: %d\n"
      s.Rustudy.Unsafe_scan.unsafe_blocks s.Rustudy.Unsafe_scan.unsafe_fns
      s.Rustudy.Unsafe_scan.unsafe_traits s.Rustudy.Unsafe_scan.unsafe_impls
      s.Rustudy.Unsafe_scan.interior_unsafe_fns s.Rustudy.Unsafe_scan.op_memory
      s.Rustudy.Unsafe_scan.op_unsafe_call s.Rustudy.Unsafe_scan.op_static;
    0
  in
  Cmd.v (Cmd.info "unsafe" ~doc:"Scan a RustLite file for unsafe usages")
    Term.(const run $ file_arg)

(* ---------------- detect ------------------------------------------ *)

let detect_cmd =
  let eval_flag =
    Arg.(value & flag & info [ "eval" ] ~doc:"Run the §7 detector evaluation")
  in
  let run eval domains fuel deadline obs =
    apply_fuel fuel;
    apply_deadline deadline;
    with_obs obs @@ fun () ->
    if eval then
      (* per-target isolation is always on for corpus commands: a
         target that fails to analyze lands in [degraded]. The body is
         shared with the analysis daemon (Server.Handlers). *)
      print_outcome (Server.Handlers.detect_eval ?domains ())
    else begin
      prerr_endline "detect: pass --eval, or use `rustudy check FILE`";
      exit_fatal
    end
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Run the detector evaluation over the target corpus")
    Term.(
      const run $ eval_flag $ domains_opt $ fuel_opt $ deadline_opt $ obs_term)

(* ---------------- oracle ------------------------------------------ *)

let oracle_cmd =
  let file_pos =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "RustLite file to interpret. Omit it (with $(b,--eval)) to run \
             the corpus-wide differential sweep instead.")
  in
  let eval_flag =
    Arg.(
      value & flag
      & info [ "eval" ]
          ~doc:
            "Run the differential oracle-vs-detector evaluation over the \
             bundled corpus and print the per-class confusion table.")
  in
  let mutants_flag =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:
            "With $(b,--eval): also sweep every seeded fault mutant of the \
             corpus (the 1020 recovery mutants plus the trap-aiming \
             mutants).")
  in
  let ofuel_opt =
    Arg.(
      value
      & opt int Rustudy.Oracle.default_fuel
      & info [ "fuel" ] ~docv:"STEPS"
          ~doc:
            "Interpreter step budget per schedule. Exhausting it degrades \
             the verdict to inconclusive (W0602) instead of running \
             forever.")
  in
  let odeadline_opt =
    Arg.(
      value
      & opt int Rustudy.Oracle.default_deadline_ms
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget per schedule in milliseconds; hitting it \
             degrades the verdict to inconclusive (W0603).")
  in
  let schedules_opt =
    Arg.(
      value
      & opt int Rustudy.Oracle.default_schedules
      & info [ "schedules" ] ~docv:"K"
          ~doc:
            "Bound on explored thread interleavings. Schedule 0 is the \
             deterministic round-robin; the rest draw preemptions from the \
             seed. Single-threaded programs always run exactly once.")
  in
  let seed_opt =
    Arg.(
      value
      & opt int Rustudy.Oracle.default_seed
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for schedule exploration. The same seed and budgets \
             reproduce byte-identical verdicts.")
  in
  let run file eval mutants fuel deadline_ms schedules seed domains obs =
    with_obs obs @@ fun () ->
    match (file, eval) with
    | None, false ->
        prerr_endline "oracle: pass FILE, or --eval for the corpus sweep";
        exit_fatal
    | None, true ->
        let r =
          Rustudy.Oracle_eval.run ?domains ~mutants ~fuel ~deadline_ms
            ~schedules ~seed ()
        in
        print_string (Rustudy.Oracle_eval.render r);
        if r.Rustudy.Oracle_eval.escaped > 0 then exit_fatal
        else if r.Rustudy.Oracle_eval.degraded <> [] then exit_degraded
        else exit_clean
    | Some file, _ ->
        let source = read_file file in
        let prog = Rustudy.load ~file source in
        let r = Rustudy.Oracle.run ~fuel ~deadline_ms ~schedules ~seed prog in
        print_string (Rustudy.Oracle.render r);
        List.iter
          (fun (d : Rustudy.Diag.t) ->
            Printf.eprintf "%s: %s\n"
              (Rustudy.Diag.code_name d.Rustudy.Diag.code)
              d.Rustudy.Diag.message)
          r.Rustudy.Oracle.diags;
        let trap = ref false and inconclusive = ref false in
        List.iter
          (fun (_, v) ->
            match v with
            | Rustudy.Oracle.Trap _ -> trap := true
            | Rustudy.Oracle.Inconclusive _ -> inconclusive := true
            | Rustudy.Oracle.Clean -> ())
          r.Rustudy.Oracle.verdicts;
        if !trap then 1 else if !inconclusive then exit_degraded else exit_clean
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:
         "Execute a program (or the corpus) under the budgeted MIR \
          interpreter and report dynamic bug-class verdicts")
    Term.(
      const run $ file_pos $ eval_flag $ mutants_flag $ ofuel_opt
      $ odeadline_opt $ schedules_opt $ seed_opt $ domains_opt $ obs_term)

(* ---------------- lock-scopes -------------------------------------- *)

let lock_scopes_cmd =
  let run file =
    let source = read_file file in
    let program = Rustudy.load ~file source in
    print_string (Rustudy.Lock_scope.render (Rustudy.Lock_scope.sections program));
    0
  in
  Cmd.v
    (Cmd.info "lock-scopes"
       ~doc:
         "Visualize critical sections: where each lock is acquired, where           the implicit unlock happens, and blocking operations inside           (the paper's Suggestion 6)")
    Term.(const run $ file_arg)

(* ---------------- audit-encapsulation ------------------------------ *)

let audit_cmd =
  let run file =
    let source = read_file file in
    let program = Rustudy.load ~file source in
    let verdicts = Rustudy.Encapsulation.audit program in
    print_string (Rustudy.Encapsulation.render verdicts);
    if verdicts = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "audit-encapsulation"
       ~doc:
         "Audit interior-unsafe functions for improper encapsulation           (the paper's Suggestion 3)")
    Term.(const run $ file_arg)

(* ---------------- lifetimes ---------------------------------------- *)

let lifetimes_cmd =
  let run file =
    let source = read_file file in
    let program = Rustudy.load ~file source in
    print_string (Rustudy.Lifetimes.render (Rustudy.Lifetimes.report program));
    0
  in
  Cmd.v
    (Cmd.info "lifetimes"
       ~doc:
         "Visualize every variable's lifetime: birth, drop/move site, and           the pointers that alias it (the paper's §7.1 IDE suggestion)")
    Term.(const run $ file_arg)

(* ---------------- study ------------------------------------------- *)

let study_cmd =
  let table =
    Arg.(value & opt (some int) None & info [ "table" ] ~docv:"N" ~doc:"Print table N (1-4)")
  in
  let figure =
    Arg.(value & opt (some int) None & info [ "figure" ] ~docv:"N" ~doc:"Print figure N (1-2)")
  in
  let fixes = Arg.(value & flag & info [ "fixes" ] ~doc:"Print fix-strategy tables") in
  let unsafe_ = Arg.(value & flag & info [ "unsafe" ] ~doc:"Print §4 unsafe-usage statistics") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit figures as CSV") in
  let no_keep_going =
    Arg.(
      value & flag
      & info [ "no-keep-going" ]
          ~doc:
            "Abort on the first corpus entry that fails to analyze instead \
             of the default: isolating it, reporting it as degraded on \
             stderr and exiting with code 2.")
  in
  let run_deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "run-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget for the whole corpus run. Entries not \
             started before it expires are reported as skipped (W0405) \
             instead of silently dropped; the run still exits through the \
             normal ladder.")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Total attempts per entry under supervision (default 3). A \
             failed or timed-out entry is retried with seeded exponential \
             backoff (W0403) and quarantined once the budget is spent \
             (W0404). 1 disables retries.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Append one fsync'd journal record per completed entry to \
             $(docv), so a killed run can be resumed with $(b,--resume).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"PATH"
          ~doc:
            "Replay finished entries from the journal at $(docv) instead \
             of re-analyzing them (byte-identical outcomes); only the \
             remainder is analyzed. Combine with $(b,--checkpoint) (same \
             path is fine) to keep the journal growing.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:
            "Suppress the human-readable supervisor summary on stderr \
             (machine consumers read the same counters from \
             $(b,--metrics-out)). Degraded-entry lines and the exit-code \
             ladder are unaffected.")
  in
  let run table figure fixes unsafe_ csv domains no_keep_going fuel deadline
      run_deadline retries checkpoint resume quiet obs =
    apply_fuel fuel;
    apply_deadline deadline;
    with_obs obs @@ fun () ->
    let supervised =
      deadline <> None || run_deadline <> None || retries <> None
      || checkpoint <> None || resume <> None
    in
    let keep_going = not no_keep_going in
    let sup_config () =
      let base = Rustudy.Supervisor.default_config in
      {
        base with
        Rustudy.Supervisor.domains;
        per_entry_deadline_ms = deadline;
        run_deadline_ms = run_deadline;
        retry =
          (match retries with
          | None -> base.Rustudy.Supervisor.retry
          | Some n ->
              {
                base.Rustudy.Supervisor.retry with
                Rustudy.Retry.max_attempts = max 1 n;
              });
      }
    in
    let sup_summary (s : Rustudy.Supervisor.stats) replayed =
      Printf.sprintf
        "supervisor: %d/%d completed, %d retries, %d timeouts, %d \
         quarantined, %d skipped, %d replayed"
        s.Rustudy.Supervisor.completed s.Rustudy.Supervisor.total
        s.Rustudy.Supervisor.retried s.Rustudy.Supervisor.timeouts
        s.Rustudy.Supervisor.quarantined s.Rustudy.Supervisor.skipped replayed
    in
    let sup_sweep =
      (* one supervised sweep per invocation, shared by whichever
         outputs were requested *)
      lazy
        (Rustudy.analyze_corpus_supervised ~config:(sup_config ()) ?checkpoint
           ?resume ())
    in
    let results =
      (* the fault-tolerant sweep: one outcome per entry, in corpus
         order; only run when needed (the full report runs it itself) *)
      match (supervised, keep_going, table, figure, fixes, unsafe_) with
      | true, _, _, _, _, _ ->
          let results, _, _ = Lazy.force sup_sweep in
          results
      | _, false, _, _, _, _ | _, _, None, None, false, false -> []
      | _ -> Rustudy.analyze_corpus_results ?domains ()
    in
    let analyses =
      if supervised || keep_going then
        List.filter_map
          (fun (_, o) -> Rustudy.Classify.outcome_analysis o)
          results
      else
        match (table, figure, fixes, unsafe_) with
        | None, None, false, false -> []
        | _ -> Rustudy.analyze_corpus ?domains ()
    in
    let degraded_exit results =
      (if supervised && not quiet then
         let _, stats, replayed = Lazy.force sup_sweep in
         prerr_endline (sup_summary stats replayed));
      (* per-entry provenance (cache origin, wall time, analysis work)
         is captured only while tracing/metrics are on *)
      let prov = Rustudy.Classify.provenance_block () in
      if prov <> "" then print_string prov;
      let summary = Rustudy.Classify.degraded_summary results in
      if summary = "" then exit_clean
      else begin
        prerr_string summary;
        exit_degraded
      end
    in
    match (table, figure, fixes, unsafe_) with
    | None, None, false, false ->
        if supervised then begin
          print_endline (Rustudy.assemble_report ?domains analyses);
          degraded_exit results
        end
        else if keep_going then begin
          let report, results = Rustudy.study_report_results ?domains () in
          print_endline report;
          degraded_exit results
        end
        else begin
          print_endline (Rustudy.study_report ?domains ());
          exit_clean
        end
    | _ ->
        Option.iter
          (fun n ->
            print_endline
              (match n with
              | 1 -> Rustudy.Tables.table1 analyses
              | 2 -> Rustudy.Tables.table2 analyses
              | 3 -> Rustudy.Tables.table3 analyses
              | 4 -> Rustudy.Tables.table4 analyses
              | _ -> "unknown table"))
          table;
        Option.iter
          (fun n ->
            print_endline
              (match (n, csv) with
              | 1, false -> Rustudy.Figures.figure1 ()
              | 1, true -> Rustudy.Figures.figure1_csv ()
              | 2, false -> Rustudy.Figures.figure2 ()
              | 2, true -> Rustudy.Figures.figure2_csv ()
              | _ -> "unknown figure"))
          figure;
        if fixes then print_endline (Rustudy.Tables.fix_strategies analyses);
        if unsafe_ then print_endline (Rustudy.Tables.unsafe_stats ());
        if supervised || keep_going then degraded_exit results
        else exit_clean
  in
  Cmd.v
    (Cmd.info "study" ~doc:"Regenerate the paper's tables and figures from the corpus")
    Term.(
      const run $ table $ figure $ fixes $ unsafe_ $ csv $ domains_opt
      $ no_keep_going $ fuel_opt $ deadline_opt $ run_deadline
      $ retries $ checkpoint $ resume $ quiet $ obs_term)

(* ---------------- serve -------------------------------------------- *)

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path to listen on.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains handling requests in parallel.")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bound on the admission queue. Requests arriving beyond it \
             are shed immediately with a structured W0501 rejection \
             instead of queueing unboundedly.")
  in
  let max_frame =
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:
            "Largest accepted request frame. Oversized frames get a \
             structured E0502 error and the connection stays usable.")
  in
  let retries =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Attempts per request: a handler that raises is retried with \
             seeded backoff, then answered with E0501 once the budget is \
             spent. 1 disables retries.")
  in
  let drain_ms =
    Arg.(
      value & opt int 5000
      & info [ "drain-ms" ] ~docv:"MS"
          ~doc:
            "Grace period for in-flight requests when draining (SIGTERM \
             or a shutdown request): work finishing inside it is answered \
             normally, the rest gets structured W0503/W0504 responses.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Crash-safe request log: completed responses are appended \
             (fsync'd) and a restarted server replays them byte-identically \
             instead of recomputing.")
  in
  let metrics_every_ms =
    Arg.(
      value & opt int 0
      & info [ "metrics-every-ms" ] ~docv:"MS"
          ~doc:
            "Flush a metrics snapshot to the --metrics-out path every \
             $(docv) milliseconds while serving, not just on exit — live \
             scrape material for dashboards. 0 (default) disables the \
             periodic flush.")
  in
  let access_log_cap =
    Arg.(
      value & opt int 1024
      & info [ "access-log-cap" ] ~docv:"N"
          ~doc:
            "Lines retained in the in-memory structured access log served \
             by the flight admin op; beyond it the oldest lines are \
             dropped and counted.")
  in
  let run socket workers queue_cap max_frame retries drain_ms journal
      metrics_every_ms access_log_cap fuel deadline obs =
    apply_fuel fuel;
    with_obs obs @@ fun () ->
    let cfg =
      {
        (Server.Daemon.default_config ~socket_path:socket) with
        Server.Daemon.workers;
        queue_cap;
        max_frame;
        retries;
        drain_ms;
        journal;
        access_log_cap;
        (* --deadline-ms becomes the per-request default budget rather
           than the process-wide one: requests carrying their own
           deadline_ms override it *)
        default_deadline_ms = Option.value ~default:0 deadline;
      }
    in
    match Server.Daemon.start cfg with
    | exception Failure msg ->
        prerr_endline ("fatal: " ^ msg);
        exit_fatal
    | exception Unix.Unix_error (e, _, _) ->
        prerr_endline
          ("fatal: cannot listen on " ^ socket ^ ": " ^ Unix.error_message e);
        exit_fatal
    | d ->
        let on_signal _ = Server.Daemon.request_shutdown d in
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
         with _ -> ());
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
         with _ -> ());
        (* a live daemon can also be asked for its black box without
           dying: SIGQUIT dumps and keeps serving *)
        (match obs.flight_out with
        | Some _ -> ()
        | None -> Rustudy.Flight.install_sigquit ());
        (match (metrics_every_ms, obs.metrics_out) with
        | ms, Some path when ms > 0 ->
            ignore
              (Thread.create
                 (fun () ->
                   while not (Server.Daemon.stopped d) do
                     Thread.delay (float_of_int ms /. 1000.0);
                     try flush_metrics path with _ -> ()
                   done)
                 ())
        | ms, None when ms > 0 ->
            prerr_endline
              "serve: --metrics-every-ms needs --metrics-out; ignoring"
        | _ -> ());
        Server.Daemon.serve d;
        let s = Server.Daemon.stats d in
        Printf.eprintf
          "serve: %d requests (%d ok, %d errors), %d shed, %d rejected \
           draining, %d bad frames, %d retried, %d worker deaths, %d \
           replayed, %d timeouts\n\
           %!"
          s.Server.Daemon.requests s.Server.Daemon.ok s.Server.Daemon.errors
          s.Server.Daemon.shed s.Server.Daemon.rejected_draining
          s.Server.Daemon.bad_frames s.Server.Daemon.retried
          s.Server.Daemon.worker_deaths s.Server.Daemon.replayed
          s.Server.Daemon.timeouts;
        exit_clean
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis daemon: a crash-safe, load-shedding server \
          answering check/detect/study requests over a Unix-domain socket \
          with per-request budgets and graceful drain (protocol in \
          docs/SERVER.md)")
    Term.(
      const run $ socket $ workers $ queue_cap $ max_frame $ retries
      $ drain_ms $ journal $ metrics_every_ms $ access_log_cap $ fuel_opt
      $ deadline_opt $ obs_term)

let top_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the daemon to watch.")
  in
  let interval_ms =
    Arg.(
      value & opt int 1000
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Polling interval (minimum 50).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Poll once, print, and exit — for scripts and smoke tests.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object per poll instead of the refreshing \
             screen.")
  in
  let run socket interval_ms once json =
    Server.Top.run ~socket ~interval_ms ~once ~json ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Watch a live daemon: polls the stats/metrics admin ops and \
          renders qps, shed/retry/timeout rates, p50/p99 latency, queue \
          and worker occupancy, and the heaviest spans")
    Term.(const run $ socket $ interval_ms $ once $ json)

let main =
  let doc =
    "static analysis and empirical-study toolkit reproducing the PLDI'20 \
     study of memory and thread safety in real-world Rust programs"
  in
  Cmd.group (Cmd.info "rustudy" ~version:"1.0.0" ~doc)
    [ check_cmd; mir_cmd; unsafe_cmd; detect_cmd; oracle_cmd; study_cmd; serve_cmd; top_cmd; lock_scopes_cmd; audit_cmd; lifetimes_cmd ]

let () = exit (Cmd.eval' main)
