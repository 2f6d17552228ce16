(** The detector table and the passes over it (see all.mli).

    Every detector invocation is observable: a [detector.<name>] trace
    span wraps it and [rustudy_detector_runs_total] /
    [rustudy_detector_findings_total] (labelled by detector) count it —
    both no-ops unless tracing/metrics are enabled. *)

let detectors : (string * (Analysis.Cache.t -> Report.finding list)) list =
  [
    (* §5 memory safety *)
    ("uaf", fun ctx -> Uaf.run_ctx ctx);
    ("double_free", Double_free.run_ctx);
    ("invalid_free", Invalid_free.run_ctx);
    ("uninit", Uninit.run_ctx);
    ("null_deref", Null_deref.run_ctx);
    ("buffer", Buffer.run_ctx);
    (* §6.1 blocking *)
    ("double_lock", fun ctx -> Double_lock.run_ctx ctx);
    ("lock_order", Lock_order.run_ctx);
    ("condvar", Condvar.run_ctx);
    ("channel", Channel.run_ctx);
    ("once", Once.run_ctx);
    (* §6.2 non-blocking *)
    ("sync_misuse", Sync_misuse.run_ctx);
    ("atomicity", Atomicity.run_ctx);
    ("atomicity_sessions", Atomicity.run_with_sessions_ctx);
    ("refcell", Refcell.run_ctx);
  ]

let m_runs =
  Support.Metrics.counter ~labels:[ "detector" ]
    ~help:"Detector invocations." "rustudy_detector_runs_total"

let m_findings =
  Support.Metrics.counter ~labels:[ "detector" ]
    ~help:"Findings reported, by detector." "rustudy_detector_findings_total"

(* Wrap one detector: span + run/finding counters. The detector name is
   a static string, so the disabled path costs two [Atomic.get]s and no
   allocation. *)
let det name run_ctx ctx =
  let findings =
    Support.Trace.with_span ~cat:"detector" ("detector." ^ name) (fun () ->
        run_ctx ctx)
  in
  if Support.Metrics.enabled () then begin
    Support.Metrics.incr m_runs ~labels:[ name ];
    Support.Metrics.incr m_findings ~labels:[ name ]
      ~by:(float_of_int (List.length findings))
  end;
  findings

(* A right fold runs the table's last detector first and [uaf] last.
   Keep that order: traces show it, and under a deadline it decides
   which detectors finish before the budget runs out. Findings still
   come out in table order. *)
let bugs_ctx ctx =
  List.fold_right (fun (name, run) acc -> det name run ctx @ acc) detectors []

let compiler_checks_ctx ctx = det "borrowck" Borrowck.run_ctx ctx
let all_ctx ctx = bugs_ctx ctx @ compiler_checks_ctx ctx
