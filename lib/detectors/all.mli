(** The runtime-bug detectors as one ordered table, and the passes
    that run it over a shared {!Analysis.Cache.t}, so the per-body
    analyses (alias, points-to, liveness) and the call graph are
    computed at most once across every detector. To run detectors on a
    bare program, pass [Analysis.Cache.create program]. *)

val detectors : (string * (Analysis.Cache.t -> Report.finding list)) list
(** Name and [run_ctx] of each runtime detector, in findings order:
    memory safety (§5: uaf … buffer), blocking (§6.1: double_lock …
    once), non-blocking (§6.2: sync_misuse … refcell). Each name is
    the [detector] label of the span and counters below, and the one
    the detector passes to {!Gate.select}. *)

val bugs_ctx : Analysis.Cache.t -> Report.finding list
(** Every table detector, each wrapped in a [detector.<name>] trace
    span and counted in [rustudy_detector_runs_total] /
    [rustudy_detector_findings_total]. Findings are in table order; the
    detectors run in reverse table order. *)

val compiler_checks_ctx : Analysis.Cache.t -> Report.finding list
(** The borrow-checker model: what rustc rejects at compile time. *)

val all_ctx : Analysis.Cache.t -> Report.finding list
(** {!bugs_ctx} followed by {!compiler_checks_ctx} (which runs first). *)
