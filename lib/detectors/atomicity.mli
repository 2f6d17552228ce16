(** Atomicity-violation detectors.

    [run_ctx]: the Fig. 9 pattern — an atomic loaded, branched on, then
    stored with no CAS/fetch-op (the fix is [compare_and_swap]).

    [run_with_sessions_ctx]: the Mutex analogue — a value read under one
    critical section and acted on under a later one (stale check). *)

open Ir

val run_body : Mir.body -> Report.finding list
val run_ctx : Analysis.Cache.t -> Report.finding list

val two_session : Mir.body -> Report.finding list
val run_with_sessions_ctx : Analysis.Cache.t -> Report.finding list
