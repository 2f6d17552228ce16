(** Double-lock detector — the paper's §7.2 static checker.

    Identifies every lock acquisition, tracks which locals hold each
    guard (through [unwrap], moves, and [Condvar::wait] round-trips),
    delimits the guard's live range by its [Drop] (Rust's implicit
    unlock), and reports a second conflicting acquisition of the same
    lock — identified by its access path — while a guard is alive.
    Cross-function double locks are found through lock-acquisition
    summaries substituted at call sites. *)

open Ir

type lock_kind = KMutex | KRead | KWrite

val kind_name : lock_kind -> string

val conflict : lock_kind -> lock_kind -> bool
(** Two acquisitions of the same lock block each other — except
    RwLock read/read. *)

type acquisition = {
  acq_id : int;
  acq_root : Analysis.Alias.t;  (** identity of the lock *)
  acq_kind : lock_kind;
  acq_try : bool;  (** try_lock never blocks and is never reported *)
  acq_span : Support.Span.t;
}

type body_locks = {
  acquisitions : (int, acquisition) Hashtbl.t;
  holders : (Mir.local, int) Hashtbl.t;  (** local -> acquisition held *)
  acq_at_term : (int, int) Hashtbl.t;  (** block -> acquisition made there *)
}

val collect_locks : Analysis.Alias.resolution -> Mir.body -> body_locks
(** Lock acquisitions of one body plus the guard-holder map. *)

val held_analysis :
  Mir.body -> body_locks -> Analysis.Dataflow.IntSetFlow.result
(** Forward dataflow: the set of acquisition ids held at each block. *)

val locks_of :
  Analysis.Cache.t ->
  Mir.body ->
  body_locks * Analysis.Dataflow.IntSetFlow.result
(** Memoised [collect_locks] + [held_analysis] for one body, shared
    through the analysis context with the lock-order and atomicity
    detectors. *)

type summaries
(** Per-function lock-acquisition summaries. *)

val compute_summaries : Analysis.Cache.t -> summaries
(** The legacy whole-program replay fixpoint: the reference the engine
    is tested against. *)

val check_body :
  Analysis.Cache.t -> summaries -> Mir.body -> Report.finding list
(** One body, ungated: [run_ctx] applies {!Gate.double_lock} first. *)

val run_ctx :
  ?interprocedural:bool -> Analysis.Cache.t -> Report.finding list
(** Run the detector with a shared analysis context, on summaries from
    the SCC-scheduled engine ({!Analysis.Summary.compute}).
    [interprocedural:false] (default [true]) ablates the cross-function
    summaries. The engine's findings agree with [check_body] over
    {!compute_summaries} at convergence, and the differential suite
    holds them byte-identical over the corpus. *)

val order_pairs :
  Mir.body -> (Analysis.Alias.t * Analysis.Alias.t * Support.Span.t) list
(** (held lock, newly acquired lock) pairs, consumed by the
    conflicting-lock-order detector. *)

val order_pairs_ctx :
  Analysis.Cache.t ->
  Mir.body ->
  (Analysis.Alias.t * Analysis.Alias.t * Support.Span.t) list
(** [order_pairs] through the shared context's memoised lock maps. *)
