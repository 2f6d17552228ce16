(** Use-after-free detector — the paper's §7.1 static checker.

    Maintains the alive/dead state of every local by tracking
    [StorageLive]/[StorageDead]/[Drop] (via {!Analysis.Storage}), runs a
    may-points-to analysis per body, and reports any dereference of a
    pointer/reference whose pointee may be dead. Interprocedural
    coverage comes from deref-parameter summaries computed to fixpoint
    over the call graph. *)

open Ir

type summaries
(** Per-function sets of parameter indices that the function
    (transitively) dereferences. *)

val compute_summaries :
  ?assume_extern_derefs:bool -> Analysis.Cache.t -> summaries
(** Fixpoint deref-parameter summaries for a whole program, by the
    legacy whole-program replay: the reference the engine is tested
    against.
    [assume_extern_derefs] (default [true]) is the paper's
    approximation that FFI callees dereference their raw-pointer
    arguments; it is the source of the evaluation's three false
    positives and also what catches the Fig. 7 CVE. *)

val check_body :
  ?assume_extern_derefs:bool ->
  Analysis.Cache.t ->
  summaries ->
  Mir.body ->
  Report.finding list
(** Run the detector on one body with precomputed summaries, ungated:
    [run_ctx] applies {!Gate.uaf} first. *)

val run_ctx :
  ?assume_extern_derefs:bool -> Analysis.Cache.t -> Report.finding list
(** Run the detector through a shared analysis context, on summaries
    from the SCC-scheduled engine ({!Analysis.Summary.compute}). It
    converges to the same least fixpoint as {!compute_summaries}, so
    [check_body] over those summaries gives the same findings. *)
