(** Summary-based compositional interprocedural analysis.

    Per-function summaries are computed bottom-up over the
    SCC-condensed function-call graph: callees before callers, fixpoint
    iteration only inside non-trivial SCCs, call sites instantiating
    finished callee summaries instead of re-entering bodies. One
    sequential schedule walks the components callees-first. Finished
    summaries are memoised per analysis context
    ({!Cache.ext_program}), so each function is summarised once per
    context; nothing is shared across contexts.

    The double-lock and use-after-free detectors plug in as
    {!client}s. Their legacy whole-program fixpoints
    ([compute_summaries]) stay as the replay reference the
    differential tests compare the engine against. *)

open Ir

(** {1 SCC condensation} *)

module Scc : sig
  type t = {
    count : int;
        (** components, numbered callees-first: every edge leaving a
            component lands in a smaller id, so ascending ids are a
            reverse-topological order; deterministic for a given graph *)
    comp_of : int array;  (** node -> component id *)
    members : int array array;
        (** component id -> member nodes, ascending *)
    has_cycle : bool array;
        (** component id -> more than one member, or a self-loop *)
  }

  val condense : n:int -> succs:int array array -> t
  (** Iterative Tarjan over nodes [0..n-1] (safe on 10k-deep chains). *)
end

val condensation : Cache.t -> Scc.t
(** The program's function-call dependency graph condensed; nodes are
    [Mir.body_ix] indices. Memoised in the context. *)

(** {1 Clients} *)

type 'a client = {
  name : string;  (** metrics label *)
  equal : 'a -> 'a -> bool;  (** SCC fixpoint convergence test *)
  compute : lookup:(string -> 'a option) -> Mir.body -> 'a;
      (** recompute one function's summary; [lookup] serves finished
          callee summaries ([None] means "not yet computed", which the
          client must read as the bottom summary) *)
}

val compute : Cache.t -> 'a client -> (string, 'a) Hashtbl.t
(** Bottom-up summaries for every function of the program, keyed by
    [fn_id]; a function outside any cycle is computed exactly once.
    Components run in ascending id order, the whole run inside one
    [summary.compute] trace span. Deadline-aware: the deadline is
    polled every 16 components, and on expiry the remaining components
    are skipped (absent summaries under-approximate) and a W0402 is
    attached to the context. *)

val note_instantiated : string -> unit
(** Record one callee-summary instantiation for
    [rustudy_summary_instantiated_total{analysis}]; detectors call this
    where they substitute summaries at call sites. No-op while metrics
    are disabled. *)

(** {1 Retired store; kept for the benchmark probe}

    Summaries are never stored across contexts and the engine digests
    nothing; the benchmark probe still times these. *)

val body_digest : Mir.body -> string
(** Content digest of one body (text, types, CFG and spans). No caller
    in the library. *)

val store_min_bodies : unit -> int
(** Always [max_int]: no program is large enough to be digested. *)
