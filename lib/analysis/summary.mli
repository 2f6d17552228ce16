(** Summary-based compositional interprocedural analysis.

    Per-function summaries are computed bottom-up over the
    SCC-condensed function-call graph: callees before callers, fixpoint
    iteration only inside non-trivial SCCs, call sites instantiating
    finished callee summaries instead of re-entering bodies.
    Independent SCCs in the same topological wave can run in parallel
    across {!Support.Domain_pool}. Finished summaries are memoised per
    analysis context ({!Cache.ext_program}), so each function is
    summarised once per context; nothing is shared across contexts.

    The double-lock and use-after-free detectors plug in as
    {!client}s; their legacy whole-program fixpoint survives as
    {!Replay} mode for differential testing ([--interproc=replay]). *)

open Ir

(** {1 Mode selection} *)

type mode =
  | Summary  (** the compositional engine (default) *)
  | Replay  (** the legacy whole-program chaotic fixpoint *)

val mode_name : mode -> string
val mode_of_string : string -> mode option

val default_mode : unit -> mode
(** The process-wide default consulted when a detector's [?mode]
    argument is omitted. *)

val set_default_mode : mode -> unit
val resolve_mode : mode option -> mode

(** {1 SCC condensation} *)

module Scc : sig
  type t = {
    count : int;
    comp_of : int array;  (** node -> component id *)
    members : int array array;
        (** component id -> member nodes, ascending *)
    order : int array;
        (** component ids in reverse-topological (callee-first) order;
            deterministic for a given graph *)
    waves : int array array;
        (** [order] partitioned into levels: wave [w] components only
            have edges into waves [< w], so one wave's components are
            independent of each other *)
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

val compute : ?domains:int -> Cache.t -> 'a client -> (string, 'a) Hashtbl.t
(** Bottom-up summaries for every function of the program, keyed by
    [fn_id]; a function outside any cycle is computed exactly once.
    [?domains] (default {!engine_domains}) > 1 analyses independent
    SCCs of each wave on a domain pool. Deadline-aware: on expiry the
    remaining waves are skipped (absent summaries under-approximate)
    and a W0402 is attached to the context. *)

val engine_domains : unit -> int
(** Default [?domains] for {!compute} (default 1: the corpus sweep
    already parallelises across entries, and nesting pools there would
    oversubscribe). *)

val set_engine_domains : int -> unit

val note_instantiated : ?n:int -> string -> unit
(** Record [n] callee-summary instantiations for
    [rustudy_summary_instantiated_total{analysis}]; detectors call this
    where they substitute summaries at call sites. No-op while metrics
    are disabled. *)

(** {1 Built-in client: parameter escape/return effects} *)

type escape = {
  esc_returned : Dataflow.IntSet.t;
      (** parameter indices that may flow into the return value *)
  esc_escaped : Dataflow.IntSet.t;
      (** parameter indices that may outlive the call: stored into a
          static, handed to an extern (FFI) callee, or passed to a
          callee that lets them escape *)
}

val escape_equal : escape -> escape -> bool

val escape_summaries :
  ?domains:int -> Cache.t -> (string, escape) Hashtbl.t
(** Escape/return summaries for every function, computed through the
    engine and memoised in the context. *)

(** {1 Retired store; kept for the benchmark probe}

    Summaries are never stored across contexts and the engine digests
    nothing; the benchmark probe still times these. *)

val body_digest : Mir.body -> string
(** Content digest of one body (text, types, CFG and spans). No caller
    in the library. *)

val store_min_bodies : unit -> int
(** Always [max_int]: no program is large enough to be digested. *)
