(** Conflicting-lock-order (ABBA deadlock) detector: builds a lock-order
    graph from "A held while acquiring B" pairs, with closure-capture
    substitution so two threads locking the same two objects in opposite
    orders are recognized, and reports any cycle. *)

open Ir

type edge = {
  from_root : string;
  to_root : string;
  in_fn : string;
  site : Support.Span.t;
}

val substituted_pairs : Mir.program -> edge list
val substituted_pairs_ctx : Analysis.Cache.t -> edge list
val find_cycle : edge list -> edge list
val run_ctx : Analysis.Cache.t -> Report.finding list
