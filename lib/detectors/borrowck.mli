(** Simplified borrow checker over MIR — the model of what the Rust
    compiler statically rejects (Fig. 3): use-after-move and
    simultaneous shared/mutable borrows. Findings represent compiler
    errors, not runtime bugs. *)

open Ir

val use_after_move : Mir.body -> Report.finding list
val borrow_conflicts : Mir.body -> Report.finding list
val run_body : Mir.body -> Report.finding list
val run_ctx : Analysis.Cache.t -> Report.finding list
