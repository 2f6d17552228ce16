(** Invalid-free detector (the paper's Fig. 6 Redox bug): a [Drop]
    implied by assignment through a raw pointer into memory no program
    path has initialized, and drops of never-initialized
    [mem::uninitialized] values. *)

open Ir

val run_body : Mir.body -> Report.finding list
val run_ctx : Analysis.Cache.t -> Report.finding list
