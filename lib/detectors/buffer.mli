(** Buffer-overflow detector (heuristic, Medium confidence): unchecked
    accesses ([get_unchecked], pointer-offset dereference,
    [copy_nonoverlapping]) in bodies that never compare anything
    against the container's length — the shape of 17 of the paper's 21
    buffer bugs, whose fixes add exactly such a check. *)

open Ir

val run_body : Mir.body -> Report.finding list
val run_ctx : Analysis.Cache.t -> Report.finding list
