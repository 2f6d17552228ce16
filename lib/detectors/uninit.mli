(** Uninitialized-read detector: reads through pointers into
    never-written allocations, reads of [mem::uninitialized] values,
    and the paper's dominant shape — [Vec::with_capacity] + [set_len]
    with no element writes, read later from safe code. *)

open Ir

val run_body : Mir.body -> Report.finding list

val set_len_reads : Mir.body -> Report.finding list
(** The set_len-without-writes pattern alone. *)

val uninit_drop : Mir.body -> Report.finding list
(** Drops of never-initialized [mem::uninitialized] values — an
    invalid-free shape, re-exported through {!Invalid_free.run_ctx}. *)

val run_ctx : Analysis.Cache.t -> Report.finding list
