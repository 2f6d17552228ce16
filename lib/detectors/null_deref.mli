(** Null-pointer-dereference detector: forward may-null dataflow from
    [ptr::null]/[null_mut] through copies to dereference sites, with
    [is_null]-guarded pointers suppressed (the studied fixes add
    exactly that check). *)

open Ir

val run_body : Mir.body -> Report.finding list
val run_ctx : Analysis.Cache.t -> Report.finding list
