(** Double-free detector: [ptr::read] ownership duplication (both the
    source and the copy get dropped) and repeated
    [Box::from_raw]/[Arc::from_raw] on one allocation. *)

open Ir

val run_body : Mir.body -> Report.finding list
val run_ctx : Analysis.Cache.t -> Report.finding list
