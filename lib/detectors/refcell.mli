(** RefCell double-borrow detector: [borrow_mut] while another
    borrow guard of the same cell is alive panics at runtime — the
    root cause of four of the paper's non-blocking bugs. *)

open Ir

val run_body : Mir.body -> Report.finding list
val run_ctx : Analysis.Cache.t -> Report.finding list
