(** Interior-mutability/Sync misuse detector (paper §7.2, Suggestion 8):
    a type with an (unsafe) [Sync] impl whose [&self] methods write
    through raw-pointer casts of [self] or mutate [Cell] fields without
    synchronization — the Fig. 4 [TestCell] pattern. *)

open Ir

val run_body : Mir.program -> Mir.body -> Report.finding list
(** One body, ungated, on freshly resolved aliases. *)

val run_ctx : Analysis.Cache.t -> Report.finding list
