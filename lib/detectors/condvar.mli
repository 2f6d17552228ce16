(** Condvar misuse detector: a [Condvar::wait] with no reachable
    [notify_one]/[notify_all] on the same condition variable (8 of the
    paper's 10 Condvar blocking bugs). *)

open Ir

type site = { root : string; fn : string; span : Support.Span.t }

val condvar_sites_with :
  (Mir.body -> Analysis.Alias.resolution) -> Mir.body list -> site list * site list
(** [(waits, notifies)] of the given bodies, ungated. *)

val run_ctx : Analysis.Cache.t -> Report.finding list
