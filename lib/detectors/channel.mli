(** Channel blocking detector: a blocking [recv] in a program whose
    sending half can never produce a message. *)

open Ir

type site = { root : string; fn : string; span : Support.Span.t }

val channel_sites_with :
  (Mir.body -> Analysis.Alias.resolution) -> Mir.body list -> site list * site list
(** [(recvs, sends)] of the given bodies, ungated. *)

val run_ctx : Analysis.Cache.t -> Report.finding list
