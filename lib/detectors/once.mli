(** [Once::call_once] recursion detector: the initialization closure
    (transitively) re-enters [call_once], which self-deadlocks. *)

open Ir

val call_once_roots_with : Analysis.Alias.resolution -> Mir.body -> string list
(** Lock paths of the [Once] receivers of the body's [call_once] calls,
    ungated. *)

val run_ctx : Analysis.Cache.t -> Report.finding list
