(** Site gates: the per-body necessary condition of every runtime
    detector, read off the {!Ir.Mir.sites} construct index.

    A body whose index fails a detector's gate cannot yield a finding
    from that detector, so the detector skips it before forcing alias,
    points-to, liveness, the held-lock dataflow or any program-level
    structure on its behalf. Each gate is a necessary condition read
    off the detector's own code; the index property test checks every
    one against the ungated per-body checks. *)

open Ir

(** {1 Gates} *)

val uaf : int -> bool
(** A borrow or address-of of a non-deref place (the only source of a
    local pointee) and a pointer- or reference-typed local. *)

val double_free : int -> bool
(** [ptr::read], or two or more [from_raw] calls. *)

val invalid_free : int -> bool
(** A [Drop] of a deref place and a heap site. *)

val invalid_free_uninit : int -> bool
(** [mem::uninitialized] (the drop-of-uninit half of invalid-free). *)

val uninit : int -> bool
(** A heap site or [mem::uninitialized]. *)

val uninit_set_len : int -> bool
(** [Vec::set_len] (the set_len half of uninit). *)

val null_deref : int -> bool
(** [ptr::null()] or a cast of the literal [0]. *)

val buffer : int -> bool
(** [get_unchecked], [ptr::offset] or [copy_nonoverlapping]. *)

val double_lock : int -> bool
(** A lock-acquiring call. *)

val lock_order : int -> bool
(** Two or more lock-acquiring calls. *)

val condvar : int -> bool
val channel : int -> bool
val once : int -> bool

val sync_misuse : int -> bool
(** A write through a deref place, [Cell::set] or [ptr::write]. *)

val atomicity : int -> bool
(** Both an atomic load and an atomic store. *)

val atomicity_sessions : int -> bool
(** Two or more lock-acquiring calls. *)

val refcell : int -> bool

(** {1 Applying a gate} *)

val select :
  Analysis.Cache.t -> string -> gate:(int -> bool) -> Mir.body list
(** [select ctx detector ~gate] is the program's bodies (in
    [Mir.body_list] order) whose index passes [gate]. Adds the visited
    and skipped counts to
    [rustudy_detector_bodies_total{detector,outcome}] once per call;
    with metrics disabled that costs one [Metrics.enabled ()]. *)
