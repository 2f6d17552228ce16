(** A fixed-capacity ring buffer that overwrites its oldest element
    when full and counts every overwrite exactly.

    This is the one bounded event buffer of the support layer: the
    per-domain rings of {!Trace} and {!Flight} and the analysis
    server's access log all store their events in it, so "the most
    recent window, with exact loss accounting" means the same thing
    everywhere. A ring is not synchronised: it is written by one
    owner (a domain for the tracing rings, a mutex holder for the
    access log). *)

type 'a t

val create : int -> 'a t
(** An empty ring holding at most [n] elements. Raises
    [Invalid_argument] when [n < 1]. *)

val push : 'a t -> 'a -> unit
(** Append an element; when the ring is full the oldest element is
    overwritten and {!dropped} grows by one. *)

val to_list : 'a t -> 'a list
(** The buffered elements, oldest first. *)

val length : 'a t -> int

val dropped : 'a t -> int
(** Elements overwritten since creation or the last {!clear} /
    {!resize}. *)

val clear : 'a t -> unit
(** Empty the ring and zero {!dropped}; the capacity is kept. *)

val resize : 'a t -> int -> unit
(** Empty the ring, zero {!dropped}, and set a new capacity. Raises
    [Invalid_argument] when the capacity is below 1. *)
