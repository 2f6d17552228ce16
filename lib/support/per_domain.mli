(** Per-domain shards with a process-wide registry: the shape shared
    by {!Trace}, {!Flight} and {!Metrics}.

    Each domain gets its own shard, created on its first {!get} and
    numbered in creation order. Only the owning domain writes its
    shard, so recording takes no lock; readers take a {!snapshot} of
    every shard ever created (shards outlive their domains, so nothing
    recorded by a joined worker is lost). A read racing a recording
    domain may see a value one update stale. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** A registry whose shards are built by the given function, in the
    domain that first asks for one. *)

val get : 'a t -> 'a
(** The calling domain's shard. *)

val snapshot : 'a t -> (int * 'a) list
(** Every shard with its id (0, 1, ... in creation order), sorted by
    id. *)

val all : 'a t -> 'a list
(** {!snapshot} without the ids. *)
