(** Fixed-size domain pool: parallel [map] over a list with
    deterministic, input-ordered results, per-task fault isolation and
    a sequential fallback. *)

val default_domains : unit -> int
(** The pool size used when [?domains] is omitted
    ([Domain.recommended_domain_count ()] less the calling domain, at
    least 1). *)

val try_map :
  ?domains:int -> f:('a -> 'b) -> 'a list -> ('b, exn) result list
(** [try_map ?domains ~f items] runs [f] over [items] on up to
    [domains] domains, capturing each task's exception (if any) as
    [Error] in that task's input-ordered slot. A failing task never
    tears down the pool: the other items still run and the domains are
    always joined. [f] must be domain-safe. [domains <= 1] (or fewer
    than two items) runs sequentially in the calling domain with the
    same per-item isolation. Workers claim runs of consecutive items
    per scheduling step, about four runs per worker, so per-item
    contention on the shared index amortizes away for large inputs. *)

val map : ?domains:int -> f:('a -> 'b) -> 'a list -> 'b list
(** [map ?domains ~f items] is [List.map f items] computed by up to
    [domains] domains. Results come back in input order; if [f] raised,
    the first failing item's exception (in input order) is re-raised
    with its original backtrace ([Printexc.raise_with_backtrace]) after
    all domains have joined (the remaining items still ran). *)
