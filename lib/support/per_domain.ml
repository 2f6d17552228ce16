(** Lazily created per-domain shards with a registry; see
    per_domain.mli. *)

type 'a t = {
  key : 'a Domain.DLS.key;
  lock : Mutex.t;
  shards : (int * 'a) list ref;  (** newest first *)
}

let create make =
  let lock = Mutex.create () and shards = ref [] and next_id = Atomic.make 0 in
  let key =
    Domain.DLS.new_key (fun () ->
        let id = Atomic.fetch_and_add next_id 1 in
        let s = make () in
        Mutex.protect lock (fun () -> shards := (id, s) :: !shards);
        s)
  in
  { key; lock; shards }

let get t = Domain.DLS.get t.key

let snapshot t =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Mutex.protect t.lock (fun () -> !(t.shards)))

let all t = List.map snd (snapshot t)
