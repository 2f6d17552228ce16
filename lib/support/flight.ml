(** Always-on flight recorder into per-domain ring buffers; see
    flight.mli. *)

let enabled_flag = Atomic.make true
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* The flight clock is Trace's clock: the monotonic deadline clock by
   default, the injected clock when a test installs one — so flight
   dumps are as deterministic as trace exports under injection. *)
let now_ns () = Trace.now_ns ()

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

type event = {
  f_ts : int64;  (** ns *)
  f_kind : string;
  f_fields : (string * string) list;
}

let ring_capacity = Atomic.make 8192

let shards : event Ring.t Per_domain.t =
  Per_domain.create (fun () -> Ring.create (Atomic.get ring_capacity))

let set_ring_capacity n =
  let n = max 16 n in
  Atomic.set ring_capacity n;
  (* the calling domain owns its shard, so resizing it in place is
     race-free; other domains' rings keep their capacity *)
  Ring.resize (Per_domain.get shards) n

let record ?(fields = []) kind =
  if Atomic.get enabled_flag then
    Ring.push (Per_domain.get shards)
      { f_ts = now_ns (); f_kind = kind; f_fields = fields }

let events_total () =
  List.fold_left (fun acc r -> acc + Ring.length r) 0 (Per_domain.all shards)

let dropped_total () =
  List.fold_left (fun acc r -> acc + Ring.dropped r) 0 (Per_domain.all shards)

let reset () = List.iter Ring.clear (Per_domain.all shards)

(* ------------------------------------------------------------------ *)
(* Dump                                                                *)
(* ------------------------------------------------------------------ *)

let event_line (dom : int) (ev : event) : string =
  let b = Buffer.create 96 in
  Printf.bprintf b "{\"ts\":%Ld,\"dom\":%d,\"kind\":\"%s\"" ev.f_ts dom
    (Sjson.escape ev.f_kind);
  List.iter
    (fun (k, v) ->
      Printf.bprintf b ",\"%s\":\"%s\"" (Sjson.escape k) (Sjson.escape v))
    ev.f_fields;
  Buffer.add_string b "}";
  Buffer.contents b

let dump_jsonl () : string =
  let shs = Per_domain.snapshot shards in
  let events =
    List.concat_map
      (fun (dom, r) -> List.map (fun ev -> (dom, ev)) (Ring.to_list r))
      shs
  in
  (* stable sort: ties on ts keep per-shard recording order *)
  let events =
    List.stable_sort
      (fun (da, (a : event)) (db, b) ->
        match Int64.compare a.f_ts b.f_ts with
        | 0 -> compare da db
        | c -> c)
      events
  in
  let n = List.length events in
  let dropped = List.fold_left (fun acc (_, r) -> acc + Ring.dropped r) 0 shs in
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"kind\":\"flight.meta\",\"version\":1,\"pid\":%d,\"events\":%d,\"dropped\":%d}\n"
    (Unix.getpid ()) n dropped;
  List.iter
    (fun (dom, ev) ->
      Buffer.add_string b (event_line dom ev);
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Black box                                                           *)
(* ------------------------------------------------------------------ *)

let blackbox : string option Atomic.t = Atomic.make None
let set_blackbox p = Atomic.set blackbox p
let blackbox_path () = Atomic.get blackbox

(* write-then-rename so a reader never sees a torn dump, even when the
   writer is a signal handler racing the main program *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let write_blackbox () =
  match Atomic.get blackbox with
  | None -> None
  | Some path -> (
      match write_file path (dump_jsonl ()) with
      | () -> Some path
      | exception _ -> None)

let crash ?(reason = "") () =
  if Atomic.get enabled_flag then
    record ~fields:(if reason = "" then [] else [ ("reason", reason) ]) "crash";
  ignore (write_blackbox ())

let install_sigquit () =
  match
    Sys.set_signal Sys.sigquit
      (Sys.Signal_handle
         (fun _ ->
           record "sigquit";
           ignore (write_blackbox ())))
  with
  | () -> ()
  | exception _ -> ()
