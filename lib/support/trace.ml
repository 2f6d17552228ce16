(** Span tracing into per-domain ring buffers; see trace.mli. *)

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let clock : (unit -> int64) option Atomic.t = Atomic.make None
let set_clock c = Atomic.set clock c

let now_ns () =
  match Atomic.get clock with Some f -> f () | None -> Deadline.now_ns ()

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char;  (** 'X' complete, 'i' instant *)
  ev_ts : int64;  (** ns *)
  ev_dur : int64;  (** ns; 0 for instants *)
  ev_args : (string * string) list;
}

type agg_cell = { mutable a_count : int; mutable a_total : int64 }

type shard = { ring : event Ring.t; aggs : (string, agg_cell) Hashtbl.t }

let ring_capacity = Atomic.make 32768
let set_ring_capacity n = Atomic.set ring_capacity (max 16 n)

let shards : shard Per_domain.t =
  Per_domain.create (fun () ->
      {
        ring = Ring.create (Atomic.get ring_capacity);
        aggs = Hashtbl.create 32;
      })

let my_shard () = Per_domain.get shards

let bump_agg (s : shard) name dur =
  match Hashtbl.find_opt s.aggs name with
  | Some c ->
      c.a_count <- c.a_count + 1;
      c.a_total <- Int64.add c.a_total dur
  | None -> Hashtbl.replace s.aggs name { a_count = 1; a_total = dur }

(* span durations also land in a metrics histogram when both layers
   are on: --profile style cost attribution from the metrics file *)
let span_hist =
  Metrics.histogram ~labels:[ "span" ]
    ~help:"Span wall time in milliseconds, by span name."
    "rustudy_span_duration_ms"

let close_span (s : shard) ~cat ~args name t0 =
  let t1 = now_ns () in
  let dur = Int64.max 0L (Int64.sub t1 t0) in
  Ring.push s.ring
    { ev_name = name; ev_cat = cat; ev_ph = 'X'; ev_ts = t0; ev_dur = dur;
      ev_args = args };
  bump_agg s name dur;
  Metrics.observe span_hist ~labels:[ name ] (Int64.to_float dur /. 1e6)

let with_span ?(cat = "app") ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let s = my_shard () in
    let t0 = now_ns () in
    match f () with
    | v ->
        close_span s ~cat ~args name t0;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close_span s ~cat
          ~args:(args @ [ ("error", Printexc.to_string e) ])
          name t0;
        Printexc.raise_with_backtrace e bt
  end

let instant ?(cat = "app") ?(args = []) name =
  if Atomic.get enabled_flag then
    let s = my_shard () in
    Ring.push s.ring
      { ev_name = name; ev_cat = cat; ev_ph = 'i'; ev_ts = now_ns ();
        ev_dur = 0L; ev_args = args }

let dropped_total () =
  List.fold_left
    (fun acc (s : shard) -> acc + Ring.dropped s.ring)
    0 (Per_domain.all shards)

let reset () =
  List.iter
    (fun (s : shard) ->
      Ring.clear s.ring;
      Hashtbl.reset s.aggs)
    (Per_domain.all shards)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* chrome trace timestamps are microseconds; keep nanosecond precision
   as three decimals so the injected-clock exports stay exact *)
let ts_us ns = Printf.sprintf "%Ld.%03Ld" (Int64.div ns 1000L) (Int64.rem ns 1000L)

let event_line (tid : int) (ev : event) : string =
  let args =
    match ev.ev_args with
    | [] -> ""
    | l ->
        ",\"args\":{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "\"%s\":\"%s\"" (Sjson.escape k)
                   (Sjson.escape v))
               l)
        ^ "}"
  in
  let dur =
    if ev.ev_ph = 'X' then Printf.sprintf ",\"dur\":%s" (ts_us ev.ev_dur)
    else ""
  in
  let scope = if ev.ev_ph = 'i' then ",\"s\":\"t\"" else "" in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%s%s%s%s}"
    (Sjson.escape ev.ev_name) (Sjson.escape ev.ev_cat) ev.ev_ph tid
    (ts_us ev.ev_ts) dur scope args

let export_chrome () : string =
  let shs =
    List.filter
      (fun (_, (s : shard)) ->
        Ring.length s.ring > 0 || Ring.dropped s.ring > 0)
      (Per_domain.snapshot shards)
  in
  let b = Buffer.create 8192 in
  Buffer.add_string b "[";
  let first = ref true in
  let emit line =
    if !first then Buffer.add_string b "\n" else Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b line
  in
  List.iter
    (fun (tid, (s : shard)) ->
      let events = Ring.to_list s.ring in
      (if Ring.dropped s.ring > 0 then
         let ts =
           match events with ev :: _ -> ev.ev_ts | [] -> 0L
         in
         emit
           (event_line tid
              {
                ev_name = "trace_dropped";
                ev_cat = "trace";
                ev_ph = 'i';
                ev_ts = ts;
                ev_dur = 0L;
                ev_args = [ ("dropped", string_of_int (Ring.dropped s.ring)) ];
              }));
      List.iter (fun ev -> emit (event_line tid ev)) events)
    shs;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Profile aggregates                                                  *)
(* ------------------------------------------------------------------ *)

type agg = { agg_name : string; agg_count : int; agg_total_ns : int64 }

let aggregates () : agg list =
  let acc : (string, agg_cell) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (s : shard) ->
      Hashtbl.iter
        (fun name (c : agg_cell) ->
          match Hashtbl.find_opt acc name with
          | Some m ->
              m.a_count <- m.a_count + c.a_count;
              m.a_total <- Int64.add m.a_total c.a_total
          | None ->
              Hashtbl.replace acc name
                { a_count = c.a_count; a_total = c.a_total })
        s.aggs)
    (Per_domain.all shards);
  List.sort
    (fun a b ->
      match Int64.compare b.agg_total_ns a.agg_total_ns with
      | 0 -> String.compare a.agg_name b.agg_name
      | c -> c)
    (Hashtbl.fold
       (fun name (c : agg_cell) l ->
         { agg_name = name; agg_count = c.a_count; agg_total_ns = c.a_total }
         :: l)
       acc [])

let profile_table () : string =
  match aggregates () with
  | [] -> "profile: no spans recorded (tracing disabled?)\n"
  | aggs ->
      let b = Buffer.create 1024 in
      Printf.bprintf b "== profile (wall time by span) ==\n";
      Printf.bprintf b "  %-34s %8s %12s %12s\n" "span" "count" "total ms"
        "mean ms";
      List.iter
        (fun a ->
          let total_ms = Int64.to_float a.agg_total_ns /. 1e6 in
          Printf.bprintf b "  %-34s %8d %12.3f %12.3f\n" a.agg_name
            a.agg_count total_ms
            (total_ms /. float_of_int (max 1 a.agg_count)))
        aggs;
      Buffer.contents b
