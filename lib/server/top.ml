(** [rustudy top]: live daemon introspection over the admin ops.

    Polls [stats] + [metrics] (both answered from the accept path, so
    they work even when every worker is busy), derives window rates
    and latency percentiles, and renders either a refreshing terminal
    screen or one JSON object per poll ([--json]). *)

module Sjson = Support.Sjson

let num n = Sjson.Num n

(* ---------------- histogram decoding --------------------------------- *)

(* One decoded histogram: total count, total sum (ms), and cumulative
   bucket counts keyed by upper bound ([infinity] for "+Inf"). *)
type hist = { h_count : int; h_sum : float; h_buckets : (float * int) list }

let empty_hist = { h_count = 0; h_sum = 0.0; h_buckets = [] }

let decode_bucket (b : Sjson.t) : (float * int) option =
  let le =
    match Sjson.member "le" b with
    | Some (Sjson.Num f) -> Some f
    | Some (Sjson.Str "+Inf") -> Some infinity
    | _ -> None
  in
  match (le, Sjson.int_member "count" b) with
  | Some le, Some c -> Some (le, c)
  | _ -> None

let decode_hist (sample : Sjson.t) : hist =
  let buckets =
    match Sjson.member "buckets" sample with
    | Some (Sjson.List l) -> List.filter_map decode_bucket l
    | _ -> []
  in
  {
    h_count = Option.value ~default:0 (Sjson.int_member "count" sample);
    h_sum =
      (match Sjson.member "sum" sample with
      | Some (Sjson.Num f) -> f
      | _ -> 0.0);
    h_buckets = buckets;
  }

(* Histograms of one family share bucket bounds, so merging and
   differencing are positional on the bound. *)
let merge_hists (a : hist) (b : hist) : hist =
  let buckets =
    if a.h_buckets = [] then b.h_buckets
    else if b.h_buckets = [] then a.h_buckets
    else
      List.map
        (fun (le, c) ->
          match List.assoc_opt le b.h_buckets with
          | Some c' -> (le, c + c')
          | None -> (le, c))
        a.h_buckets
  in
  {
    h_count = a.h_count + b.h_count;
    h_sum = a.h_sum +. b.h_sum;
    h_buckets = buckets;
  }

let sub_hist (now : hist) (prev : hist) : hist =
  let buckets =
    List.map
      (fun (le, c) ->
        match List.assoc_opt le prev.h_buckets with
        | Some c' -> (le, max 0 (c - c'))
        | None -> (le, c))
      now.h_buckets
  in
  {
    h_count = max 0 (now.h_count - prev.h_count);
    h_sum = Float.max 0.0 (now.h_sum -. prev.h_sum);
    h_buckets = buckets;
  }

(* Percentile by linear interpolation inside the owning bucket; the
   open "+Inf" bucket degrades to the last finite bound (there is
   nothing better to interpolate against). *)
let percentile (h : hist) (q : float) : float option =
  if h.h_count <= 0 || h.h_buckets = [] then None
  else begin
    let target = q *. float_of_int h.h_count in
    let rec go lo_bound lo_cum = function
      | [] -> None
      | (le, cum) :: rest ->
          if float_of_int cum >= target then
            if le = infinity then Some lo_bound
            else begin
              let span = float_of_int (cum - lo_cum) in
              let frac =
                if span <= 0.0 then 1.0
                else (target -. float_of_int lo_cum) /. span
              in
              Some (lo_bound +. (frac *. (le -. lo_bound)))
            end
          else go le cum rest
    in
    go 0.0 0 h.h_buckets
  end

(* ---------------- metrics-family access ------------------------------ *)

let find_family (fams : Sjson.t list) (name : string) : Sjson.t option =
  List.find_opt (fun f -> Sjson.str_member "name" f = Some name) fams

let family_samples (f : Sjson.t) : Sjson.t list =
  match Sjson.member "samples" f with Some (Sjson.List l) -> l | _ -> []

let sample_label (s : Sjson.t) (key : string) : string =
  match Sjson.member "labels" s with
  | Some labels -> Option.value ~default:"" (Sjson.str_member key labels)
  | None -> ""

(* The request-latency histogram merged across cmd labels. *)
let request_hist (fams : Sjson.t list) : hist =
  match find_family fams "rustudy_server_request_ms" with
  | None -> empty_hist
  | Some f ->
      List.fold_left
        (fun acc s -> merge_hists acc (decode_hist s))
        empty_hist (family_samples f)

(* Per-span (name, count, total ms), heaviest first. *)
let span_aggs (fams : Sjson.t list) : (string * int * float) list =
  match find_family fams "rustudy_span_duration_ms" with
  | None -> []
  | Some f ->
      List.sort
        (fun (_, _, a) (_, _, b) -> compare b a)
        (List.map
           (fun s ->
             let h = decode_hist s in
             (sample_label s "span", h.h_count, h.h_sum))
           (family_samples f))

(* ---------------- polling -------------------------------------------- *)

type poll = {
  p_stats : Sjson.t;  (** the "stats" object of the stats response *)
  p_fams : Sjson.t list;  (** metrics families ([] when disabled) *)
  p_metrics_enabled : bool;
  p_at : float;  (** client wall clock, seconds *)
}

let stat (p : poll) name = Option.value ~default:0 (Sjson.int_member name p.p_stats)
let stat_str (p : poll) name = Option.value ~default:"?" (Sjson.str_member name p.p_stats)

let do_poll (c : Client.t) ~seq : poll =
  let sresp = Client.rpc c (Client.stats ~id:seq) in
  let mresp = Client.rpc c (Client.metrics ~id:(seq + 1) ()) in
  let p_stats =
    Option.value ~default:(Sjson.Obj []) (Sjson.member "stats" sresp)
  in
  let p_fams =
    match Sjson.member "metrics" mresp with Some (Sjson.List l) -> l | _ -> []
  in
  let p_metrics_enabled =
    Option.value ~default:false (Sjson.bool_member "metrics_enabled" mresp)
  in
  { p_stats; p_fams; p_metrics_enabled; p_at = Unix.gettimeofday () }

(* ---------------- one rendered sample -------------------------------- *)

(* Everything a poll (optionally against the previous one) yields:
   window rates when there is a previous poll, since-start rates
   otherwise. *)
type sample = {
  qps : float;
  shed_rate : float;
  retry_rate : float;
  timeout_rate : float;
  p50_ms : float option;
  p99_ms : float option;
  spans : (string * int * float) list;
}

let rates ~(prev : poll option) (now : poll) : sample =
  let window_s, d =
    match prev with
    | Some p when now.p_at > p.p_at ->
        (now.p_at -. p.p_at, fun name -> stat now name - stat p name)
    | _ ->
        let up = float_of_int (stat now "uptime_ms") /. 1000.0 in
        (Float.max up 1e-3, fun name -> stat now name)
  in
  let per_s name = float_of_int (d name) /. window_s in
  let lat_hist =
    let h = request_hist now.p_fams in
    match prev with
    | Some p -> sub_hist h (request_hist p.p_fams)
    | None -> h
  in
  (* the window can be empty (idle server): fall back to the
     since-start distribution so p50/p99 stay meaningful *)
  let lat_hist =
    if lat_hist.h_count > 0 then lat_hist else request_hist now.p_fams
  in
  {
    qps = per_s "requests";
    shed_rate = per_s "shed";
    retry_rate = per_s "retried";
    timeout_rate = per_s "timeouts";
    p50_ms = percentile lat_hist 0.50;
    p99_ms = percentile lat_hist 0.99;
    spans = span_aggs now.p_fams;
  }

(* ---------------- output --------------------------------------------- *)

let json_of_sample (now : poll) (s : sample) : Sjson.t =
  let opt_ms = function None -> Sjson.Null | Some v -> num v in
  let spans =
    Sjson.List
      (List.map
         (fun (name, count, total_ms) ->
           Sjson.Obj
             [
               ("span", Sjson.Str name);
               ("count", num (float_of_int count));
               ("total_ms", num total_ms);
             ])
         s.spans)
  in
  Sjson.Obj
    [
      ("state", Sjson.Str (stat_str now "state"));
      ("uptime_ms", num (float_of_int (stat now "uptime_ms")));
      ("qps", num s.qps);
      ("p50_ms", opt_ms s.p50_ms);
      ("p99_ms", opt_ms s.p99_ms);
      ("shed_per_s", num s.shed_rate);
      ("retried_per_s", num s.retry_rate);
      ("timeouts_per_s", num s.timeout_rate);
      ("metrics_enabled", Sjson.Bool now.p_metrics_enabled);
      ("stats", now.p_stats);
      ("spans", spans);
    ]

let render_screen ~socket (now : poll) (s : sample) : string =
  let b = Buffer.create 1024 in
  let ms_str = function
    | None -> "-"
    | Some v -> Printf.sprintf "%.2f ms" v
  in
  Printf.bprintf b "rustudy top — %s — %s — up %.1fs\n" socket
    (stat_str now "state")
    (float_of_int (stat now "uptime_ms") /. 1000.0);
  Printf.bprintf b
    "requests %d (%.1f/s)   ok %d   errors %d   replayed %d   bad frames %d\n"
    (stat now "requests") s.qps (stat now "ok") (stat now "errors")
    (stat now "replayed") (stat now "bad_frames");
  Printf.bprintf b
    "shed %d (%.2f/s)   retried %d (%.2f/s)   timeouts %d (%.2f/s)\n"
    (stat now "shed") s.shed_rate (stat now "retried") s.retry_rate
    (stat now "timeouts") s.timeout_rate;
  Printf.bprintf b "queue %d/%d   inflight %d   workers %d/%d live\n"
    (stat now "queue_len") (stat now "queue_cap") (stat now "inflight")
    (stat now "workers_live") (stat now "workers");
  Printf.bprintf b "latency p50 %s   p99 %s\n" (ms_str s.p50_ms)
    (ms_str s.p99_ms);
  Printf.bprintf b "flight %d events (%d dropped)   access log dropped %d\n"
    (stat now "flight_events") (stat now "flight_dropped")
    (stat now "access_dropped");
  if not now.p_metrics_enabled then
    Buffer.add_string b
      "(metrics disabled: latency/spans need serve --metrics-out or --profile)\n"
  else begin
    match s.spans with
    | [] -> ()
    | spans ->
        Printf.bprintf b "top spans:\n";
        Printf.bprintf b "  %-34s %8s %12s %12s\n" "span" "count" "total ms"
          "mean ms";
        List.iteri
          (fun i (name, count, total_ms) ->
            if i < 8 then
              Printf.bprintf b "  %-34s %8d %12.3f %12.3f\n" name count
                total_ms
                (total_ms /. float_of_int (max 1 count)))
          spans
  end;
  Buffer.contents b

(* ---------------- driver --------------------------------------------- *)

let run ~socket ~interval_ms ~once ~json () : int =
  match Client.connect_retry ~attempts:20 ~delay:0.05 socket with
  | exception _ ->
      Printf.eprintf "rustudy top: cannot connect to %s\n%!" socket;
      3
  | c ->
      let interval_s = float_of_int (max 50 interval_ms) /. 1000.0 in
      let rec loop (prev : poll option) seq =
        match do_poll c ~seq with
        | exception (Client.Server_gone _ | Unix.Unix_error _ | Sys_error _)
          ->
            if once then begin
              Printf.eprintf "rustudy top: server went away\n%!";
              1
            end
            else begin
              (* a drained daemon is a normal way for a watch to end *)
              print_string "\nserver went away\n";
              0
            end
        | now ->
            let s = rates ~prev now in
            if json then print_string (Sjson.to_string (json_of_sample now s) ^ "\n")
            else begin
              if not once then print_string "\027[2J\027[H";
              print_string (render_screen ~socket now s)
            end;
            flush stdout;
            if once then 0
            else begin
              Thread.delay interval_s;
              loop (Some now) (seq + 2)
            end
      in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> loop None 1)
