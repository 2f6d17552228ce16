(** Process-wide metrics registry with per-domain shards.

    Shape: a global (mutex-guarded) list of families and a
    {!Per_domain} registry of shards, one per domain that ever
    recorded. A shard is only ever written by its owning domain, so
    recording takes no lock; reads merge every shard. Reads that race
    a recording domain may see a value one update stale — the
    deterministic paths (tests, post-join exports) read after the
    workers joined, which [Domain.join] orders properly. *)

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* ------------------------------------------------------------------ *)
(* Families                                                            *)
(* ------------------------------------------------------------------ *)

type kind =
  | Counter
  | Gauge
  | Histogram of float array  (** upper bounds; +Inf implicit *)

type family = {
  id : int;
  name : string;
  help : string;
  kind : kind;
  label_names : string list;
}

type counter = family
type gauge = family
type histogram = family

(* default duration ladder, milliseconds *)
let default_buckets =
  [| 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000. |]

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

type hist_cell = {
  hc_counts : int array;  (** one slot per bound, plus +Inf last *)
  mutable hc_sum : float;
  mutable hc_count : int;
}

type cell = Scalar of float ref | Hist of hist_cell

(* keyed by (family id, label values) *)
type shard = (int * string list, cell) Hashtbl.t

let registry_lock = Mutex.create ()
let families : family list ref = ref [] (* newest first *)
let next_family_id = ref 0

let shards : shard Per_domain.t =
  Per_domain.create (fun () -> Hashtbl.create 64)

let my_shard () = Per_domain.get shards

let register kind ?(labels = []) ~help name : family =
  Mutex.lock registry_lock;
  let f =
    match List.find_opt (fun f -> String.equal f.name name) !families with
    | Some f -> f (* same name: reuse (modules may share a family) *)
    | None ->
        let f =
          { id = !next_family_id; name; help; kind; label_names = labels }
        in
        incr next_family_id;
        families := f :: !families;
        f
  in
  Mutex.unlock registry_lock;
  f

let counter ?labels ~help name = register Counter ?labels ~help name
let gauge ?labels ~help name = register Gauge ?labels ~help name

let histogram ?buckets ?labels ~help name =
  let bounds =
    match buckets with
    | None -> default_buckets
    | Some l -> Array.of_list (List.sort_uniq compare l)
  in
  register (Histogram bounds) ?labels ~help name

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let scalar_cell (s : shard) key =
  match Hashtbl.find_opt s key with
  | Some (Scalar r) -> r
  | Some (Hist _) -> invalid_arg "Metrics: kind mismatch"
  | None ->
      let r = ref 0. in
      Hashtbl.replace s key (Scalar r);
      r

let incr ?(by = 1.) ?(labels = []) (c : counter) =
  if Atomic.get enabled_flag then begin
    let r = scalar_cell (my_shard ()) (c.id, labels) in
    r := !r +. by
  end

let set ?(labels = []) (g : gauge) v =
  if Atomic.get enabled_flag then
    let r = scalar_cell (my_shard ()) (g.id, labels) in
    r := v

let observe ?(labels = []) (h : histogram) v =
  if Atomic.get enabled_flag then begin
    let bounds =
      match h.kind with Histogram b -> b | _ -> invalid_arg "Metrics.observe"
    in
    let s = my_shard () in
    let key = (h.id, labels) in
    let hc =
      match Hashtbl.find_opt s key with
      | Some (Hist hc) -> hc
      | Some (Scalar _) -> invalid_arg "Metrics: kind mismatch"
      | None ->
          let hc =
            {
              hc_counts = Array.make (Array.length bounds + 1) 0;
              hc_sum = 0.;
              hc_count = 0;
            }
          in
          Hashtbl.replace s key (Hist hc);
          hc
    in
    let n = Array.length bounds in
    let i = ref 0 in
    while !i < n && v > bounds.(!i) do
      i := !i + 1
    done;
    hc.hc_counts.(!i) <- hc.hc_counts.(!i) + 1;
    hc.hc_sum <- hc.hc_sum +. v;
    hc.hc_count <- hc.hc_count + 1
  end

(* ------------------------------------------------------------------ *)
(* Merged reads                                                        *)
(* ------------------------------------------------------------------ *)

let snapshot () : family list * shard list =
  Mutex.lock registry_lock;
  let fams = !families in
  Mutex.unlock registry_lock;
  ( List.sort (fun a b -> String.compare a.name b.name) fams,
    Per_domain.all shards )

type merged = MScalar of float | MHist of hist_cell

(* all label rows of one family, merged across [shs], sorted by label
   values *)
let merged_rows (f : family) (shs : shard list) :
    (string list * merged) list =
  let acc : (string list, merged) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (s : shard) ->
      Hashtbl.iter
        (fun (id, labels) cell ->
          if id = f.id then
            match (cell, Hashtbl.find_opt acc labels) with
            | Scalar r, None -> Hashtbl.replace acc labels (MScalar !r)
            | Scalar r, Some (MScalar v) ->
                Hashtbl.replace acc labels (MScalar (v +. !r))
            | Hist hc, None ->
                Hashtbl.replace acc labels
                  (MHist
                     {
                       hc_counts = Array.copy hc.hc_counts;
                       hc_sum = hc.hc_sum;
                       hc_count = hc.hc_count;
                     })
            | Hist hc, Some (MHist m) ->
                Array.iteri
                  (fun i c -> m.hc_counts.(i) <- m.hc_counts.(i) + c)
                  hc.hc_counts;
                Hashtbl.replace acc labels
                  (MHist
                     {
                       m with
                       hc_sum = m.hc_sum +. hc.hc_sum;
                       hc_count = m.hc_count + hc.hc_count;
                     })
            | _ -> () (* kind mismatch: impossible per family *))
        s)
    shs;
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let counter_value ?(labels = []) (c : counter) : float =
  let _, shs = snapshot () in
  List.fold_left
    (fun acc (s : shard) ->
      match Hashtbl.find_opt s (c.id, labels) with
      | Some (Scalar r) -> acc +. !r
      | _ -> acc)
    0. shs

let read_counter ?(labels = []) name : float =
  Mutex.lock registry_lock;
  let f = List.find_opt (fun f -> String.equal f.name name) !families in
  Mutex.unlock registry_lock;
  match f with Some f -> counter_value ~labels f | None -> 0.

let domain_counter_value ?(labels = []) (c : counter) : float =
  match Hashtbl.find_opt (my_shard ()) (c.id, labels) with
  | Some (Scalar r) -> !r
  | _ -> 0.

let reset () = List.iter Hashtbl.reset (Per_domain.all shards)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* no exponents, no trailing zeros: byte-identical across runs that
   recorded the same values *)
let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let label_block names values =
  if names = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map2
           (fun n v -> Printf.sprintf "%s=\"%s\"" n (escape_label v))
           names values)
    ^ "}"

(* label block with an extra le="..." dimension appended *)
let label_block_le names values le =
  "{"
  ^ String.concat ","
      (List.map2
         (fun n v -> Printf.sprintf "%s=\"%s\"" n (escape_label v))
         names values
      @ [ Printf.sprintf "le=\"%s\"" le ])
  ^ "}"

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram _ -> "histogram"

let export_prometheus () : string =
  let fams, shs = snapshot () in
  let b = Buffer.create 4096 in
  List.iter
    (fun (f : family) ->
      match merged_rows f shs with
      | [] -> ()
      | rows ->
          Printf.bprintf b "# HELP %s %s\n" f.name f.help;
          Printf.bprintf b "# TYPE %s %s\n" f.name (kind_name f.kind);
          List.iter
            (fun (values, m) ->
              match (m, f.kind) with
              | MScalar v, _ ->
                  Printf.bprintf b "%s%s %s\n" f.name
                    (label_block f.label_names values)
                    (fmt_num v)
              | MHist hc, Histogram bounds ->
                  let cum = ref 0 in
                  Array.iteri
                    (fun i bound ->
                      cum := !cum + hc.hc_counts.(i);
                      Printf.bprintf b "%s_bucket%s %d\n" f.name
                        (label_block_le f.label_names values (fmt_num bound))
                        !cum)
                    bounds;
                  Printf.bprintf b "%s_bucket%s %d\n" f.name
                    (label_block_le f.label_names values "+Inf")
                    hc.hc_count;
                  Printf.bprintf b "%s_sum%s %s\n" f.name
                    (label_block f.label_names values)
                    (fmt_num hc.hc_sum);
                  Printf.bprintf b "%s_count%s %d\n" f.name
                    (label_block f.label_names values)
                    hc.hc_count
              | MHist _, _ -> ())
            rows)
    fams;
  Buffer.contents b

let export_json () : string =
  let fams, shs = snapshot () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"metrics\":[";
  let first_f = ref true in
  List.iter
    (fun (f : family) ->
      match merged_rows f shs with
      | [] -> ()
      | rows ->
          if not !first_f then Buffer.add_string b ",";
          first_f := false;
          Printf.bprintf b
            "\n{\"name\":\"%s\",\"type\":\"%s\",\"help\":\"%s\",\"samples\":["
            (Sjson.escape f.name) (kind_name f.kind) (Sjson.escape f.help);
          List.iteri
            (fun i (values, m) ->
              if i > 0 then Buffer.add_string b ",";
              let labels =
                String.concat ","
                  (List.map2
                     (fun n v ->
                       Printf.sprintf "\"%s\":\"%s\"" (Sjson.escape n)
                         (Sjson.escape v))
                     f.label_names values)
              in
              match (m, f.kind) with
              | MScalar v, _ ->
                  Printf.bprintf b "{\"labels\":{%s},\"value\":%s}" labels
                    (fmt_num v)
              | MHist hc, Histogram bounds ->
                  let buckets =
                    let cum = ref 0 in
                    String.concat ","
                      (Array.to_list
                         (Array.mapi
                            (fun i bound ->
                              cum := !cum + hc.hc_counts.(i);
                              Printf.sprintf "{\"le\":%s,\"count\":%d}"
                                (fmt_num bound) !cum)
                            bounds)
                      @ [
                          Printf.sprintf "{\"le\":\"+Inf\",\"count\":%d}"
                            hc.hc_count;
                        ])
                  in
                  Printf.bprintf b
                    "{\"labels\":{%s},\"count\":%d,\"sum\":%s,\"buckets\":[%s]}"
                    labels hc.hc_count (fmt_num hc.hc_sum) buckets
              | MHist _, _ -> ())
            rows;
          Buffer.add_string b "]}")
    fams;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
