(** Chrome trace-event file checker: parse, validate, summarize.

    [rustudy --trace-out] writes trace-event JSON; this library (used
    by the [tracecat] executable and the observability tests) decodes
    such files with the strict {!Support.Sjson} codec and checks the
    structural invariants the exporter promises: every event is
    well-formed, durations are non-negative, and the complete ('X')
    spans of each thread nest properly (no partial overlap). *)

module J = Support.Sjson

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type event = {
  name : string;
  ph : string;
  pid : int;
  tid : int;
  ts : float;  (** microseconds *)
  dur : float;  (** microseconds; 0 for instants *)
}

(** Decode and structurally check one trace file. [Error msg] names the
    first violated invariant. *)
let parse_trace (text : string) : (event list, string) result =
  match J.parse_result text with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok (J.List items) ->
      let decode i item =
        let str k =
          match J.str_member k item with
          | Some s -> Ok s
          | None -> Error (Printf.sprintf "event %d: missing string %S" i k)
        in
        let num k =
          match J.member k item with
          | Some (J.Num f) -> Ok (Some f)
          | None -> Ok None
          | Some _ -> Error (Printf.sprintf "event %d: %S not a number" i k)
        in
        let ( let* ) = Result.bind in
        let* name = str "name" in
        let* ph = str "ph" in
        let* pid = num "pid" in
        let* tid = num "tid" in
        let* ts = num "ts" in
        let* dur = num "dur" in
        let req k = function
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "event %d: missing %S" i k)
        in
        let* pid = req "pid" pid in
        let* tid = req "tid" tid in
        let* ts = req "ts" ts in
        let* dur =
          match ph with
          | "X" -> req "dur" dur
          | "i" -> Ok 0.
          | _ -> Error (Printf.sprintf "event %d: unknown phase %S" i ph)
        in
        if ts < 0. then Error (Printf.sprintf "event %d: negative ts" i)
        else if dur < 0. then Error (Printf.sprintf "event %d: negative dur" i)
        else
          Ok
            {
              name;
              ph;
              pid = int_of_float pid;
              tid = int_of_float tid;
              ts;
              dur;
            }
      in
      let rec all i acc = function
        | [] -> Ok (List.rev acc)
        | item :: tl -> (
            match decode i item with
            | Ok e -> all (i + 1) (e :: acc) tl
            | Error _ as e -> e)
      in
      all 0 [] items
  | Ok _ -> Error "top-level value is not an array"

(* Exported timestamps carry microseconds with nanosecond decimals, so
   comparisons tolerate one representable ulp of slack. *)
let epsilon = 0.002

(** Check that the complete ('X') spans of each (pid, tid) nest
    properly: sorted by start time, every pair of spans is either
    disjoint or one contains the other. Partial overlap means the file
    cannot have come from balanced [with_span] nesting. *)
let check_nesting (events : event list) : (unit, string) result =
  let spans = List.filter (fun e -> e.ph = "X") events in
  let by_thread = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k = (e.pid, e.tid) in
      Hashtbl.replace by_thread k
        (e :: Option.value (Hashtbl.find_opt by_thread k) ~default:[]))
    spans;
  let check_thread (pid, tid) es =
    let es =
      List.sort
        (fun a b ->
          match compare a.ts b.ts with
          | 0 -> compare (b.ts +. b.dur) (a.ts +. a.dur) (* outermost first *)
          | c -> c)
        es
    in
    (* stack of enclosing span end-times *)
    let rec go stack = function
      | [] -> Ok ()
      | e :: tl -> (
          let e_end = e.ts +. e.dur in
          match stack with
          | top_end :: rest when e.ts >= top_end -. epsilon ->
              (* the top span ended before this one starts: pop *)
              go rest (e :: tl)
          | top_end :: _ when e_end > top_end +. epsilon ->
              Error
                (Printf.sprintf
                   "thread %d.%d: span %S [%.3f, %.3f] partially overlaps an \
                    enclosing span ending at %.3f"
                   pid tid e.name e.ts e_end top_end)
          | _ -> go (e_end :: stack) tl)
    in
    go [] es
  in
  Hashtbl.fold
    (fun k es acc ->
      match acc with Ok () -> check_thread k es | Error _ -> acc)
    by_thread (Ok ())

(** Full validation: parse + per-event checks + nesting. *)
let validate (text : string) : (event list, string) result =
  match parse_trace text with
  | Error _ as e -> e
  | Ok events -> (
      match check_nesting events with
      | Ok () -> Ok events
      | Error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

(** Top-[n] span names by total duration, rendered as a table (same
    shape as [Support.Trace.profile_table], but computed from the
    file). *)
let summary ?(n = 15) (events : event list) : string =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      if e.ph = "X" then
        let count, total =
          Option.value (Hashtbl.find_opt tbl e.name) ~default:(0, 0.)
        in
        Hashtbl.replace tbl e.name (count + 1, total +. e.dur))
    events;
  let rows = Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tbl [] in
  let rows =
    List.sort
      (fun (n1, _, t1) (n2, _, t2) ->
        match compare t2 t1 with 0 -> String.compare n1 n2 | c -> c)
      rows
  in
  let rows = List.filteri (fun i _ -> i < n) rows in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "  %-36s %8s %12s %12s\n" "span" "count" "total ms"
       "mean ms");
  List.iter
    (fun (name, count, total_us) ->
      Buffer.add_string b
        (Printf.sprintf "  %-36s %8d %12.3f %12.3f\n" name count
           (total_us /. 1e3)
           (total_us /. 1e3 /. float_of_int count)))
    rows;
  Buffer.contents b
