(** The benchmark's own span recorder.

    Spans are recorded around the benchmark's calls into the program's
    public functions, never from inside the program. Each span has a
    name, start and end (monotonic ns), its parent span and the entry
    or request id it belongs to. Every span adds its self time (its
    duration minus its direct children's) and its duration to per-name
    totals as it ends. The first [keep] spans are also kept in memory
    and written out once, when the run ends; later spans count in the
    totals only, so a long traced run stays small. With recording off,
    {!span} is a plain call. *)

type t = {
  name : string;
  start : int;
  mutable stop : int;
  parent : int;  (** index of the enclosing kept span, -1 for a root *)
  id : string;  (** entry / file / request the span worked on *)
}

type total = { mutable self_ns : int; mutable whole_ns : int; mutable calls : int }

(* an open span: its kept index (or -1) and its children's time so far *)
type frame = { ix : int; mutable child_ns : int }

let keep = 200_000
let on = ref false
let spans : t array ref = ref [||]
let n = ref 0
let dropped = ref 0
let stack : frame list ref = ref []
let totals : (string, total) Hashtbl.t = Hashtbl.create 64
let now () = Int64.to_int (Rustudy.Deadline.now_ns ())

let push s =
  if !n = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !n)) s in
    Array.blit !spans 0 bigger 0 !n;
    spans := bigger
  end;
  !spans.(!n) <- s;
  incr n

let span ?(id = "") name f =
  if not !on then f ()
  else begin
    let start = now () in
    let ix =
      if !n < keep then begin
        let parent = match !stack with p :: _ -> p.ix | [] -> -1 in
        push { name; start; stop = start; parent; id };
        !n - 1
      end
      else begin
        incr dropped;
        -1
      end
    in
    let fr = { ix; child_ns = 0 } in
    stack := fr :: !stack;
    let finish () =
      let stop = now () in
      let d = stop - start in
      stack := List.tl !stack;
      (match !stack with p :: _ -> p.child_ns <- p.child_ns + d | [] -> ());
      if ix >= 0 then !spans.(ix).stop <- stop;
      let t =
        match Hashtbl.find_opt totals name with
        | Some t -> t
        | None ->
            let t = { self_ns = 0; whole_ns = 0; calls = 0 } in
            Hashtbl.replace totals name t;
            t
      in
      t.self_ns <- t.self_ns + d - fr.child_ns;
      t.whole_ns <- t.whole_ns + d;
      t.calls <- t.calls + 1
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let self_ns name =
  match Hashtbl.find_opt totals name with Some t -> float_of_int t.self_ns | None -> 0.

let whole_ns name =
  match Hashtbl.find_opt totals name with Some t -> float_of_int t.whole_ns | None -> 0.

(** Write every kept span as one JSON line. *)
let write path =
  let oc = open_out_bin path in
  let q x = Server.Sjson.to_string (Server.Sjson.Str x) in
  for i = 0 to !n - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "{\"i\":%d,\"name\":%s,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"id\":%s}\n"
      i (q s.name) s.start s.stop s.parent (q s.id)
  done;
  close_out oc
