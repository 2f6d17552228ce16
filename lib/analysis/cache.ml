(** Shared analysis context: a per-program memo table that computes
    each foundational analysis at most once and shares it across every
    detector — alias resolution, points-to and storage liveness per
    body, the call graph per program — plus an extension table for
    detector-private per-body structures (e.g. the double-lock
    detector's lock-acquisition maps).

    The context is safe to share across domains: lookups are guarded by
    a mutex, and computation happens outside the lock (two domains
    racing on a miss both compute; the first insertion wins, so every
    caller sees one canonical result).

    A process-wide program cache keyed by [(file, lowering config)]
    backs [load]/[load_ctx], so the study pipeline lowers each corpus
    entry exactly once no matter how many passes (classification,
    detector evaluation, report rendering, benches) visit it. *)

open Ir

(* ------------------------------------------------------------------ *)
(* Extension keys: typed slots for detector-private per-body memos      *)
(* ------------------------------------------------------------------ *)

module Ext = struct
  (* The classic universal-type embedding: each key owns a private
     exception constructor used as an injection. *)
  type 'a key = {
    uid : int;
    inject : 'a -> exn;
    project : exn -> 'a option;
  }

  let next_uid = Atomic.make 0

  let create (type a) () : a key =
    let module M = struct
      exception E of a
    end in
    {
      uid = Atomic.fetch_and_add next_uid 1;
      inject = (fun x -> M.E x);
      project = (function M.E x -> Some x | _ -> None);
    }
end

(* ------------------------------------------------------------------ *)
(* The context                                                         *)
(* ------------------------------------------------------------------ *)

type stats = {
  alias_memos : int;
  pointsto_memos : int;
  storage_memos : int;
  callgraph_memos : int;  (** 0 or 1 *)
  ext_memos : int;
  hits : int;  (** lookups answered from the memo tables *)
}

type t = {
  prog : Mir.program;
  slot_bodies : Mir.body array;
      (** the program's bodies in [Mir.body_list] order; slot [i] of
          each memo array below belongs to [slot_bodies.(i)]. Lookups
          index by [Mir.body_ix] — no string hashing on the hot path. *)
  lock : Mutex.t;
  alias_arr : Alias.resolution option array;
  pointsto_arr : Pointsto.t option array;
  storage_arr : Dataflow.IntSetFlow.result option array;
  sites_arr : int array;
      (** construct index ([Mir.sites]) per slot; -1 until computed.
          Read and filled without the lock: racing fills write the
          same int, and a one-word write cannot tear. *)
  mutable prog_sites : int;  (** union of every body's index; -1 until computed *)
  mutable cg : Callgraph.t option;
  ext_arr : (int, exn option array) Hashtbl.t;
      (** key uid -> per-body slot array *)
  ext_prog : (int, exn) Hashtbl.t;
      (** key uid -> program-level memo (e.g. the SCC condensation and
          per-client summary tables of [Analysis.Summary]) *)
  mutable hit_count : int;
  mutable ext_memo_count : int;
  mutable rev_diags : Support.Diag.t list;
      (** frontend recovery diagnostics plus analysis-incompleteness
          warnings; guarded by [lock] *)
}

let create ?(diags = []) (prog : Mir.program) : t =
  (* body_list assigns every body its dense [body_ix] *)
  let slot_bodies = Array.of_list (Mir.body_list prog) in
  let n = Array.length slot_bodies in
  {
    prog;
    slot_bodies;
    lock = Mutex.create ();
    alias_arr = Array.make n None;
    pointsto_arr = Array.make n None;
    storage_arr = Array.make n None;
    sites_arr = Array.make n (-1);
    prog_sites = -1;
    cg = None;
    ext_arr = Hashtbl.create 8;
    ext_prog = Hashtbl.create 8;
    hit_count = 0;
    ext_memo_count = 0;
    rev_diags = List.rev diags;
  }

let program t = t.prog

let emit_diag (t : t) d =
  Mutex.lock t.lock;
  t.rev_diags <- d :: t.rev_diags;
  Mutex.unlock t.lock

let diags (t : t) : Support.Diag.t list =
  Mutex.lock t.lock;
  let ds = List.rev t.rev_diags in
  Mutex.unlock t.lock;
  (* racing misses may have emitted the same incompleteness warning
     twice; sorting makes duplicates adjacent, then drop them *)
  let rec dedup = function
    | a :: (b :: _ as tl) when a = b -> dedup tl
    | a :: tl -> a :: dedup tl
    | [] -> []
  in
  dedup (Support.Diag.sort ds)


(* Memo traffic, attributed per analysis; the program cache below adds
   its own hit/miss/purge events. Both are no-ops unless the metrics
   registry is enabled. *)
let m_memo =
  Support.Metrics.counter ~labels:[ "analysis"; "outcome" ]
    ~help:"Analysis-context memo lookups by analysis and outcome \
           (hit|miss)."
    "rustudy_cache_memo_total"

let m_prog =
  Support.Metrics.counter ~labels:[ "event" ]
    ~help:"Process-wide program cache events (hit|miss|purge)."
    "rustudy_cache_program_events_total"

let note_memo what outcome =
  if Support.Metrics.enabled () then
    Support.Metrics.incr m_memo ~labels:[ what; outcome ]

let note_prog event =
  if Support.Metrics.enabled () then
    Support.Metrics.incr m_prog ~labels:[ event ]

(* Slot of a body in this context, or -1 for a body that does not
   belong to [t.prog] (then we just compute without memoizing rather
   than alias another body's slot). *)
let slot (t : t) (body : Mir.body) : int =
  let ix = body.Mir.body_ix in
  if ix >= 0 && ix < Array.length t.slot_bodies && t.slot_bodies.(ix) == body
  then ix
  else -1

(* find-or-compute with the lock released during [compute]: the compute
   functions may themselves re-enter the context (the call graph asks
   for per-body aliases), and the mutex is not reentrant. On a race the
   first insertion wins so all callers share one result. *)
let memo ~(what : string) (t : t) (arr : 'a option array) (body : Mir.body)
    (compute : unit -> 'a) : 'a =
  let traced_compute () =
    Support.Trace.with_span ~cat:"analysis"
      ~args:[ ("fn", body.Mir.fn_id) ]
      ("analysis." ^ what) compute
  in
  let ix = slot t body in
  if ix < 0 then begin
    note_memo what "miss";
    traced_compute ()
  end
  else begin
    Mutex.lock t.lock;
    match arr.(ix) with
    | Some v ->
        t.hit_count <- t.hit_count + 1;
        Mutex.unlock t.lock;
        note_memo what "hit";
        v
    | None ->
        Mutex.unlock t.lock;
        note_memo what "miss";
        let v = traced_compute () in
        Mutex.lock t.lock;
        let v =
          match arr.(ix) with
          | Some winner -> winner
          | None ->
              arr.(ix) <- Some v;
              v
        in
        Mutex.unlock t.lock;
        v
  end

let aliases (t : t) (body : Mir.body) : Alias.resolution =
  memo ~what:"alias" t t.alias_arr body (fun () -> Alias.resolve body)

let incomplete_warning t fn_id what =
  emit_diag t
    (Support.Diag.warning ~code:Support.Diag.Analysis_incomplete
       "%s analysis of %s stopped on exhausted fuel (budget %d); results \
        are an under-approximation"
       what fn_id (Support.Fuel.get ()))

(* the message deliberately names no budget: it must be byte-identical
   across runs with different remaining wall-clock (checkpoint/resume
   replays compare rendered diagnostics verbatim) *)
let deadline_warning t fn_id what =
  emit_diag t
    (Support.Diag.warning ~code:Support.Diag.Analysis_deadline
       "%s analysis of %s stopped on an expired wall-clock deadline; results \
        are an under-approximation"
       what fn_id)

let stopped_warning t fn_id what ~deadline =
  if deadline then deadline_warning t fn_id what
  else incomplete_warning t fn_id what

let pointsto (t : t) (body : Mir.body) : Pointsto.t =
  memo ~what:"pointsto" t t.pointsto_arr body (fun () ->
      let r = Pointsto.analyze body in
      if not (Pointsto.complete r) then
        stopped_warning t body.Mir.fn_id "points-to"
          ~deadline:(Pointsto.deadline_hit r);
      r)

let storage (t : t) (body : Mir.body) : Dataflow.IntSetFlow.result =
  memo ~what:"liveness" t t.storage_arr body (fun () ->
      let r = Storage.analyze body in
      if not r.Dataflow.IntSetFlow.converged then
        stopped_warning t body.Mir.fn_id "storage-liveness"
          ~deadline:r.Dataflow.IntSetFlow.deadline_hit;
      r)

let sites (t : t) (body : Mir.body) : int =
  let ix = slot t body in
  if ix < 0 then Mir.sites body
  else
    let s = t.sites_arr.(ix) in
    if s >= 0 then s
    else begin
      let s = Mir.sites body in
      t.sites_arr.(ix) <- s;
      s
    end

let program_sites (t : t) : int =
  if t.prog_sites >= 0 then t.prog_sites
  else begin
    let s = Array.fold_left (fun acc b -> acc lor sites t b) 0 t.slot_bodies in
    t.prog_sites <- s;
    s
  end

let callgraph (t : t) : Callgraph.t =
  Mutex.lock t.lock;
  match t.cg with
  | Some cg ->
      t.hit_count <- t.hit_count + 1;
      Mutex.unlock t.lock;
      note_memo "callgraph" "hit";
      cg
  | None ->
      Mutex.unlock t.lock;
      note_memo "callgraph" "miss";
      let cg =
        Support.Trace.with_span ~cat:"analysis" "analysis.callgraph"
          (fun () -> Callgraph.build ~aliases:(aliases t) t.prog)
      in
      Mutex.lock t.lock;
      let cg =
        match t.cg with
        | Some winner -> winner
        | None ->
            t.cg <- Some cg;
            cg
      in
      Mutex.unlock t.lock;
      cg

let ext (t : t) (key : 'a Ext.key) (body : Mir.body)
    ~(compute : Mir.body -> 'a) : 'a =
  let ix = slot t body in
  if ix < 0 then compute body
  else begin
    Mutex.lock t.lock;
    let arr =
      match Hashtbl.find_opt t.ext_arr key.Ext.uid with
      | Some a -> a
      | None ->
          let a = Array.make (Array.length t.slot_bodies) None in
          Hashtbl.replace t.ext_arr key.Ext.uid a;
          a
    in
    match Option.bind arr.(ix) key.Ext.project with
    | Some v ->
        t.hit_count <- t.hit_count + 1;
        Mutex.unlock t.lock;
        v
    | None ->
        Mutex.unlock t.lock;
        let v = compute body in
        Mutex.lock t.lock;
        let v =
          match Option.bind arr.(ix) key.Ext.project with
          | Some winner -> winner
          | None ->
              arr.(ix) <- Some (key.Ext.inject v);
              t.ext_memo_count <- t.ext_memo_count + 1;
              v
        in
        Mutex.unlock t.lock;
        v
  end

let ext_program (t : t) (key : 'a Ext.key) ~(compute : unit -> 'a) : 'a =
  Mutex.lock t.lock;
  let hit = Option.bind (Hashtbl.find_opt t.ext_prog key.Ext.uid) key.Ext.project in
  (match hit with
  | Some _ -> t.hit_count <- t.hit_count + 1
  | None -> ());
  Mutex.unlock t.lock;
  match hit with
  | Some v -> v
  | None ->
      (* computed outside the lock ([compute] re-enters the context);
         first insertion wins on a race *)
      let v = compute () in
      Mutex.lock t.lock;
      let v =
        match
          Option.bind (Hashtbl.find_opt t.ext_prog key.Ext.uid) key.Ext.project
        with
        | Some winner -> winner
        | None ->
            Hashtbl.replace t.ext_prog key.Ext.uid (key.Ext.inject v);
            t.ext_memo_count <- t.ext_memo_count + 1;
            v
      in
      Mutex.unlock t.lock;
      v

let stats (t : t) : stats =
  let filled arr =
    Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) 0 arr
  in
  Mutex.lock t.lock;
  let s =
    {
      alias_memos = filled t.alias_arr;
      pointsto_memos = filled t.pointsto_arr;
      storage_memos = filled t.storage_arr;
      callgraph_memos = (if t.cg = None then 0 else 1);
      ext_memos = t.ext_memo_count;
      hits = t.hit_count;
    }
  in
  Mutex.unlock t.lock;
  s

(* ------------------------------------------------------------------ *)
(* Program cache: one lowering per (file, config)                      *)
(* ------------------------------------------------------------------ *)

type cached_program = {
  cp_source : string;
  cp_ctx : t;  (** the program and its shared analysis context *)
}

let prog_tbl : (string * Lower.config, cached_program) Hashtbl.t =
  Hashtbl.create 64

let prog_lock = Mutex.create ()
let prog_hits = Atomic.make 0
let prog_misses = Atomic.make 0

let lookup_cached key source =
  Mutex.lock prog_lock;
  let c = Hashtbl.find_opt prog_tbl key in
  Mutex.unlock prog_lock;
  match c with
  | Some { cp_source; cp_ctx } when String.equal cp_source source ->
      Some cp_ctx
  | _ -> None

let install key source ctx =
  Mutex.lock prog_lock;
  let ctx =
    match Hashtbl.find_opt prog_tbl key with
    | Some { cp_source; cp_ctx } when String.equal cp_source source ->
        cp_ctx (* another domain installed it first *)
    | _ ->
        Hashtbl.replace prog_tbl key { cp_source = source; cp_ctx = ctx };
        ctx
  in
  Mutex.unlock prog_lock;
  ctx

let load_ctx ?(config = Lower.default_config) ~file source : t =
  let key = (file, config) in
  match lookup_cached key source with
  | Some ctx ->
      Atomic.incr prog_hits;
      note_prog "hit";
      (* a recovering load may have cached a malformed entry; the
         raising contract is that malformed input raises *)
      (match Support.Diag.errors_of (diags ctx) with
      | d :: _ -> raise (Support.Diag.Parse_error d)
      | [] -> ());
      ctx
  | None ->
      (* miss, or the same file name re-loaded with different source:
         lower outside the lock, then (re)install *)
      Atomic.incr prog_misses;
      note_prog "miss";
      let ctx = create (Lower.program_of_source ~config ~file source) in
      install key source ctx

let load_ctx_recovering ?(cache = true) ?(config = Lower.default_config) ~file
    source : (t, exn) result =
  let key = (file, config) in
  match (if cache then lookup_cached key source else None) with
  | Some ctx ->
      Atomic.incr prog_hits;
      note_prog "hit";
      Ok ctx
  | None -> (
      Atomic.incr prog_misses;
      note_prog "miss";
      match Lower.program_of_source_recovering ~config ~file source with
      | prog, diags ->
          let ctx = create ~diags prog in
          Ok (if cache then install key source ctx else ctx)
      | exception e ->
          (* a failure past the recovering frontend (or Stack_overflow
             etc.): surface it as a value, cache nothing *)
          Error e)

let load ?config ~file source : Mir.program =
  program (load_ctx ?config ~file source)

let clear_programs () =
  Mutex.lock prog_lock;
  let n = Hashtbl.length prog_tbl in
  Hashtbl.reset prog_tbl;
  Mutex.unlock prog_lock;
  if n > 0 && Support.Metrics.enabled () then
    Support.Metrics.incr m_prog ~labels:[ "purge" ] ~by:(float_of_int n)

let remove_program ?(config = Lower.default_config) ~file () =
  Mutex.lock prog_lock;
  let present = Hashtbl.mem prog_tbl (file, config) in
  Hashtbl.remove prog_tbl (file, config);
  Mutex.unlock prog_lock;
  if present then note_prog "purge"

let mem_program ?(config = Lower.default_config) ~file source =
  Option.is_some (lookup_cached (file, config) source)

let program_cache_counts () = (Atomic.get prog_hits, Atomic.get prog_misses)

(* ------------------------------------------------------------------ *)
(* Retired summary store (kept for the benchmark probe)                *)
(* ------------------------------------------------------------------ *)

let summary_cache_counts () = (0, 0)
let clear_summaries () = ()
