(** Summary-based compositional interprocedural analysis.

    The engine computes per-function summaries bottom-up over the
    SCC-condensed function-call graph (the design of "Fast
    Summary-based Whole-program Analysis to Identify Unsafe Memory
    Accesses in Rust"): callees are summarised before their callers, so
    a call site instantiates the callee's finished summary instead of
    re-entering its body, and fixpoint iteration only ever runs inside
    a non-trivial SCC (mutual recursion). Components are walked in one
    sequential callee-first order; parallelism belongs to the corpus
    drivers, one entry per domain.

    Detectors plug in as {!client}s: a summary recompute function and
    an equality for convergence. Summaries live only as long as the
    analysis context: the condensation and each client's finished
    table are memoised in {!Cache} program slots, so every function is
    summarised once per context and nothing is shared across
    contexts. *)

open Ir

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_computed =
  Support.Metrics.counter ~labels:[ "analysis" ]
    ~help:"Per-function summary recomputations (SCC-internal fixpoint \
           rounds recompute members once per round)."
    "rustudy_summary_computed_total"

let m_instantiated =
  Support.Metrics.counter ~labels:[ "analysis" ]
    ~help:"Callee summaries instantiated at call sites (during summary \
           computation and detection)."
    "rustudy_summary_instantiated_total"

let note_computed analysis =
  if Support.Metrics.enabled () then
    Support.Metrics.incr m_computed ~labels:[ analysis ]

let note_instantiated analysis =
  if Support.Metrics.enabled () then
    Support.Metrics.incr m_instantiated ~labels:[ analysis ]

(* ------------------------------------------------------------------ *)
(* SCC condensation (iterative Tarjan)                                 *)
(* ------------------------------------------------------------------ *)

module Scc = struct
  type t = {
    count : int;
        (** components, numbered callees-first: every edge leaving a
            component lands in a smaller id *)
    comp_of : int array;  (** node -> component id *)
    members : int array array;
        (** component id -> member nodes, ascending *)
    has_cycle : bool array;
        (** component id -> more than one member, or a self-loop *)
  }

  (* Tarjan with an explicit DFS stack: the synthetic scaling corpus
     has 10k-deep call chains, which would overflow the OCaml stack in
     the recursive formulation. Components are emitted callees-first
     (Tarjan's emission order is reverse-topological) and roots are
     scanned in ascending node order, so the result is deterministic
     for a given graph. *)
  let condense ~n ~(succs : int array array) : t =
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let tstack = Array.make n 0 in
    let tsp = ref 0 in
    let comp_of = Array.make n (-1) in
    let rev_members = ref [] in
    let ncomp = ref 0 in
    let next_index = ref 0 in
    (* DFS frames: node + next-successor cursor *)
    let frame_v = Array.make (max n 1) 0 in
    let frame_ci = Array.make (max n 1) 0 in
    for root = 0 to n - 1 do
      if index.(root) < 0 then begin
        let sp = ref 0 in
        frame_v.(0) <- root;
        frame_ci.(0) <- 0;
        index.(root) <- !next_index;
        lowlink.(root) <- !next_index;
        incr next_index;
        tstack.(!tsp) <- root;
        incr tsp;
        on_stack.(root) <- true;
        while !sp >= 0 do
          let v = frame_v.(!sp) in
          let ci = frame_ci.(!sp) in
          if ci < Array.length succs.(v) then begin
            frame_ci.(!sp) <- ci + 1;
            let w = succs.(v).(ci) in
            if index.(w) < 0 then begin
              incr sp;
              frame_v.(!sp) <- w;
              frame_ci.(!sp) <- 0;
              index.(w) <- !next_index;
              lowlink.(w) <- !next_index;
              incr next_index;
              tstack.(!tsp) <- w;
              incr tsp;
              on_stack.(w) <- true
            end
            else if on_stack.(w) && index.(w) < lowlink.(v) then
              lowlink.(v) <- index.(w)
          end
          else begin
            if lowlink.(v) = index.(v) then begin
              (* v is the root of a component: pop it off the Tarjan
                 stack *)
              let members = ref [] in
              let continue_ = ref true in
              while !continue_ do
                decr tsp;
                let w = tstack.(!tsp) in
                on_stack.(w) <- false;
                comp_of.(w) <- !ncomp;
                members := w :: !members;
                if w = v then continue_ := false
              done;
              let ms = Array.of_list !members in
              Array.sort compare ms;
              rev_members := ms :: !rev_members;
              incr ncomp
            end;
            decr sp;
            if !sp >= 0 then begin
              let parent = frame_v.(!sp) in
              if lowlink.(v) < lowlink.(parent) then
                lowlink.(parent) <- lowlink.(v)
            end
          end
        done
      end
    done;
    let count = !ncomp in
    let members = Array.of_list (List.rev !rev_members) in
    let has_cycle =
      Array.mapi
        (fun c ms ->
          Array.length ms > 1
          || Array.exists (fun w -> comp_of.(w) = c) succs.(ms.(0)))
        members
    in
    { count; comp_of; members; has_cycle }
end

(* ------------------------------------------------------------------ *)
(* The function-call dependency graph                                  *)
(* ------------------------------------------------------------------ *)

let callee_fn_id = function
  | Mir.Fn f -> Some f
  | Mir.Method (h, m) -> Some (h ^ "::" ^ m)
  | Mir.ClosureCall id -> Some id
  | Mir.Builtin _ -> None

(* Summary dependencies are exactly the call sites the detectors
   instantiate summaries at: direct calls whose callee names a body of
   this program. (Builtins have no summaries; spawn/once closure edges
   are invoked through builtins and stay out, matching the replay
   fixpoints.) *)
let dep_succs (bodies : Mir.body array) : int array array =
  let ix_of = Hashtbl.create (Array.length bodies * 2) in
  Array.iteri
    (fun i (b : Mir.body) -> Hashtbl.replace ix_of b.Mir.fn_id i)
    bodies;
  Array.map
    (fun (b : Mir.body) ->
      let seen = Hashtbl.create 4 in
      let acc = ref [] in
      Array.iter
        (fun (blk : Mir.block) ->
          match blk.Mir.term with
          | Mir.Call (c, _) -> (
              match callee_fn_id c.Mir.callee with
              | Some f -> (
                  match Hashtbl.find_opt ix_of f with
                  | Some j when not (Hashtbl.mem seen j) ->
                      Hashtbl.replace seen j ();
                      acc := j :: !acc
                  | _ -> ())
              | None -> ())
          | _ -> ())
        b.Mir.blocks;
      let a = Array.of_list !acc in
      Array.sort compare a;
      a)
    bodies

let scc_key : Scc.t Cache.Ext.key = Cache.Ext.create ()

let scc_of (ctx : Cache.t) (bodies : Mir.body array) : Scc.t =
  Cache.ext_program ctx scc_key ~compute:(fun () ->
      Scc.condense ~n:(Array.length bodies) ~succs:(dep_succs bodies))

let condensation (ctx : Cache.t) : Scc.t =
  scc_of ctx (Array.of_list (Mir.body_list (Cache.program ctx)))

(* ------------------------------------------------------------------ *)
(* Retired summary store (kept for the benchmark probe)                *)
(* ------------------------------------------------------------------ *)

(* Kept only for the benchmark probe (perfbench/probe), which times
   [body_digest] on programs with at least [store_min_bodies ()]
   bodies. Summaries are never stored across contexts, so no program
   is digested. *)

(* [Mir.body_to_string] covers names, types, and the full CFG but not
   source positions, so the spans are mixed in separately. *)
let body_digest (body : Mir.body) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Mir.body_to_string body);
  let span (s : Support.Span.t) =
    Buffer.add_char buf '\x00';
    Buffer.add_string buf (Support.Span.to_string s)
  in
  span body.Mir.body_span;
  List.iter
    (fun (i, n) ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_string buf n)
    body.Mir.captures;
  Array.iter (fun (li : Mir.local_info) -> span li.Mir.l_span) body.Mir.locals;
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter (fun (s : Mir.stmt) -> span s.Mir.s_span) blk.Mir.stmts;
      span blk.Mir.t_span;
      match blk.Mir.term with
      | Mir.Call (c, _) -> span c.Mir.call_span
      | _ -> ())
    body.Mir.blocks;
  Digest.string (Buffer.contents buf)

let store_min_bodies () = max_int

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

type 'a client = {
  name : string;  (** metrics label *)
  equal : 'a -> 'a -> bool;  (** SCC fixpoint convergence test *)
  compute : lookup:(string -> 'a option) -> Mir.body -> 'a;
      (** recompute one function's summary; [lookup] serves finished
          callee summaries ([None] means "not yet computed", which
          every client must read as the bottom summary) *)
}

(* Cap on chaotic-iteration rounds inside one SCC, mirroring the replay
   fixpoint's global round cap: a recursive cycle that keeps growing a
   summary (e.g. a lock path gaining a field per round) truncates
   instead of diverging. DAG portions never iterate at all. *)
let scc_round_cap = 8

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

let compute (ctx : Cache.t) (client : 'a client) : (string, 'a) Hashtbl.t =
  let bodies = Array.of_list (Mir.body_list (Cache.program ctx)) in
  let n = Array.length bodies in
  let tbl : (string, 'a) Hashtbl.t = Hashtbl.create (max 16 (2 * n)) in
  if n = 0 then tbl
  else begin
    let scc = scc_of ctx bodies in
    let lookup name =
      match Hashtbl.find_opt tbl name with
      | Some v ->
          note_instantiated client.name;
          Some v
      | None -> None
    in
    let compute_one ~lookup v =
      note_computed client.name;
      client.compute ~lookup bodies.(v)
    in
    (* One SCC, with every external callee's summary already in [tbl],
       published into [tbl] when finished: a trivial component is one
       recompute; a cycle iterates its members (ascending fn_id order)
       to a local fixpoint, the in-progress values visible through an
       overlay. *)
    let finish_scc c =
      let members = scc.Scc.members.(c) in
      if not scc.Scc.has_cycle.(c) then
        let v = members.(0) in
        Hashtbl.replace tbl bodies.(v).Mir.fn_id (compute_one ~lookup v)
      else begin
        let local : (string, 'a) Hashtbl.t =
          Hashtbl.create (Array.length members * 2)
        in
        let lookup' name =
          match Hashtbl.find_opt local name with
          | Some v ->
              note_instantiated client.name;
              Some v
          | None -> lookup name
        in
        let changed = ref true in
        let rounds = ref 0 in
        while !changed && !rounds < scc_round_cap do
          incr rounds;
          changed := false;
          Array.iter
            (fun v ->
              let fn = bodies.(v).Mir.fn_id in
              let nv = compute_one ~lookup:lookup' v in
              match Hashtbl.find_opt local fn with
              | Some old when client.equal old nv -> ()
              | _ ->
                  Hashtbl.replace local fn nv;
                  changed := true)
            members
        done;
        Array.iter
          (fun v ->
            let fn = bodies.(v).Mir.fn_id in
            Hashtbl.replace tbl fn (Hashtbl.find local fn))
          members
      end
    in
    let dl = Support.Deadline.token () in
    (* Components in id order: ids ascend callees-first, so every
       callee component is finished before its callers run. On expiry
       stop cleanly: callers of the unprocessed components read absent
       (bottom) summaries, an under-approximation like every other
       deadline-truncated analysis. *)
    let run () =
      let i = ref 0 in
      let stop = ref false in
      while (not !stop) && !i < scc.Scc.count do
        (* poll the deadline every few components, not every one *)
        if !i land 15 = 0 && Support.Deadline.expired dl then begin
          stop := true;
          Cache.deadline_warning ctx
            bodies.(scc.Scc.members.(!i).(0)).Mir.fn_id
            "interprocedural summary"
        end
        else begin
          finish_scc !i;
          incr i
        end
      done
    in
    (* the corpus is dominated by sub-ten-function programs, so span
       arguments are only built while tracing *)
    if Support.Trace.enabled () then
      Support.Trace.with_span ~cat:"summary"
        ~args:
          [
            ("analysis", client.name); ("sccs", string_of_int scc.Scc.count);
          ]
        "summary.compute" run
    else run ();
    tbl
  end
