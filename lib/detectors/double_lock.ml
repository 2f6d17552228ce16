(** Double-lock detector (the paper's §7.2 static checker).

    Per the paper: "It first identifies all call sites of lock() and
    extracts two pieces of information: the lock being acquired and the
    variable being used to save the return value. As Rust implicitly
    releases the lock when the lifetime of this variable ends, our tool
    will record this release time. We then check whether or not the
    same lock is acquired before this time [...] including the case
    where two lock acquisitions are in different functions by
    performing inter-procedural analysis."

    Lock identity is the access path of the lock place (parameter
    field, static, or local creation site); the guard's live range is
    delimited by its [Drop]. RwLock read/read pairs do not conflict;
    everything else on the same lock does. [try_lock] acquisitions
    never block, so they are tracked but never reported. *)

open Ir
module IntSet = Analysis.Dataflow.IntSet
module Flow = Analysis.Dataflow.IntSetFlow

type lock_kind = KMutex | KRead | KWrite

let kind_name = function
  | KMutex -> "Mutex::lock"
  | KRead -> "RwLock::read"
  | KWrite -> "RwLock::write"

let conflict a b =
  match (a, b) with KRead, KRead -> false | _ -> true

type acquisition = {
  acq_id : int;
  acq_root : Analysis.Alias.t;
  acq_kind : lock_kind;
  acq_try : bool;
  acq_span : Support.Span.t;
}

type body_locks = {
  acquisitions : (int, acquisition) Hashtbl.t;
      (** keyed by a per-body id; gen'd at the lock call *)
  holders : (Mir.local, int) Hashtbl.t;  (** local -> acquisition id *)
  acq_at_term : (int, int) Hashtbl.t;  (** block id -> acquisition id *)
}

let lock_kind_of_builtin = function
  | Mir.MutexLock -> Some (KMutex, false)
  | Mir.MutexTryLock -> Some (KMutex, true)
  | Mir.RwRead -> Some (KRead, false)
  | Mir.RwTryRead -> Some (KRead, true)
  | Mir.RwWrite -> Some (KWrite, false)
  | Mir.RwTryWrite -> Some (KWrite, true)
  | _ -> None

let operand_local = function
  | (Mir.Copy p | Mir.Move p) when Mir.place_is_local p -> Some p.Mir.base
  | _ -> None

let operand_place = function
  | Mir.Copy p | Mir.Move p -> Some p
  | Mir.Const _ -> None

(** Identify lock acquisitions and track which locals hold each guard
    (through unwrap, moves and Condvar::wait round-trips). *)
let collect_locks_lazy (aliases : Analysis.Alias.resolution Lazy.t)
    (body : Mir.body) : body_locks =
  let t =
    {
      acquisitions = Hashtbl.create 8;
      holders = Hashtbl.create 8;
      acq_at_term = Hashtbl.create 8;
    }
  in
  let next_id = ref 0 in
  (* iterated so holder chains crossing block boundaries in any order
     are found *)
  let scan () =
    Array.iteri
      (fun bi (blk : Mir.block) ->
        List.iter
          (fun (s : Mir.stmt) ->
            match s.Mir.kind with
            | Mir.Assign (dest, Mir.Use op) when Mir.place_is_local dest -> (
                match operand_local op with
                | Some src -> (
                    match Hashtbl.find_opt t.holders src with
                    | Some a -> Hashtbl.replace t.holders dest.Mir.base a
                    | None -> ())
                | None -> ())
            | _ -> ())
          blk.Mir.stmts;
        match blk.Mir.term with
        | Mir.Call (c, _) -> (
            match c.Mir.callee with
            | Mir.Builtin b -> (
                match lock_kind_of_builtin b with
                | Some (kind, try_) ->
                    if not (Hashtbl.mem t.acq_at_term bi) then begin
                      let id = !next_id in
                      incr next_id;
                      let root =
                        match c.Mir.args with
                        | op :: _ -> (
                            match operand_place op with
                            | Some p ->
                                Analysis.Alias.path_of_place
                                  (Lazy.force aliases) p
                            | None -> Analysis.Alias.unknown)
                        | [] -> Analysis.Alias.unknown
                      in
                      Hashtbl.replace t.acquisitions id
                        {
                          acq_id = id;
                          acq_root = root;
                          acq_kind = kind;
                          acq_try = try_;
                          acq_span = c.Mir.call_span;
                        };
                      Hashtbl.replace t.acq_at_term bi id
                    end;
                    (match
                       ( Hashtbl.find_opt t.acq_at_term bi,
                         Mir.place_is_local c.Mir.dest )
                     with
                    | Some id, true ->
                        Hashtbl.replace t.holders c.Mir.dest.Mir.base id
                    | _ -> ())
                | None -> (
                    match b with
                    | Mir.ResultUnwrap | Mir.OptionUnwrap | Mir.CondvarWait -> (
                        (* the guard flows through *)
                        let arg_acq =
                          List.fold_left
                            (fun acc op ->
                              match acc with
                              | Some _ -> acc
                              | None -> (
                                  match operand_local op with
                                  | Some l -> Hashtbl.find_opt t.holders l
                                  | None -> None))
                            None c.Mir.args
                        in
                        match (arg_acq, Mir.place_is_local c.Mir.dest) with
                        | Some a, true ->
                            Hashtbl.replace t.holders c.Mir.dest.Mir.base a
                        | _ -> ())
                    | _ -> ()))
            | _ -> ())
        | _ -> ())
      body.Mir.blocks
  in
  (* Terminator-only prescan: most bodies acquire no lock at all, and
     then the statement-level holder chase has nothing to find (holders
     are only ever seeded from an acquisition's destination). *)
  let has_lock_call =
    Array.exists
      (fun (blk : Mir.block) ->
        match blk.Mir.term with
        | Mir.Call (c, _) -> (
            match c.Mir.callee with
            | Mir.Builtin b -> lock_kind_of_builtin b <> None
            | _ -> false)
        | _ -> false)
      body.Mir.blocks
  in
  if has_lock_call then begin
    scan ();
    (* the second pass resolves holder chains crossing block
       boundaries in any order *)
    scan ()
  end;
  t

let collect_locks (aliases : Analysis.Alias.resolution) (body : Mir.body) :
    body_locks =
  collect_locks_lazy (lazy aliases) body

(* Dataflow over held acquisition ids. *)
let held_analysis (body : Mir.body) (locks : body_locks) : Flow.result =
  if Hashtbl.length locks.acquisitions = 0 then begin
    (* no acquisitions: the fixpoint is identically empty; skip the
       kernel and return it directly *)
    let cfg = Analysis.Dataflow.cfg_of body in
    let n = Array.length body.Mir.blocks in
    {
      Flow.entry = Array.make n IntSet.empty;
      exit_ = Array.make n IntSet.empty;
      converged = true;
      deadline_hit = false;
      passes = 0;
      reachable = cfg.Mir.cfg_reachable;
    }
  end
  else begin
  (* gen at lock-call terminators: the transfer function doesn't see
     block ids, so recognize the acquiring call by physical identity
     (acquisitions per body are few, so a small assoc list beats
     hashing the call span) *)
  let acq_calls =
    let acc = ref [] in
    Array.iteri
      (fun bi (blk : Mir.block) ->
        match (blk.Mir.term, Hashtbl.find_opt locks.acq_at_term bi) with
        | Mir.Call (c, _), Some a -> acc := (c, a) :: !acc
        | _ -> ())
      body.Mir.blocks;
    !acc
  in
  let acq_of_call (c : Mir.call) =
    let rec go = function
      | [] -> -1
      | (c2, a) :: tl -> if c2 == c then a else go tl
    in
    go acq_calls
  in
  if Hashtbl.length locks.acquisitions <= Support.Bitset.word_bits then begin
    (* acquisition ids fit one machine word: zero-allocation kernel *)
    let word_stmt state (s : Mir.stmt) =
      match s.Mir.kind with
      | Mir.Drop p when Mir.place_is_local p -> (
          match Hashtbl.find_opt locks.holders p.Mir.base with
          | Some a -> state land lnot (1 lsl a)
          | None -> state)
      | _ -> state
    in
    let word_term state (term : Mir.terminator) =
      match term with
      | Mir.Call (c, _) ->
          let a = acq_of_call c in
          if a >= 0 then state lor (1 lsl a) else state
      | _ -> state
    in
    let w =
      Analysis.Dataflow.Word.run body ~init:0 ~transfer_stmt:word_stmt
        ~transfer_term:word_term
    in
    {
      Flow.entry =
        Array.map Support.Bitset.of_word w.Analysis.Dataflow.Word.entry;
      exit_ = Array.map Support.Bitset.of_word w.Analysis.Dataflow.Word.exit_;
      converged = w.Analysis.Dataflow.Word.converged;
      deadline_hit = w.Analysis.Dataflow.Word.deadline_hit;
      passes = w.Analysis.Dataflow.Word.passes;
      reachable = w.Analysis.Dataflow.Word.reachable;
    }
  end
  else begin
    let transfer_stmt state (s : Mir.stmt) =
      match s.Mir.kind with
      | Mir.Drop p when Mir.place_is_local p -> (
          match Hashtbl.find_opt locks.holders p.Mir.base with
          | Some a -> IntSet.remove a state
          | None -> state)
      | _ -> state
    in
    Flow.run body ~init:IntSet.empty ~transfer_stmt
      ~transfer_term:(fun state term ->
        match term with
        | Mir.Call (c, _) ->
            let a = acq_of_call c in
            if a >= 0 then IntSet.add a state else state
        | _ -> state)
  end
  end

(* ------------------------------------------------------------------ *)
(* Per-body memo (shared with atomicity, lock-order, lock-scope)       *)
(* ------------------------------------------------------------------ *)

(* The lock-acquisition map and held-guard dataflow are rebuilt by the
   interprocedural summaries, the detection pass, the lock-order
   pairing and the two-session atomicity check; one extension slot in
   the analysis context makes them all share a single computation. *)
let locks_key : (body_locks * Flow.result) Analysis.Cache.Ext.key =
  Analysis.Cache.Ext.create ()

let locks_of (ctx : Analysis.Cache.t) (body : Mir.body) :
    body_locks * Flow.result =
  Analysis.Cache.ext ctx locks_key body ~compute:(fun b ->
      (* aliases forced only when the prescan finds a lock call, so
         lockless bodies never pay for alias resolution here *)
      let locks = collect_locks_lazy (lazy (Analysis.Cache.aliases ctx b)) b in
      (locks, held_analysis b locks))

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries                                           *)
(* ------------------------------------------------------------------ *)

type summary_entry = {
  se_root : Analysis.Alias.t;  (** in terms of the callee's params/statics *)
  se_kind : lock_kind;
  se_span : Support.Span.t;
}

type summaries = (string, summary_entry list) Hashtbl.t

let callee_id = function
  | Mir.Fn f -> Some f
  | Mir.Method (h, m) -> Some (h ^ "::" ^ m)
  | Mir.ClosureCall id -> Some id
  | Mir.Builtin _ -> None

let substitute_entry (aliases : Analysis.Alias.resolution) (c : Mir.call)
    (e : summary_entry) : summary_entry =
  match e.se_root.Analysis.Alias.root with
  | Analysis.Alias.Param i -> (
      match List.nth_opt c.Mir.args i with
      | Some op -> (
          match operand_place op with
          | Some p ->
              let base = Analysis.Alias.path_of_place aliases p in
              if base.Analysis.Alias.root = Analysis.Alias.Unknown_base then
                { e with se_root = Analysis.Alias.unknown }
              else
                {
                  e with
                  se_root =
                    {
                      Analysis.Alias.root = base.Analysis.Alias.root;
                      fields =
                        base.Analysis.Alias.fields
                        @ e.se_root.Analysis.Alias.fields;
                    };
                }
          | None -> { e with se_root = Analysis.Alias.unknown })
      | None -> { e with se_root = Analysis.Alias.unknown })
  | _ -> e

let exportable (e : summary_entry) =
  match e.se_root.Analysis.Alias.root with
  | Analysis.Alias.Param _ | Analysis.Alias.Static _ -> true
  | _ -> false

(* The call sites whose callee summaries flow into a body's own
   summary, in ascending block order (so every recompute rebuilds the
   entry list in the same order); memoised — the fixpoint rounds
   revisit the list but never change it (the method-name concatenation
   in [callee_id] in particular should not be redone per round). *)
let calls_key : (string * Mir.call) list Analysis.Cache.Ext.key =
  Analysis.Cache.Ext.create ()

let calls_of (ctx : Analysis.Cache.t) (body : Mir.body) :
    (string * Mir.call) list =
  Analysis.Cache.ext ctx calls_key body ~compute:(fun (b : Mir.body) ->
      List.rev
        (Array.fold_left
           (fun acc (blk : Mir.block) ->
             match blk.Mir.term with
             | Mir.Call (c, _) -> (
                 match callee_id c.Mir.callee with
                 | Some f -> (f, c) :: acc
                 | None -> acc)
             | _ -> acc)
           [] b.Mir.blocks))

(* Bound on one function's summary: entry lists concatenate up the call
   graph without dedup (distinct spans keep even same-lock entries
   distinct), so on wide or cyclic graphs the converged lists — not the
   engine walking them — can grow combinatorially. Every function keeps
   its first [summary_cap] exportable entries; real programs sit far
   below it (the whole corpus stays under a handful per function), so
   the cap only bites on adversarial call graphs. Shared by both
   interprocedural modes, keeping their findings aligned. *)
let summary_cap = 32

let rec take k = function
  | x :: tl when k > 0 -> x :: take (k - 1) tl
  | _ -> []

(* Recompute one function's summary from its own acquisitions plus its
   callees' current summaries. Both interprocedural modes — the legacy
   whole-program fixpoint and the SCC-scheduled engine — share this, so
   at a converged fixpoint they produce entry lists in the same order
   and the detection pass reports byte-identical findings. [lookup]
   returning [None] or [Some []] both mean "callee adds nothing". *)
let summary_of_body ~(lookup : string -> summary_entry list option)
    (ctx : Analysis.Cache.t) (body : Mir.body) : summary_entry list =
  let locks = fst (locks_of ctx body) in
  let aliases = lazy (Analysis.Cache.aliases ctx body) in
  let direct =
    Hashtbl.fold
      (fun _ a acc ->
        if a.acq_try then acc
        else
          { se_root = a.acq_root; se_kind = a.acq_kind; se_span = a.acq_span }
          :: acc)
      locks.acquisitions []
  in
  let from_calls =
    List.fold_left
      (fun acc (f, c) ->
        match lookup f with
        | Some entries when entries <> [] ->
            List.map (substitute_entry (Lazy.force aliases) c) entries @ acc
        | _ -> acc)
      [] (calls_of ctx body)
  in
  take summary_cap (List.filter exportable (direct @ from_calls))

(* No acquisition anywhere: every summary is empty, and an absent entry
   reads the same as an empty one — both modes skip the call-site
   resolution and the fixpoint entirely. *)
let lock_free (ctx : Analysis.Cache.t) (bodies : Mir.body list) : bool =
  List.for_all
    (fun (b : Mir.body) ->
      Hashtbl.length (fst (locks_of ctx b)).acquisitions = 0)
    bodies

(* Replay mode: the legacy whole-program chaotic fixpoint, kept behind
   [--interproc=replay] for differential testing. Iterates every body
   per round in [fn_id] order with a global round cap — propagation
   depth depends on how the iteration order aligns with call direction,
   which is what the summary engine's bottom-up schedule fixes. *)
let compute_summaries (ctx : Analysis.Cache.t) : summaries =
  let tbl : summaries = Hashtbl.create 16 in
  let bodies = Mir.body_list (Analysis.Cache.program ctx) in
  if lock_free ctx bodies then tbl
  else begin
    List.iter
      (fun (b : Mir.body) -> Hashtbl.replace tbl b.Mir.fn_id [])
      bodies;
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 5 do
      incr rounds;
      changed := false;
      List.iter
        (fun (b : Mir.body) ->
          let all = summary_of_body ~lookup:(Hashtbl.find_opt tbl) ctx b in
          let cur = Hashtbl.find tbl b.Mir.fn_id in
          if List.length all <> List.length cur then begin
            Hashtbl.replace tbl b.Mir.fn_id all;
            changed := true
          end)
        bodies
    done;
    tbl
  end

(* Summary mode: the SCC-scheduled bottom-up engine. *)
let summary_tbl_key : summaries Analysis.Cache.Ext.key =
  Analysis.Cache.Ext.create ()

let summary_client ctx : summary_entry list Analysis.Summary.client =
  {
    Analysis.Summary.name = "double_lock";
    (* the replay fixpoint detects change by length; a converged list
       can only differ in length, so the engine matches it *)
    equal = (fun a b -> List.length a = List.length b);
    compute = (fun ~lookup body -> summary_of_body ~lookup ctx body);
  }

let engine_summaries ?domains (ctx : Analysis.Cache.t) : summaries =
  Analysis.Cache.ext_program ctx summary_tbl_key ~compute:(fun () ->
      let bodies = Mir.body_list (Analysis.Cache.program ctx) in
      if lock_free ctx bodies then Hashtbl.create 1
      else Analysis.Summary.compute ?domains ctx (summary_client ctx))

(* ------------------------------------------------------------------ *)
(* Detection                                                           *)
(* ------------------------------------------------------------------ *)

let root_known (r : Analysis.Alias.t) =
  r.Analysis.Alias.root <> Analysis.Alias.Unknown_base

let check_body (ctx : Analysis.Cache.t) (summaries : summaries)
    (body : Mir.body) : Report.finding list =
  (* forced only on the inter-procedural path below, which most bodies
     (no guard held at any call) never reach *)
  let aliases = lazy (Analysis.Cache.aliases ctx body) in
  let locks, held = locks_of ctx body in
  let findings = ref [] in
  (* per-block deadline poll, matching the fixpoints' budget: stop the
     replay (findings then cover a prefix of the body) and report W0402
     once it expires *)
  let dl = Support.Deadline.token () in
  let stopped = ref false in
  let held_accs state =
    IntSet.fold
      (fun a acc ->
        match Hashtbl.find_opt locks.acquisitions a with
        | Some acq -> acq :: acc
        | None -> acc)
      state []
  in
  Array.iteri
    (fun bi (blk : Mir.block) ->
      if (not !stopped) && Support.Deadline.expired dl then stopped := true;
      match blk.Mir.term with
      (* a conflict needs a guard already held on entry: the statement
         replay only removes ids, so an empty entry set means nothing
         can be held at the terminator — skip the block *)
      | Mir.Call (c, _)
        when (not !stopped) && not (IntSet.is_empty held.Flow.entry.(bi)) -> (
          (* state before the terminator *)
          let state =
            List.fold_left
              (fun st s ->
                match s.Mir.kind with
                | Mir.Drop p when Mir.place_is_local p -> (
                    match Hashtbl.find_opt locks.holders p.Mir.base with
                    | Some a -> IntSet.remove a st
                    | None -> st)
                | _ -> st)
              held.Flow.entry.(bi) blk.Mir.stmts
          in
          let held_now = held_accs state in
          (* intra-procedural: this terminator acquires a lock *)
          (match Hashtbl.find_opt locks.acq_at_term bi with
          | Some id ->
              let acq = Hashtbl.find locks.acquisitions id in
              if (not acq.acq_try) && root_known acq.acq_root then
                List.iter
                  (fun h ->
                    if
                      h.acq_id <> acq.acq_id
                      && root_known h.acq_root
                      && Analysis.Alias.equal h.acq_root acq.acq_root
                      && conflict h.acq_kind acq.acq_kind
                    then
                      findings :=
                        Report.make ~kind:Report.Double_lock
                          ~fn_id:body.Mir.fn_id ~span:acq.acq_span
                          ~related_span:h.acq_span
                          "%s on `%s` while the guard from %s on the same lock is still alive (implicit unlock has not happened yet)"
                          (kind_name acq.acq_kind)
                          (Analysis.Alias.to_string acq.acq_root)
                          (kind_name h.acq_kind)
                        :: !findings)
                  held_now
          | None -> ());
          (* inter-procedural: the callee acquires locks we hold *)
          match callee_id c.Mir.callee with
          | Some f -> (
              match Hashtbl.find_opt summaries f with
              | Some entries ->
                  if entries <> [] then
                    Analysis.Summary.note_instantiated "double_lock";
                  List.iter
                    (fun e ->
                      let e = substitute_entry (Lazy.force aliases) c e in
                      if root_known e.se_root then
                        List.iter
                          (fun h ->
                            if
                              root_known h.acq_root
                              && Analysis.Alias.equal h.acq_root e.se_root
                              && conflict h.acq_kind e.se_kind
                            then
                              findings :=
                                Report.make ~kind:Report.Double_lock
                                  ~fn_id:body.Mir.fn_id ~span:c.Mir.call_span
                                  ~related_span:h.acq_span
                                  "call to `%s` acquires %s on `%s` while a guard for the same lock is held here"
                                  f (kind_name e.se_kind)
                                  (Analysis.Alias.to_string e.se_root)
                                :: !findings)
                          held_now)
                    entries
              | None -> ())
          | None -> ())
      | _ -> ())
    body.Mir.blocks;
  if !stopped then
    Analysis.Cache.deadline_warning ctx body.Mir.fn_id "double-lock replay";
  !findings

(** Run the double-lock detector with a shared analysis context.
    [interprocedural:false] ablates the cross-function summaries
    (intraprocedural double locks are still found); [?mode] picks the
    summary engine vs the legacy replay fixpoint (defaults to
    [Analysis.Summary.default_mode ()]). *)
let run_ctx ?(interprocedural = true) ?mode (ctx : Analysis.Cache.t) :
    Report.finding list =
  let summaries =
    if not interprocedural then Hashtbl.create 1
    else
      match Analysis.Summary.resolve_mode mode with
      | Analysis.Summary.Summary -> engine_summaries ctx
      | Analysis.Summary.Replay -> compute_summaries ctx
  in
  List.concat_map (check_body ctx summaries)
    (Mir.body_list (Analysis.Cache.program ctx))

(** Run the double-lock detector over a whole program. *)
let run ?interprocedural ?mode (program : Mir.program) : Report.finding list =
  run_ctx ?interprocedural ?mode (Analysis.Cache.create program)

(** Exposed for the lock-order detector: per-body acquisition-order
    pairs (held root, newly acquired root) with spans. *)
let order_pairs_with ((locks, held) : body_locks * Flow.result)
    (body : Mir.body) :
    (Analysis.Alias.t * Analysis.Alias.t * Support.Span.t) list =
  let pairs = ref [] in
  Array.iteri
    (fun bi (blk : Mir.block) ->
      match Hashtbl.find_opt locks.acq_at_term bi with
      | Some id ->
          let acq = Hashtbl.find locks.acquisitions id in
          if root_known acq.acq_root then
            IntSet.iter
              (fun a ->
                match Hashtbl.find_opt locks.acquisitions a with
                | Some h
                  when root_known h.acq_root
                       && not (Analysis.Alias.equal h.acq_root acq.acq_root) ->
                    pairs := (h.acq_root, acq.acq_root, acq.acq_span) :: !pairs
                | _ -> ())
              held.Flow.entry.(bi)
      | None -> ignore blk)
    body.Mir.blocks;
  !pairs

let order_pairs_ctx (ctx : Analysis.Cache.t) (body : Mir.body) =
  order_pairs_with (locks_of ctx body) body

let order_pairs (body : Mir.body) =
  let aliases = Analysis.Alias.resolve body in
  let locks = collect_locks aliases body in
  order_pairs_with (locks, held_analysis body locks) body
