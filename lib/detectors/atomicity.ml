(** Atomicity-violation detector for atomics (the paper's Fig. 9
    Ethereum bug): a check-then-act sequence — load an atomic, branch on
    it, store to the same atomic — in code reachable by multiple
    threads is not atomic; the fix is a compare_and_swap. The detector
    flags bodies that both load and store the same atomic without any
    CAS/fetch-op on it. *)

open Ir

type site = { span : Support.Span.t }

let check_body (aliases : Analysis.Alias.resolution) (body : Mir.body) :
    Report.finding list =
  let loads = Hashtbl.create 4 in
  let stores = Hashtbl.create 4 in
  let rmws = Hashtbl.create 4 in
  Array.iter
    (fun (blk : Mir.block) ->
      match blk.Mir.term with
      | Mir.Call (c, _) -> (
          let root () =
            match c.Mir.args with
            | (Mir.Copy p | Mir.Move p) :: _ ->
                Analysis.Alias.to_string (Analysis.Alias.path_of_place aliases p)
            | _ -> "?"
          in
          match c.Mir.callee with
          | Mir.Builtin Mir.AtomicLoad ->
              Hashtbl.replace loads (root ()) { span = c.Mir.call_span }
          | Mir.Builtin Mir.AtomicStore ->
              Hashtbl.replace stores (root ()) { span = c.Mir.call_span }
          | Mir.Builtin (Mir.AtomicCas | Mir.AtomicFetch | Mir.AtomicSwap) ->
              Hashtbl.replace rmws (root ()) ()
          | _ -> ())
      | _ -> ())
    body.Mir.blocks;
  (* a branch between the load and the store is what makes the gap
     observable; require at least one SwitchInt in the body *)
  let has_branch =
    Array.exists
      (fun (blk : Mir.block) ->
        match blk.Mir.term with Mir.SwitchInt _ -> true | _ -> false)
      body.Mir.blocks
  in
  if not has_branch then []
  else
    Hashtbl.fold
      (fun root (load : site) acc ->
        match Hashtbl.find_opt stores root with
        | Some store when not (Hashtbl.mem rmws root) ->
            Report.make ~kind:Report.Atomicity_violation
              ~confidence:Report.Medium ~fn_id:body.Mir.fn_id ~span:store.span
              ~related_span:load.span
              "atomic `%s` is loaded, branched on, then stored: the check-then-act is not atomic (use compare_and_swap)"
              root
            :: acc
        | _ -> acc)
      loads []

let run_body (body : Mir.body) : Report.finding list =
  check_body (Analysis.Alias.resolve body) body

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  List.concat_map
    (fun b -> check_body (Analysis.Cache.aliases ctx b) b)
    (Gate.select ctx "atomicity" ~gate:Gate.atomicity)

(* ------------------------------------------------------------------ *)
(* Check-then-act across two critical sections of the same lock        *)
(* ------------------------------------------------------------------ *)

(** The dominant shape of the paper's Mutex-protected non-blocking
    bugs: a value is read under one critical section, the lock is
    released, and a second critical section acts on the stale value.
    Reported when the same lock is acquired twice in a body and the
    first guard is already dead at the second acquisition (overlapping
    guards are the double-lock detector's case, not ours). *)
let two_session_with
    ((locks, held) :
      Double_lock.body_locks * Analysis.Dataflow.IntSetFlow.result)
    (body : Mir.body) : Report.finding list =
  let module IntSet = Analysis.Dataflow.IntSet in
  let findings = ref [] in
  let seen_roots = Hashtbl.create 4 in
  Array.iteri
    (fun bi (blk : Mir.block) ->
      match Hashtbl.find_opt locks.Double_lock.acq_at_term bi with
      | Some id ->
          let acq = Hashtbl.find locks.Double_lock.acquisitions id in
          let root = acq.Double_lock.acq_root in
          if root.Analysis.Alias.root <> Analysis.Alias.Unknown_base then begin
            let key = Analysis.Alias.to_string root in
            (* state right before the terminator: apply the block's
               guard drops to the block-entry state *)
            let held_now =
              List.fold_left
                (fun st (s : Mir.stmt) ->
                  match s.Mir.kind with
                  | Mir.Drop p when Mir.place_is_local p -> (
                      match
                        Hashtbl.find_opt locks.Double_lock.holders p.Mir.base
                      with
                      | Some a -> IntSet.remove a st
                      | None -> st)
                  | _ -> st)
                held.Analysis.Dataflow.IntSetFlow.entry.(bi)
                blk.Mir.stmts
            in
            (match Hashtbl.find_opt seen_roots key with
            | Some (first_id, first_span)
              when first_id <> id && not (IntSet.mem first_id held_now) ->
                findings :=
                  Report.make ~kind:Report.Atomicity_violation
                    ~confidence:Report.Medium ~fn_id:body.Mir.fn_id
                    ~span:acq.Double_lock.acq_span ~related_span:first_span
                    "lock `%s` is released and re-acquired in the same operation: the check under the first critical section is stale by the second (atomicity violation)"
                    key
                  :: !findings
            | _ -> ());
            if not (Hashtbl.mem seen_roots key) then
              Hashtbl.replace seen_roots key (id, acq.Double_lock.acq_span)
          end
      | None -> ())
    body.Mir.blocks;
  !findings

let two_session (body : Mir.body) : Report.finding list =
  let aliases = Analysis.Alias.resolve body in
  let locks = Double_lock.collect_locks aliases body in
  two_session_with (locks, Double_lock.held_analysis body locks) body

let run_with_sessions_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  List.concat_map
    (fun b -> two_session_with (Double_lock.locks_of ctx b) b)
    (Gate.select ctx "atomicity_sessions" ~gate:Gate.atomicity_sessions)
