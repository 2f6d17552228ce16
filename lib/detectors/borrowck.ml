(** Simplified borrow checker over MIR — the substrate standing in for
    "what the Rust compiler statically rejects" in the study's
    safe-code discussions (Fig. 3): use-after-move and simultaneous
    shared/mutable borrows. Findings from this module model compiler
    errors, not runtime bugs. *)

open Ir
module IntSet = Analysis.Dataflow.IntSet
module Flow = Analysis.Dataflow.IntSetFlow

(* ---------------- use-after-move ---------------------------------- *)

let moved_transfer_stmt state (s : Mir.stmt) =
  match s.Mir.kind with
  | Mir.Assign (dest, rv) ->
      let state =
        match rv with
        | Mir.Use (Mir.Move p) | Mir.Cast (Mir.Move p, _)
          when Mir.place_is_local p ->
            IntSet.add p.Mir.base state
        | Mir.Aggregate (_, ops) ->
            List.fold_left
              (fun st op ->
                match op with
                | Mir.Move p when Mir.place_is_local p ->
                    IntSet.add p.Mir.base st
                | _ -> st)
              state ops
        | _ -> state
      in
      if Mir.place_is_local dest then IntSet.remove dest.Mir.base state
      else state
  | Mir.StorageLive l -> IntSet.remove l state
  | _ -> state

let moved_transfer_term state = function
  | Mir.Call (c, _) ->
      let state =
        List.fold_left
          (fun st op ->
            match op with
            | Mir.Move p when Mir.place_is_local p -> IntSet.add p.Mir.base st
            | _ -> st)
          state c.Mir.args
      in
      if Mir.place_is_local c.Mir.dest then
        IntSet.remove c.Mir.dest.Mir.base state
      else state
  | _ -> state

let use_after_move (body : Mir.body) : Report.finding list =
  let result =
    Flow.run body ~init:IntSet.empty ~transfer_stmt:moved_transfer_stmt
      ~transfer_term:moved_transfer_term
  in
  let findings = ref [] in
  let user_local l = body.Mir.locals.(l).Mir.l_user in
  let name l =
    match body.Mir.locals.(l).Mir.l_name with
    | Some n -> n
    | None -> Printf.sprintf "_%d" l
  in
  Flow.iter_with_state body result ~transfer_stmt:moved_transfer_stmt
    ~f:(fun ~block:_ state ev ->
      let check span (p : Mir.place) =
        if IntSet.mem p.Mir.base state && user_local p.Mir.base then
          findings :=
            Report.make ~kind:Report.Use_after_move ~fn_id:body.Mir.fn_id ~span
              "`%s` is used here after its value was moved (the compiler rejects this)"
              (name p.Mir.base)
            :: !findings
      in
      let check_op span = function
        | Mir.Copy p | Mir.Move p -> check span p
        | Mir.Const _ -> ()
      in
      match ev with
      | `Stmt { Mir.kind = Mir.Assign (_, rv); s_span; _ } -> (
          match rv with
          | Mir.Use op | Mir.Cast (op, _) | Mir.UnaryOp (_, op) ->
              check_op s_span op
          | Mir.BinaryOp (_, a, b) ->
              check_op s_span a;
              check_op s_span b
          | Mir.Aggregate (_, ops) -> List.iter (check_op s_span) ops
          | Mir.Ref (_, p) | Mir.AddrOf (_, p) | Mir.Discriminant p ->
              check s_span p
          | Mir.Alloc _ -> ())
      | `Stmt _ -> ()
      | `Term (Mir.Call (c, _)) -> List.iter (check_op c.Mir.call_span) c.Mir.args
      | `Term _ -> ());
  !findings

(* ---------------- conflicting borrows ----------------------------- *)

(* A mutable borrow of x while another borrow of x is outstanding (its
   holder's storage still live). Approximate NLL by requiring the first
   borrow's holder to be a user variable (temporaries die at statement
   end anyway). *)
let borrow_conflicts_with (invalid : Analysis.Dataflow.IntSetFlow.result)
    (body : Mir.body) : Report.finding list =
  let borrows = Hashtbl.create 8 in
  (* holder local -> (mutability, borrowed base) *)
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign (dest, Mir.Ref (m, p)) when Mir.place_is_local dest ->
              Hashtbl.replace borrows dest.Mir.base (m, p.Mir.base)
          | _ -> ())
        blk.Mir.stmts)
    body.Mir.blocks;
  let findings = ref [] in
  Analysis.Storage.iter body invalid ~f:(fun ~block:_ state ev ->
      match ev with
      | `Stmt { Mir.kind = Mir.Assign (dest, Mir.Ref (Sema.Ty.Mut, p)); s_span; _ }
        when Mir.place_is_local dest ->
          (* another outstanding borrow of the same base? *)
          Hashtbl.iter
            (fun holder (_, base) ->
              if
                holder <> dest.Mir.base && base = p.Mir.base
                && body.Mir.locals.(holder).Mir.l_user
                && (not (Analysis.Dataflow.IntSet.mem holder state))
                && holder < dest.Mir.base
              then
                findings :=
                  Report.make ~kind:Report.Borrow_conflict ~fn_id:body.Mir.fn_id
                    ~span:s_span
                    "mutable borrow of `_%d` while `%s` still borrows it (the compiler rejects this)"
                    p.Mir.base
                    (match body.Mir.locals.(holder).Mir.l_name with
                    | Some n -> n
                    | None -> Printf.sprintf "_%d" holder)
                  :: !findings)
            borrows
      | _ -> ());
  !findings

let borrow_conflicts (body : Mir.body) : Report.finding list =
  borrow_conflicts_with (Analysis.Storage.analyze body) body

let run_body (body : Mir.body) : Report.finding list =
  use_after_move body @ borrow_conflicts body

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  List.concat_map
    (fun b ->
      use_after_move b @ borrow_conflicts_with (Analysis.Cache.storage ctx b) b)
    (Mir.body_list (Analysis.Cache.program ctx))
