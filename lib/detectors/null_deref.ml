(** Null-pointer-dereference detector: locals that may hold
    [ptr::null()]/[ptr::null_mut()] and are dereferenced (or passed to a
    dereferencing callee) without an intervening reassignment. All null
    dereferences in the paper's study occur in unsafe code. *)

open Ir
module IntSet = Analysis.Dataflow.IntSet
module Flow = Analysis.Dataflow.IntSetFlow

let run_body (body : Mir.body) : Report.finding list =
  (* forward may-null analysis over locals *)
  let null_call_dests = Hashtbl.create 4 in
  Array.iter
    (fun (blk : Mir.block) ->
      match blk.Mir.term with
      | Mir.Call ({ Mir.callee = Mir.Builtin Mir.PtrNull; dest; _ }, _)
        when Mir.place_is_local dest ->
          Hashtbl.replace null_call_dests dest.Mir.base ()
      | _ -> ())
    body.Mir.blocks;
  let transfer_stmt state (s : Mir.stmt) =
    match s.Mir.kind with
    | Mir.Assign (dest, rv) when Mir.place_is_local dest -> (
        let l = dest.Mir.base in
        match rv with
        | Mir.Use (Mir.Copy p | Mir.Move p)
        | Mir.Cast ((Mir.Copy p | Mir.Move p), _)
          when Mir.place_is_local p && IntSet.mem p.Mir.base state ->
            IntSet.add l state
        | Mir.Cast (Mir.Const (Mir.Cint 0), _) -> IntSet.add l state
        | _ -> IntSet.remove l state)
    | _ -> state
  in
  let transfer_term state = function
    | Mir.Call (c, _) when Mir.place_is_local c.Mir.dest ->
        if Hashtbl.mem null_call_dests c.Mir.dest.Mir.base then
          IntSet.add c.Mir.dest.Mir.base state
        else IntSet.remove c.Mir.dest.Mir.base state
    | _ -> state
  in
  let result = Flow.run body ~init:IntSet.empty ~transfer_stmt ~transfer_term in
  (* conditionally-skipped code: a body that checks is_null on a pointer
     is treated as guarded for that pointer (the studied fixes add
     exactly this check) *)
  let copies = Hashtbl.create 8 in
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign (dest, Mir.Use (Mir.Copy p | Mir.Move p))
            when Mir.place_is_local dest && Mir.place_is_local p ->
              Hashtbl.add copies dest.Mir.base p.Mir.base
          | _ -> ())
        blk.Mir.stmts)
    body.Mir.blocks;
  let rec canon seen l =
    if List.mem l seen then l
    else
      match Hashtbl.find_opt copies l with
      | Some src -> canon (l :: seen) src
      | None -> l
  in
  let null_checked = Hashtbl.create 4 in
  Array.iter
    (fun (blk : Mir.block) ->
      match blk.Mir.term with
      | Mir.Call ({ Mir.callee = Mir.Builtin (Mir.Pure "is_null"); args; _ }, _)
        -> (
          match args with
          | (Mir.Copy p | Mir.Move p) :: _ when Mir.place_is_local p ->
              Hashtbl.replace null_checked (canon [] p.Mir.base) ()
          | _ -> ())
      | _ -> ())
    body.Mir.blocks;
  let guarded l = Hashtbl.mem null_checked (canon [] l) in
  let findings = ref [] in
  let module F = Analysis.Dataflow.IntSetFlow in
  F.iter_with_state body result ~transfer_stmt ~f:(fun ~block:_ state ev ->
      let check span (p : Mir.place) =
        if
          (match p.Mir.proj with Mir.Deref :: _ -> true | _ -> false)
          && IntSet.mem p.Mir.base state
          && Sema.Ty.is_raw_ptr (Mir.local_ty body p.Mir.base)
          && not (guarded p.Mir.base)
        then
          findings :=
            Report.make ~kind:Report.Null_deref ~fn_id:body.Mir.fn_id ~span
              "pointer `_%d` may be null here and is dereferenced without a check"
              p.Mir.base
            :: !findings
      in
      let check_op span = function
        | Mir.Copy p | Mir.Move p -> check span p
        | Mir.Const _ -> ()
      in
      match ev with
      | `Stmt { Mir.kind = Mir.Assign (dest, rv); s_span; _ } -> (
          check s_span dest;
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
      | `Term (Mir.Call (c, _)) -> (
          match c.Mir.callee with
          | Mir.Builtin (Mir.PtrRead | Mir.PtrWrite | Mir.PtrCopy) -> (
              match c.Mir.args with
              | (Mir.Copy p | Mir.Move p) :: _
                when Mir.place_is_local p && IntSet.mem p.Mir.base state
                     && not (guarded p.Mir.base) ->
                  findings :=
                    Report.make ~kind:Report.Null_deref ~fn_id:body.Mir.fn_id
                      ~span:c.Mir.call_span
                      "possibly-null pointer passed to a raw memory operation"
                    :: !findings
              | _ -> ())
          | Mir.Builtin (Mir.Extern _) ->
              List.iter (check_op c.Mir.call_span) c.Mir.args
          | _ -> ())
      | `Term _ -> ());
  !findings

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  List.concat_map run_body (Gate.select ctx "null_deref" ~gate:Gate.null_deref)
