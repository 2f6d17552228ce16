(** Uninitialized-read detector.

    The paper's uninitialized-memory bugs create a buffer with unsafe
    code ([alloc], [Vec::with_capacity] + [set_len], or
    [mem::uninitialized]) and later read it from safe code. The
    detector flags reads through pointers to heap allocations that no
    prior program point has written, and any read of a
    [mem::uninitialized] result. *)

open Ir
module Loc = Analysis.Pointsto.Loc
module LocSet = Analysis.Pointsto.LocSet

let check_body (pts : Analysis.Pointsto.t) (body : Mir.body) :
    Report.finding list =
  let findings = ref [] in
  let initialized = Hashtbl.create 8 in
  let uninit_locals = Hashtbl.create 4 in
  let heap_sites_of_ptr (l : Mir.local) =
    LocSet.fold
      (fun loc acc -> match loc with Loc.LHeap h -> h :: acc | _ -> acc)
      (Analysis.Pointsto.of_local pts l) []
  in
  let mark_init_place (p : Mir.place) =
    if List.mem Mir.Deref p.Mir.proj then
      List.iter (fun h -> Hashtbl.replace initialized h ()) (heap_sites_of_ptr p.Mir.base)
  in
  let check_read_place span (p : Mir.place) =
    if List.mem Mir.Deref p.Mir.proj then begin
      match
        List.filter (fun h -> not (Hashtbl.mem initialized h))
          (heap_sites_of_ptr p.Mir.base)
      with
      | _ :: _ ->
          findings :=
            Report.make ~kind:Report.Uninit_read ~fn_id:body.Mir.fn_id ~span
              "read through pointer into an allocation that was never initialized"
            :: !findings
      | [] -> ()
    end;
    if
      Hashtbl.mem uninit_locals p.Mir.base
      && not (List.mem Mir.Deref p.Mir.proj)
    then
      findings :=
        Report.make ~kind:Report.Uninit_read ~fn_id:body.Mir.fn_id ~span
          "value produced by mem::uninitialized/zeroed is read before being written"
        :: !findings
  in
  let check_operand span = function
    | Mir.Copy p | Mir.Move p -> check_read_place span p
    | Mir.Const _ -> ()
  in
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign (dest, rv) ->
              (match rv with
              | Mir.Use op | Mir.Cast (op, _) | Mir.UnaryOp (_, op) ->
                  check_operand s.Mir.s_span op
              | Mir.BinaryOp (_, a, b) ->
                  check_operand s.Mir.s_span a;
                  check_operand s.Mir.s_span b
              | Mir.Aggregate (_, ops) ->
                  List.iter (check_operand s.Mir.s_span) ops
              | Mir.Ref _ | Mir.AddrOf _ | Mir.Discriminant _ | Mir.Alloc _ ->
                  ());
              mark_init_place dest;
              if Mir.place_is_local dest then begin
                let rhs_uninit =
                  match rv with
                  | Mir.Use (Mir.Copy p | Mir.Move p)
                    when Mir.place_is_local p ->
                      Hashtbl.mem uninit_locals p.Mir.base
                  | _ -> false
                in
                if rhs_uninit then
                  Hashtbl.replace uninit_locals dest.Mir.base ()
                else Hashtbl.remove uninit_locals dest.Mir.base
              end
          | _ -> ())
        blk.Mir.stmts;
      match blk.Mir.term with
      | Mir.Call (c, _) -> (
          (match c.Mir.callee with
          | Mir.Builtin Mir.MemUninit when Mir.place_is_local c.Mir.dest ->
              Hashtbl.replace uninit_locals c.Mir.dest.Mir.base ()
          | Mir.Builtin (Mir.PtrWrite | Mir.PtrCopy) -> (
              match c.Mir.args with
              | (Mir.Copy p | Mir.Move p) :: _ ->
                  List.iter
                    (fun h -> Hashtbl.replace initialized h ())
                    (heap_sites_of_ptr p.Mir.base)
              | _ -> ())
          | Mir.Builtin Mir.PtrRead -> (
              match c.Mir.args with
              | (Mir.Copy p | Mir.Move p) :: _ -> (
                  match
                    List.filter (fun h -> not (Hashtbl.mem initialized h))
                      (heap_sites_of_ptr p.Mir.base)
                  with
                  | _ :: _ ->
                      findings :=
                        Report.make ~kind:Report.Uninit_read
                          ~fn_id:body.Mir.fn_id ~span:c.Mir.call_span
                          "ptr::read from an allocation that was never initialized"
                        :: !findings
                  | [] -> ())
              | _ -> ())
          | _ -> ());
          (* reads of uninit locals passed to calls *)
          List.iter
            (function
              | Mir.Copy p | Mir.Move p
                when Mir.place_is_local p
                     && Hashtbl.mem uninit_locals p.Mir.base ->
                  findings :=
                    Report.make ~kind:Report.Uninit_read ~fn_id:body.Mir.fn_id
                      ~span:c.Mir.call_span
                      "value produced by mem::uninitialized/zeroed is used before being written"
                    :: !findings
              | _ -> ())
            c.Mir.args)
      | _ -> ())
    body.Mir.blocks;
  !findings

(* ------------------------------------------------------------------ *)
(* Vec::with_capacity + set_len without writes, then read              *)
(* ------------------------------------------------------------------ *)

(** The paper's dominant uninitialized-read shape: unsafe code sizes a
    Vec with [set_len] but never writes the elements, and safe code
    later reads them by index. *)
let set_len_reads_with (aliases : Analysis.Alias.resolution)
    (body : Mir.body) : Report.finding list =
  let root_str p = Analysis.Alias.to_string (Analysis.Alias.path_of_place aliases p) in
  let set_len_roots = Hashtbl.create 4 in
  let written_roots = Hashtbl.create 4 in
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign (dest, _) when List.mem Mir.Index dest.Mir.proj ->
              (* v[i] = x *)
              Hashtbl.replace written_roots
                (root_str { dest with Mir.proj = [] })
                ()
          | _ -> ())
        blk.Mir.stmts;
      match blk.Mir.term with
      | Mir.Call (c, _) -> (
          let recv_root () =
            match c.Mir.args with
            | (Mir.Copy p | Mir.Move p) :: _ -> Some (root_str p)
            | _ -> None
          in
          match c.Mir.callee with
          | Mir.Builtin Mir.VecSetLen -> (
              match recv_root () with
              | Some r -> Hashtbl.replace set_len_roots r c.Mir.call_span
              | None -> ())
          | Mir.Builtin (Mir.VecPush | Mir.PtrWrite | Mir.PtrCopy) -> (
              match recv_root () with
              | Some r -> Hashtbl.replace written_roots r ()
              | None -> ())
          | _ -> ())
      | _ -> ())
    body.Mir.blocks;
  (* reads of set_len'd-but-unwritten vecs *)
  let findings = ref [] in
  let check span (p : Mir.place) =
    if List.mem Mir.Index p.Mir.proj then begin
      let r = root_str { p with Mir.proj = [] } in
      match Hashtbl.find_opt set_len_roots r with
      | Some _ when not (Hashtbl.mem written_roots r) ->
          findings :=
            Report.make ~kind:Report.Uninit_read ~fn_id:body.Mir.fn_id ~span
              "element read from a Vec whose length was set with set_len but whose contents were never written"
            :: !findings
      | _ -> ()
    end
  in
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign (_, rv) -> (
              let check_op = function
                | Mir.Copy p | Mir.Move p -> check s.Mir.s_span p
                | Mir.Const _ -> ()
              in
              match rv with
              | Mir.Use op | Mir.Cast (op, _) | Mir.UnaryOp (_, op) ->
                  check_op op
              | Mir.BinaryOp (_, a, b) ->
                  check_op a;
                  check_op b
              | Mir.Aggregate (_, ops) -> List.iter check_op ops
              | Mir.Ref (_, p) -> check s.Mir.s_span p
              | _ -> ())
          | _ -> ())
        blk.Mir.stmts;
      match blk.Mir.term with
      | Mir.Call (c, _) -> (
          (match c.Mir.callee with
          | Mir.Builtin (Mir.VecGet | Mir.VecGetUnchecked) -> (
              match c.Mir.args with
              | (Mir.Copy p | Mir.Move p) :: _ ->
                  let r = root_str p in
                  if
                    Hashtbl.mem set_len_roots r
                    && not (Hashtbl.mem written_roots r)
                  then
                    findings :=
                      Report.make ~kind:Report.Uninit_read ~fn_id:body.Mir.fn_id
                        ~span:c.Mir.call_span
                        "element read from a Vec whose length was set with set_len but whose contents were never written"
                      :: !findings
              | _ -> ())
          | _ -> ());
          List.iter
            (function
              | Mir.Copy p | Mir.Move p -> check c.Mir.call_span p
              | Mir.Const _ -> ())
            c.Mir.args)
      | _ -> ())
    body.Mir.blocks;
  !findings

(** Drop of a value that came from [mem::uninitialized] and was never
    overwritten: freeing garbage (an invalid-free shape the paper files
    under unsafe->safe). *)
let uninit_drop (body : Mir.body) : Report.finding list =
  let uninit_locals = Hashtbl.create 4 in
  Array.iter
    (fun (blk : Mir.block) ->
      match blk.Mir.term with
      | Mir.Call ({ Mir.callee = Mir.Builtin Mir.MemUninit; dest; _ }, _)
        when Mir.place_is_local dest ->
          Hashtbl.replace uninit_locals dest.Mir.base ()
      | _ -> ())
    body.Mir.blocks;
  (* propagate one level through moves, drop overwrites *)
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign (dest, Mir.Use (Mir.Move p | Mir.Copy p))
            when Mir.place_is_local dest && Mir.place_is_local p
                 && Hashtbl.mem uninit_locals p.Mir.base ->
              Hashtbl.replace uninit_locals dest.Mir.base ()
          | _ -> ())
        blk.Mir.stmts)
    body.Mir.blocks;
  let findings = ref [] in
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Drop p
            when Mir.place_is_local p && Hashtbl.mem uninit_locals p.Mir.base
                 && Sema.Ty.needs_drop (Mir.local_ty body p.Mir.base) ->
              findings :=
                Report.make ~kind:Report.Invalid_free ~fn_id:body.Mir.fn_id
                  ~span:s.Mir.s_span
                  "dropping a value obtained from mem::uninitialized that was never initialized"
                :: !findings
          | _ -> ())
        blk.Mir.stmts)
    body.Mir.blocks;
  !findings

let set_len_reads (body : Mir.body) : Report.finding list =
  set_len_reads_with (Analysis.Alias.resolve body) body

let run_body (body : Mir.body) : Report.finding list =
  check_body (Analysis.Pointsto.analyze body) body

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  let gate s = Gate.uninit s || Gate.uninit_set_len s in
  List.concat_map
    (fun b ->
      let s = Analysis.Cache.sites ctx b in
      (if Gate.uninit s then check_body (Analysis.Cache.pointsto ctx b) b
       else [])
      @
      if Gate.uninit_set_len s then
        set_len_reads_with (Analysis.Cache.aliases ctx b) b
      else [])
    (Gate.select ctx "uninit" ~gate)
