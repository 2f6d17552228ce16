(** Buffer-overflow detector (heuristic).

    The paper's dominant pattern (17/21 bugs): an index or size is
    computed in safe code and then used by an unchecked access in
    unsafe code. Precise range analysis is out of scope; the detector
    flags unchecked accesses ([get_unchecked], pointer-offset
    dereference, [copy_nonoverlapping]) in bodies that never compare
    anything against the container's [len()]/[capacity()] — the shape
    of every studied buggy site, whose fixes add exactly such a
    check. *)

open Ir

let has_len_guard (body : Mir.body) : bool =
  (* a VecLen result flowing into a comparison *)
  let len_dests = Hashtbl.create 4 in
  Array.iter
    (fun (blk : Mir.block) ->
      match blk.Mir.term with
      | Mir.Call ({ Mir.callee = Mir.Builtin Mir.VecLen; dest; _ }, _)
        when Mir.place_is_local dest ->
          Hashtbl.replace len_dests dest.Mir.base ()
      | _ -> ())
    body.Mir.blocks;
  let uses_len = function
    | (Mir.Copy p | Mir.Move p) when Mir.place_is_local p ->
        Hashtbl.mem len_dests p.Mir.base
    | _ -> false
  in
  (* propagate one level through copies *)
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign (dest, Mir.Use op)
            when Mir.place_is_local dest && uses_len op ->
              Hashtbl.replace len_dests dest.Mir.base ()
          | _ -> ())
        blk.Mir.stmts)
    body.Mir.blocks;
  Array.exists
    (fun (blk : Mir.block) ->
      List.exists
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign
              (_, Mir.BinaryOp ((Syntax.Ast.Lt | Syntax.Ast.Le | Syntax.Ast.Gt | Syntax.Ast.Ge | Syntax.Ast.Eq | Syntax.Ast.Ne), a, b)) ->
              uses_len a || uses_len b
          | _ -> false)
        blk.Mir.stmts)
    body.Mir.blocks

let run_body (body : Mir.body) : Report.finding list =
  let guarded = has_len_guard body in
  if guarded then []
  else begin
    let findings = ref [] in
    (* pointers derived from offset arithmetic *)
    let offset_ptrs = Hashtbl.create 4 in
    Array.iter
      (fun (blk : Mir.block) ->
        match blk.Mir.term with
        | Mir.Call ({ Mir.callee = Mir.Builtin Mir.PtrOffset; dest; _ }, _)
          when Mir.place_is_local dest ->
            Hashtbl.replace offset_ptrs dest.Mir.base ()
        | _ -> ())
      body.Mir.blocks;
    (* propagate through copies (fixpoint; chains are short) *)
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun (blk : Mir.block) ->
          List.iter
            (fun (s : Mir.stmt) ->
              match s.Mir.kind with
              | Mir.Assign (dest, Mir.Use (Mir.Copy p | Mir.Move p))
                when Mir.place_is_local dest && Mir.place_is_local p
                     && Hashtbl.mem offset_ptrs p.Mir.base
                     && not (Hashtbl.mem offset_ptrs dest.Mir.base) ->
                  Hashtbl.replace offset_ptrs dest.Mir.base ();
                  changed := true
              | _ -> ())
            blk.Mir.stmts)
        body.Mir.blocks
    done;
    Array.iter
      (fun (blk : Mir.block) ->
        (match blk.Mir.term with
        | Mir.Call ({ Mir.callee = Mir.Builtin Mir.VecGetUnchecked; call_span; _ }, _)
          ->
            findings :=
              Report.make ~kind:Report.Buffer_overflow ~confidence:Report.Medium
                ~fn_id:body.Mir.fn_id ~span:call_span
                "get_unchecked with an index that is never compared against the container length"
              :: !findings
        | Mir.Call ({ Mir.callee = Mir.Builtin Mir.PtrCopy; call_span; _ }, _)
          ->
            findings :=
              Report.make ~kind:Report.Buffer_overflow ~confidence:Report.Medium
                ~fn_id:body.Mir.fn_id ~span:call_span
                "copy_nonoverlapping with a size that is never compared against the destination capacity"
              :: !findings
        | _ -> ());
        List.iter
          (fun (s : Mir.stmt) ->
            let deref_of_offset (p : Mir.place) =
              (match p.Mir.proj with Mir.Deref :: _ -> true | _ -> false)
              && Hashtbl.mem offset_ptrs p.Mir.base
            in
            match s.Mir.kind with
            | Mir.Assign (dest, rv) ->
                let check_place p =
                  if deref_of_offset p then
                    findings :=
                      Report.make ~kind:Report.Buffer_overflow
                        ~confidence:Report.Medium ~fn_id:body.Mir.fn_id
                        ~span:s.Mir.s_span
                        "dereference of pointer arithmetic with an unchecked offset"
                      :: !findings
                in
                check_place dest;
                (match rv with
                | Mir.Use (Mir.Copy p | Mir.Move p) -> check_place p
                | _ -> ())
            | _ -> ())
          blk.Mir.stmts)
      body.Mir.blocks;
    !findings
  end

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  List.concat_map run_body (Gate.select ctx "buffer" ~gate:Gate.buffer)
