(** Double-free detector.

    Two patterns from the paper's study:

    - [ptr::read] duplicates ownership: [t2 = ptr::read(&t1)] leaves
      both [t1] and [t2] owning the same heap data; unless one side is
      neutralized ([mem::forget], move, or overwrite via [ptr::write]),
      both drops free it twice.
    - [Box::from_raw]/[Arc::from_raw] called twice on the same raw
      pointer mints two owners of one allocation. *)

open Ir
module Loc = Analysis.Pointsto.Loc
module LocSet = Analysis.Pointsto.LocSet

let check_body (pts : Analysis.Pointsto.t) (body : Mir.body) :
    Report.finding list =
  let findings = ref [] in
  let forgotten = Hashtbl.create 4 in
  (* locals passed to mem::forget or overwritten by ptr::write *)
  Array.iter
    (fun (blk : Mir.block) ->
      match blk.Mir.term with
      | Mir.Call ({ Mir.callee = Mir.Builtin Mir.MemForget; args; _ }, _) ->
          List.iter
            (function
              | Mir.Copy p | Mir.Move p when Mir.place_is_local p ->
                  Hashtbl.replace forgotten p.Mir.base ()
              | _ -> ())
            args
      | Mir.Call ({ Mir.callee = Mir.Builtin Mir.PtrWrite; args; _ }, _) -> (
          (* writing through a pointer to a local overwrites (re-inits)
             it without dropping: treated as neutralizing the source *)
          match args with
          | (Mir.Copy p | Mir.Move p) :: _ ->
              LocSet.iter
                (function
                  | Loc.LLocal l -> Hashtbl.replace forgotten l ()
                  | _ -> ())
                (Analysis.Pointsto.of_local pts p.Mir.base)
          | _ -> ())
      | _ -> ())
    body.Mir.blocks;
  (* dropped locals *)
  let dropped = Hashtbl.create 8 in
  (* forward copy edges so a value moved out of a call temp into a user
     local still counts as "this result gets dropped" *)
  let copy_edges = Hashtbl.create 8 in
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Drop p when Mir.place_is_local p ->
              Hashtbl.replace dropped p.Mir.base s.Mir.s_span
          | Mir.Assign (dest, Mir.Use (Mir.Copy p | Mir.Move p))
            when Mir.place_is_local dest && Mir.place_is_local p ->
              Hashtbl.add copy_edges p.Mir.base dest.Mir.base
          | _ -> ())
        blk.Mir.stmts)
    body.Mir.blocks;
  (* is l (or any local its value flows to) dropped? returns the span *)
  let rec flows_to_drop seen l =
    if List.mem l seen then None
    else
      match Hashtbl.find_opt dropped l with
      | Some span -> Some span
      | None ->
          List.fold_left
            (fun acc l2 ->
              match acc with
              | Some _ -> acc
              | None -> flows_to_drop (l :: seen) l2)
            None
            (Hashtbl.find_all copy_edges l)
  in
  (* pattern 1: ptr::read duplicating a still-owned local *)
  Array.iter
    (fun (blk : Mir.block) ->
      match blk.Mir.term with
      | Mir.Call
          ({ Mir.callee = Mir.Builtin Mir.PtrRead; args; dest; dest_ty; call_span; _ }, _)
        when Sema.Ty.needs_drop dest_ty -> (
          match args with
          | (Mir.Copy p | Mir.Move p) :: _ ->
              LocSet.iter
                (function
                  | Loc.LLocal src
                    when Hashtbl.mem dropped src
                         && (not (Hashtbl.mem forgotten src))
                         && Mir.place_is_local dest
                         && flows_to_drop [] dest.Mir.base <> None
                         && not (Hashtbl.mem forgotten dest.Mir.base) ->
                      (* the effect is the second implicit drop, which
                         happens in safe code at scope end *)
                      let drop_span =
                        Option.get (flows_to_drop [] dest.Mir.base)
                      in
                      findings :=
                        Report.make ~kind:Report.Double_free
                          ~fn_id:body.Mir.fn_id ~span:drop_span
                          ~related_span:call_span
                          "ptr::read duplicates ownership of `_%d`; both copies are dropped, freeing the same memory twice"
                          src
                        :: !findings
                  | _ -> ())
                (Analysis.Pointsto.of_local pts p.Mir.base)
          | _ -> ())
      | _ -> ())
    body.Mir.blocks;
  (* pattern 2: two from_raw on the same allocation *)
  let from_raw_sites = Hashtbl.create 4 in
  Array.iter
    (fun (blk : Mir.block) ->
      match blk.Mir.term with
      | Mir.Call ({ Mir.callee = Mir.Builtin Mir.FromRaw; args; call_span; _ }, _)
        -> (
          match args with
          | (Mir.Copy p | Mir.Move p) :: _ ->
              LocSet.iter
                (fun loc ->
                  match loc with
                  | Loc.LHeap _ | Loc.LLocal _ ->
                      let prev =
                        Option.value
                          (Hashtbl.find_opt from_raw_sites loc)
                          ~default:[]
                      in
                      Hashtbl.replace from_raw_sites loc (call_span :: prev)
                  | _ -> ())
                (Analysis.Pointsto.of_local pts p.Mir.base)
          | _ -> ())
      | _ -> ())
    body.Mir.blocks;
  Hashtbl.iter
    (fun _loc spans ->
      match spans with
      | s1 :: _ :: _ ->
          findings :=
            Report.make ~kind:Report.Double_free ~fn_id:body.Mir.fn_id ~span:s1
              "from_raw called more than once on the same raw pointer: two owners will both free the allocation"
            :: !findings
      | _ -> ())
    from_raw_sites;
  !findings

let run_body (body : Mir.body) : Report.finding list =
  check_body (Analysis.Pointsto.analyze body) body

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  List.concat_map
    (fun b -> check_body (Analysis.Cache.pointsto ctx b) b)
    (Gate.select ctx "double_free" ~gate:Gate.double_free)
