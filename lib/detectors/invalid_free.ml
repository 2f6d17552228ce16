(** Invalid-free detector (the paper's Fig. 6 Redox bug).

    Assigning a struct through a raw pointer into freshly allocated,
    uninitialized memory first drops the "previous value" at that
    address — but that memory holds garbage, so the drop frees invalid
    pointers. The detector flags [Drop] of a deref-place whose pointer
    targets a heap allocation that no program path has initialized. *)

open Ir
module Loc = Analysis.Pointsto.Loc
module LocSet = Analysis.Pointsto.LocSet

let check_body (pts : Analysis.Pointsto.t) (body : Mir.body) :
    Report.finding list =
  (* collect heap sites initialized by a write through any pointer *)
  let initialized = Hashtbl.create 8 in
  let findings = ref [] in
  let heap_sites_of (p : Mir.place) =
    if List.mem Mir.Deref p.Mir.proj then
      LocSet.fold
        (fun loc acc ->
          match loc with Loc.LHeap h -> h :: acc | _ -> acc)
        (Analysis.Pointsto.of_local pts p.Mir.base)
        []
    else []
  in
  (* Pass 1 happens in program order: a Drop before any initializing
     write to the same site is invalid. ptr::write initializes WITHOUT
     dropping, which is the correct idiom (the bug's fix). *)
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Drop p -> (
              match
                List.filter
                  (fun h -> not (Hashtbl.mem initialized h))
                  (heap_sites_of p)
              with
              | _ :: _ ->
                  findings :=
                    Report.make ~kind:Report.Invalid_free ~fn_id:body.Mir.fn_id
                      ~span:s.Mir.s_span
                      "assignment through raw pointer drops the previous value, but the pointed-to allocation is uninitialized: freeing garbage field pointers"
                    :: !findings
              | [] -> ())
          | Mir.Assign (p, _) ->
              List.iter
                (fun h -> Hashtbl.replace initialized h ())
                (heap_sites_of p)
          | _ -> ())
        blk.Mir.stmts;
      match blk.Mir.term with
      | Mir.Call ({ Mir.callee = Mir.Builtin (Mir.PtrWrite | Mir.PtrCopy); args; _ }, _)
        -> (
          match args with
          | (Mir.Copy p | Mir.Move p) :: _ ->
              LocSet.iter
                (function
                  | Loc.LHeap h -> Hashtbl.replace initialized h ()
                  | _ -> ())
                (Analysis.Pointsto.of_local pts p.Mir.base)
          | _ -> ())
      | _ -> ())
    body.Mir.blocks;
  !findings

let run_body (body : Mir.body) : Report.finding list =
  check_body (Analysis.Pointsto.analyze body) body

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  let gate s = Gate.invalid_free s || Gate.invalid_free_uninit s in
  List.concat_map
    (fun b ->
      let s = Analysis.Cache.sites ctx b in
      (if Gate.invalid_free s then check_body (Analysis.Cache.pointsto ctx b) b
       else [])
      @ if Gate.invalid_free_uninit s then Uninit.uninit_drop b else [])
    (Gate.select ctx "invalid_free" ~gate)
