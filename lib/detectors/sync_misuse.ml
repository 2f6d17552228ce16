(** Interior-mutability / Sync misuse detector (paper §7.2, Suggestion 8):
    "When a struct is sharable (e.g., implementing the Sync trait) and
    has a method immutably borrowing self, we can analyze whether self
    is modified in the method and whether the modification is
    unsynchronized."

    Unsynchronized means: writes through a raw-pointer cast of [&self]
    (the Fig. 4 [TestCell] pattern), [Cell::set] on a field (Cell is not
    thread-safe), or [UnsafeCell] access — as opposed to writes through
    a [MutexGuard]/atomic, which are fine. *)

open Ir

let is_guard_base (body : Mir.body) (p : Mir.place) =
  Sema.Ty.is_lock_guard (Mir.local_ty body p.Mir.base)
  || Sema.Ty.is_refcell_guard (Mir.local_ty body p.Mir.base)

(* One body's findings, newest first. Only methods [Type::name] of a
   Sync type taking [&self] are examined. *)
let check_body ~sync_types (aliases_of : Mir.body -> Analysis.Alias.resolution)
    (body : Mir.body) : Report.finding list =
  let findings = ref [] in
  (match String.index_opt body.Mir.fn_id ':' with
  | Some i when i + 1 < String.length body.Mir.fn_id ->
      let type_head = String.sub body.Mir.fn_id 0 i in
      if List.mem type_head sync_types && Array.length body.Mir.locals > 0
      then begin
        let self_ty = body.Mir.locals.(0).Mir.l_ty in
        let self_is_shared_ref =
          match self_ty with
          | Sema.Ty.Ref (Sema.Ty.Imm, _) -> true
          | _ -> false
        in
        if self_is_shared_ref then begin
          let aliases = aliases_of body in
          let rooted_at_self (p : Mir.place) =
            (Analysis.Alias.path_of_place aliases p).Analysis.Alias.root
            = Analysis.Alias.Param 0
          in
          Array.iter
            (fun (blk : Mir.block) ->
              List.iter
                (fun (s : Mir.stmt) ->
                  match s.Mir.kind with
                  | Mir.Assign (dest, _)
                    when List.mem Mir.Deref dest.Mir.proj
                         && rooted_at_self dest
                         && Sema.Ty.is_raw_ptr (Mir.local_ty body dest.Mir.base)
                         && not (is_guard_base body dest) ->
                      findings :=
                        Report.make ~kind:Report.Sync_unsync_write
                          ~fn_id:body.Mir.fn_id ~span:s.Mir.s_span
                          "`%s` is Sync, but this &self method writes through a raw pointer into self without synchronization"
                          type_head
                        :: !findings
                  | _ -> ())
                blk.Mir.stmts;
              match blk.Mir.term with
              | Mir.Call ({ Mir.callee = Mir.Builtin Mir.CellSet; args; call_span; _ }, _)
                -> (
                  match args with
                  | (Mir.Copy p | Mir.Move p) :: _ when rooted_at_self p ->
                      findings :=
                        Report.make ~kind:Report.Sync_unsync_write
                          ~fn_id:body.Mir.fn_id ~span:call_span
                          "`%s` is Sync but mutates a Cell field; Cell is not thread-safe"
                          type_head
                        :: !findings
                  | _ -> ())
              | Mir.Call ({ Mir.callee = Mir.Builtin Mir.PtrWrite; args; call_span; _ }, _)
                -> (
                  match args with
                  | (Mir.Copy p | Mir.Move p) :: _ when rooted_at_self p ->
                      findings :=
                        Report.make ~kind:Report.Sync_unsync_write
                          ~fn_id:body.Mir.fn_id ~span:call_span
                          "`%s` is Sync, but this &self method ptr::writes into self without synchronization"
                          type_head
                        :: !findings
                  | _ -> ())
              | _ -> ())
            body.Mir.blocks
        end
      end
  | _ -> ());
  !findings

let sync_types (program : Mir.program) =
  List.map fst program.Mir.prog_env.Sema.Env.sync_impls

let run_body (program : Mir.program) (body : Mir.body) : Report.finding list =
  check_body ~sync_types:(sync_types program) Analysis.Alias.resolve body

(* newest finding first across the whole program, as one accumulator
   over the bodies in order would leave them *)
let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  let sync_types = sync_types (Analysis.Cache.program ctx) in
  List.concat
    (List.rev_map
       (check_body ~sync_types (Analysis.Cache.aliases ctx))
       (Gate.select ctx "sync_misuse" ~gate:Gate.sync_misuse))
