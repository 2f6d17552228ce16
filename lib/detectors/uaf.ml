(** Use-after-free detector (the paper's §7.1 static checker).

    Per the paper: "Our detector maintains the state of each variable
    (alive or dead) by monitoring when MIR calls StorageLive or
    StorageDead on the variable. For each pointer/reference, we conduct
    a points-to analysis [...]. When a pointer/reference is
    dereferenced, our tool checks if the object it points to is dead
    and reports a bug if so." Interprocedural coverage comes from
    deref-parameter summaries; external (FFI) callees are assumed to
    dereference their pointer arguments, which is what the CVE bug of
    Fig. 7 does. *)

open Ir
module IntSet = Analysis.Dataflow.IntSet
module Flow = Analysis.Dataflow.IntSetFlow
module Loc = Analysis.Pointsto.Loc
module LocSet = Analysis.Pointsto.LocSet

(* ------------------------------------------------------------------ *)
(* Deref-parameter summaries                                           *)
(* ------------------------------------------------------------------ *)

(* summary f = set of parameter indices that f (transitively)
   dereferences. *)
type summaries = (string, IntSet.t) Hashtbl.t

let place_derefs_base (p : Mir.place) =
  match p.Mir.proj with Mir.Deref :: _ -> true | _ -> false

let param_of_place (body : Mir.body) (p : Mir.place) =
  if p.Mir.base < body.Mir.arg_count then Some p.Mir.base else None

let operand_place = function
  | Mir.Copy p | Mir.Move p -> Some p
  | Mir.Const _ -> None

(* One pass over a body: parameter indices dereferenced directly, plus
   (callee, arg index -> param index) obligations.
   [assume_extern_derefs] is the paper's interprocedural assumption that
   FFI callees dereference their pointer arguments; turning it off
   removes the evaluation's three false positives but also misses the
   Fig. 7 CVE (the ablation bench measures both sides). *)
let direct_derefs ?(assume_extern_derefs = true)
    (aliases : Analysis.Alias.resolution Lazy.t) (body : Mir.body) :
    IntSet.t * (string * int * int) list =
  let direct = ref IntSet.empty in
  let oblig = ref [] in
  let note_place (p : Mir.place) =
    if place_derefs_base p then begin
      match
        (Analysis.Alias.path_of (Lazy.force aliases) p.Mir.base)
          .Analysis.Alias.root
      with
      | Analysis.Alias.Param i -> direct := IntSet.add i !direct
      | _ -> ()
    end
  in
  let note_operand op = Option.iter note_place (operand_place op) in
  let note_rvalue = function
    | Mir.Use op | Mir.Cast (op, _) | Mir.UnaryOp (_, op) -> note_operand op
    | Mir.BinaryOp (_, a, b) ->
        note_operand a;
        note_operand b
    | Mir.Aggregate (_, ops) -> List.iter note_operand ops
    | Mir.Ref (_, p) | Mir.AddrOf (_, p) ->
        (* borrowing a field through a deref of a param still reads it *)
        note_place p
    | Mir.Discriminant p -> note_place p
    | Mir.Alloc _ -> ()
  in
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.Assign (dest, rv) ->
              note_place dest;
              note_rvalue rv
          | Mir.Drop p -> note_place p
          | _ -> ())
        blk.Mir.stmts;
      match blk.Mir.term with
      | Mir.Call (c, _) -> (
          List.iter note_operand c.Mir.args;
          let callee_id =
            match c.Mir.callee with
            | Mir.Fn f -> Some f
            | Mir.Method (h, m) -> Some (h ^ "::" ^ m)
            | Mir.ClosureCall id -> Some id
            | Mir.Builtin (Mir.PtrRead | Mir.PtrWrite | Mir.PtrCopy) ->
                (* these deref their first pointer arg *)
                (match c.Mir.args with
                | op :: _ -> (
                    match operand_place op with
                    | Some p -> (
                        match
                          (Analysis.Alias.path_of (Lazy.force aliases)
                             p.Mir.base)
                            .Analysis.Alias.root
                        with
                        | Analysis.Alias.Param i ->
                            direct := IntSet.add i !direct
                        | _ -> ())
                    | None -> ())
                | [] -> ());
                None
            | Mir.Builtin (Mir.Extern _) when assume_extern_derefs ->
                (* assume FFI dereferences pointer args *)
                List.iteri
                  (fun _ op ->
                    match operand_place op with
                    | Some p
                      when Sema.Ty.is_raw_ptr (Mir.local_ty body p.Mir.base) -> (
                        match
                          (Analysis.Alias.path_of (Lazy.force aliases)
                             p.Mir.base)
                            .Analysis.Alias.root
                        with
                        | Analysis.Alias.Param i ->
                            direct := IntSet.add i !direct
                        | _ -> ())
                    | _ -> ())
                  c.Mir.args;
                None
            | Mir.Builtin _ -> None
          in
          match callee_id with
          | Some f ->
              List.iteri
                (fun ai op ->
                  match operand_place op with
                  | Some p when Mir.place_is_local p -> (
                      match param_of_place body p with
                      | Some pi -> oblig := (f, ai, pi) :: !oblig
                      | None -> ())
                  | _ -> ())
                c.Mir.args
          | None -> ())
      | _ -> ())
    body.Mir.blocks;
  (!direct, !oblig)

(* Memoised [direct_derefs], one slot per extern-assumption flag (the
   ablation bench runs both settings over one context). Aliases are
   forced only when the body actually dereferences something (or passes
   raw pointers to FFI) — most bodies never pay for alias resolution
   here. *)
let derefs_key_extern : (IntSet.t * (string * int * int) list) Analysis.Cache.Ext.key =
  Analysis.Cache.Ext.create ()

let derefs_key_no_extern :
    (IntSet.t * (string * int * int) list) Analysis.Cache.Ext.key =
  Analysis.Cache.Ext.create ()

let derefs_of ~assume_extern_derefs (ctx : Analysis.Cache.t) (body : Mir.body)
    : IntSet.t * (string * int * int) list =
  let key = if assume_extern_derefs then derefs_key_extern else derefs_key_no_extern in
  Analysis.Cache.ext ctx key body ~compute:(fun (b : Mir.body) ->
      direct_derefs ~assume_extern_derefs (lazy (Analysis.Cache.aliases ctx b)) b)

(* Recompute one function's deref-parameter set from its direct derefs
   plus its callees' current summaries. Shared by the legacy replay
   fixpoint and the SCC-scheduled engine: the transfer is monotone with
   a unique least fixpoint, so both modes converge to the same sets.
   [lookup] returning [None] means "no parameter dereferenced" (bottom),
   matching the replay table's membership test. *)
let summary_of_body ~assume_extern_derefs
    ~(lookup : string -> IntSet.t option) (ctx : Analysis.Cache.t)
    (body : Mir.body) : IntSet.t =
  let direct, oblig = derefs_of ~assume_extern_derefs ctx body in
  List.fold_left
    (fun acc (callee, ai, pi) ->
      match lookup callee with
      | Some cs when IntSet.mem ai cs -> IntSet.add pi acc
      | _ -> acc)
    direct oblig

(* Replay mode: the legacy whole-program fixpoint, kept behind
   [--interproc=replay] for differential testing. *)
let compute_summaries ?(assume_extern_derefs = true) (ctx : Analysis.Cache.t)
    : summaries =
  let tbl : summaries = Hashtbl.create 16 in
  let bodies = Mir.body_list (Analysis.Cache.program ctx) in
  List.iter
    (fun (b : Mir.body) ->
      Hashtbl.replace tbl b.Mir.fn_id
        (fst (derefs_of ~assume_extern_derefs ctx b)))
    bodies;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Mir.body) ->
        let cur = Hashtbl.find tbl b.Mir.fn_id in
        let next =
          summary_of_body ~assume_extern_derefs
            ~lookup:(Hashtbl.find_opt tbl) ctx b
        in
        if not (IntSet.equal cur next) then begin
          Hashtbl.replace tbl b.Mir.fn_id next;
          changed := true
        end)
      bodies
  done;
  tbl

(* Summary mode: the SCC-scheduled bottom-up engine, one per-context
   table per extern-assumption flag (the flag changes the summaries). *)
let summary_tbl_key_extern : summaries Analysis.Cache.Ext.key =
  Analysis.Cache.Ext.create ()

let summary_tbl_key_no_extern : summaries Analysis.Cache.Ext.key =
  Analysis.Cache.Ext.create ()

let summary_client ~assume_extern_derefs ctx : IntSet.t Analysis.Summary.client
    =
  {
    Analysis.Summary.name = "uaf";
    equal = IntSet.equal;
    compute =
      (fun ~lookup body ->
        summary_of_body ~assume_extern_derefs ~lookup ctx body);
  }

let engine_summaries ?domains ~assume_extern_derefs (ctx : Analysis.Cache.t) :
    summaries =
  let tbl_key =
    if assume_extern_derefs then summary_tbl_key_extern
    else summary_tbl_key_no_extern
  in
  Analysis.Cache.ext_program ctx tbl_key ~compute:(fun () ->
      Analysis.Summary.compute ?domains ctx
        (summary_client ~assume_extern_derefs ctx))

(* ------------------------------------------------------------------ *)
(* The detector                                                        *)
(* ------------------------------------------------------------------ *)

let callee_derefs_arg ?(assume_extern_derefs = true) (summaries : summaries)
    (callee : Mir.callee) ai arg_ty =
  match callee with
  | Mir.Builtin (Mir.PtrRead | Mir.PtrWrite | Mir.PtrCopy) -> ai = 0 || ai = 1
  | Mir.Builtin (Mir.Extern _) ->
      assume_extern_derefs && Sema.Ty.is_raw_ptr arg_ty
  | Mir.Fn f | Mir.ClosureCall f -> (
      match Hashtbl.find_opt summaries f with
      | Some s when IntSet.mem ai s ->
          Analysis.Summary.note_instantiated "uaf";
          true
      | _ -> false)
  | Mir.Method (h, m) -> (
      match Hashtbl.find_opt summaries (h ^ "::" ^ m) with
      | Some s when IntSet.mem ai s ->
          Analysis.Summary.note_instantiated "uaf";
          true
      | _ -> false)
  | Mir.Builtin _ -> false

let check_body ?(assume_extern_derefs = true) (ctx : Analysis.Cache.t)
    (summaries : summaries) (body : Mir.body) : Report.finding list =
  (* Every check below fires only on a dereference of a raw-pointer- or
     reference-typed base, so a body without a single pointer-typed
     local cannot report — skip it before paying for its points-to and
     storage analyses. *)
  if
    not
      (Array.exists
         (fun (li : Mir.local_info) ->
           Sema.Ty.is_raw_ptr li.Mir.l_ty || Sema.Ty.is_ref li.Mir.l_ty)
         body.Mir.locals)
  then []
  else begin
  let pts = Analysis.Cache.pointsto ctx body in
  let invalid = Analysis.Cache.storage ctx body in
  let findings = ref [] in
  (* the replay honours the same wall-clock budget as the fixpoints:
     one deadline poll per block, stop scanning (and report W0402 —
     findings then cover a prefix of the body) once it expires *)
  let dl = Support.Deadline.token () in
  let stopped = ref false in
  let block_budget_ok () =
    if !stopped then false
    else if Support.Deadline.expired dl then begin
      stopped := true;
      false
    end
    else true
  in
  let report ~span ~target l =
    let name =
      match body.Mir.locals.(target).Mir.l_name with
      | Some n -> n
      | None -> Printf.sprintf "_%d" target
    in
    findings :=
      Report.make ~kind:Report.Use_after_free ~fn_id:body.Mir.fn_id ~span
        ~related_span:body.Mir.locals.(target).Mir.l_span
        "pointer `_%d` dereferenced after the object `%s` it points to was dropped or went out of scope"
        l name
      :: !findings
  in
  if Array.length body.Mir.locals <= Support.Bitset.word_bits then begin
    (* ---- word kernel path (every realistic body): the invalid-set is
       replayed as one unboxed machine word, and the dead-pointee test
       is a single [land] against the first word of the points-to set —
       interned pointee ids below the local count are exactly the
       [LLocal] ids, so the intersection keeps only dead locals. The
       reported pointee is the max id, matching the element the
       original LocSet-fold formulation surfaced first. *)
    let dead_pointee (state : int) (l : Mir.local) : Mir.local option =
      let d =
        state land Support.Bitset.word0 (Analysis.Pointsto.pointee_bits pts l)
      in
      if d = 0 then None else Some (Support.Bitset.msb d)
    in
    (* test the projection first: almost no places project through a
       Deref, and the type lookups are the expensive half of the test *)
    let check_place state span (p : Mir.place) =
      match p.Mir.proj with
      | Mir.Deref :: _ -> (
          let base_ty = Mir.local_ty body p.Mir.base in
          if Sema.Ty.is_raw_ptr base_ty || Sema.Ty.is_ref base_ty then
            match dead_pointee state p.Mir.base with
            | Some tgt -> report ~span ~target:tgt p.Mir.base
            | None -> ())
      | _ -> ()
    in
    let check_operand state span op =
      match op with
      | Mir.Copy p | Mir.Move p -> check_place state span p
      | Mir.Const _ -> ()
    in
    let check_stmt state (s : Mir.stmt) =
      match s.Mir.kind with
      | Mir.Assign (dest, rv) -> (
          let s_span = s.Mir.s_span in
          check_place state s_span dest;
          match rv with
          | Mir.Use op | Mir.Cast (op, _) | Mir.UnaryOp (_, op) ->
              check_operand state s_span op
          | Mir.BinaryOp (_, a, b) ->
              check_operand state s_span a;
              check_operand state s_span b
          | Mir.Aggregate (_, ops) ->
              List.iter (check_operand state s_span) ops
          | Mir.Ref (_, p) | Mir.AddrOf (_, p) ->
              if List.mem Mir.Deref p.Mir.proj then check_place state s_span p
          | Mir.Discriminant _ | Mir.Alloc _ -> ())
      | _ -> ()
    in
    let check_term state (t : Mir.terminator) =
      match t with
      | Mir.Call (c, _) ->
          List.iteri
            (fun ai op ->
              match op with
              | Mir.Copy p | Mir.Move p ->
                  check_place state c.Mir.call_span p;
                  (* passing a pointer to dead memory into a callee
                     that dereferences it *)
                  if
                    Mir.place_is_local p
                    && Sema.Ty.is_raw_ptr (Mir.local_ty body p.Mir.base)
                    && callee_derefs_arg ~assume_extern_derefs summaries
                         c.Mir.callee ai
                         (Mir.local_ty body p.Mir.base)
                  then begin
                    match dead_pointee state p.Mir.base with
                    | Some tgt ->
                        report ~span:c.Mir.call_span ~target:tgt p.Mir.base
                    | None -> ()
                  end
              | Mir.Const _ -> ())
            c.Mir.args
      | _ -> ()
    in
    (* skip blocks that cannot report: the transfers only *add* locals
       (at StorageDead and Drop), so a block with an empty entry word
       and neither statement kind keeps an empty state throughout *)
    Array.iteri
      (fun i (blk : Mir.block) ->
        let entry = Support.Bitset.word0 invalid.Flow.entry.(i) in
        if
          block_budget_ok ()
          && (entry <> 0
             || List.exists
                  (fun (s : Mir.stmt) ->
                    match s.Mir.kind with
                    | Mir.StorageDead _ | Mir.Drop _ -> true
                    | _ -> false)
                  blk.Mir.stmts)
        then begin
          let state = ref entry in
          List.iter
            (fun s ->
              check_stmt !state s;
              state := Analysis.Storage.word_stmt !state s)
            blk.Mir.stmts;
          check_term !state blk.Mir.term
        end)
      body.Mir.blocks
  end
  else begin
  (* ---- generic bitset path (bodies with more locals than fit one
     word); must mirror the word path above — the kernel differential
     tests hold the two to the same findings *)
  let dead_pointee (state : IntSet.t) (l : Mir.local) : Mir.local option =
    Support.Bitset.max_elt_opt
      (Support.Bitset.inter state (Analysis.Pointsto.pointee_bits pts l))
  in
  let check_place state span (p : Mir.place) =
    match p.Mir.proj with
    | Mir.Deref :: _ -> (
        let base_ty = Mir.local_ty body p.Mir.base in
        if Sema.Ty.is_raw_ptr base_ty || Sema.Ty.is_ref base_ty then
          match dead_pointee state p.Mir.base with
          | Some tgt -> report ~span ~target:tgt p.Mir.base
          | None -> ())
    | _ -> ()
  in
  let check_operand state span op =
    match op with
    | Mir.Copy p | Mir.Move p -> check_place state span p
    | Mir.Const _ -> ()
  in
  let check_stmt state (s : Mir.stmt) =
    match s.Mir.kind with
    | Mir.Assign (dest, rv) -> (
        let s_span = s.Mir.s_span in
        check_place state s_span dest;
        match rv with
        | Mir.Use op | Mir.Cast (op, _) | Mir.UnaryOp (_, op) ->
            check_operand state s_span op
        | Mir.BinaryOp (_, a, b) ->
            check_operand state s_span a;
            check_operand state s_span b
        | Mir.Aggregate (_, ops) -> List.iter (check_operand state s_span) ops
        | Mir.Ref (_, p) | Mir.AddrOf (_, p) ->
            if List.mem Mir.Deref p.Mir.proj then check_place state s_span p
        | Mir.Discriminant _ | Mir.Alloc _ -> ())
    | _ -> ()
  in
  let check_term state (t : Mir.terminator) =
    match t with
    | Mir.Call (c, _) ->
        List.iteri
          (fun ai op ->
            match op with
            | Mir.Copy p | Mir.Move p ->
                check_place state c.Mir.call_span p;
                (* passing a pointer to dead memory into a callee that
                   dereferences it *)
                if
                  Mir.place_is_local p
                  && Sema.Ty.is_raw_ptr (Mir.local_ty body p.Mir.base)
                  && callee_derefs_arg ~assume_extern_derefs summaries
                       c.Mir.callee ai
                       (Mir.local_ty body p.Mir.base)
                then begin
                  match dead_pointee state p.Mir.base with
                  | Some tgt ->
                      report ~span:c.Mir.call_span ~target:tgt p.Mir.base
                  | None -> ()
                end
            | Mir.Const _ -> ())
          c.Mir.args
    | _ -> ()
  in
  (* Replay the invalid-set through each block — but skip blocks that
     cannot report: the transfers only *add* locals (at StorageDead and
     Drop), so a block with an empty entry set and neither statement
     kind keeps an empty state throughout, and no dereference in it can
     see a dead pointee. *)
  Array.iteri
    (fun i (blk : Mir.block) ->
      let entry = invalid.Flow.entry.(i) in
      if
        block_budget_ok ()
        && ((not (IntSet.is_empty entry))
           || List.exists
                (fun (s : Mir.stmt) ->
                  match s.Mir.kind with
                  | Mir.StorageDead _ | Mir.Drop _ -> true
                  | _ -> false)
                blk.Mir.stmts)
      then begin
        let state = ref entry in
        List.iter
          (fun s ->
            check_stmt !state s;
            state := Analysis.Storage.transfer_stmt !state s)
          blk.Mir.stmts;
        check_term !state blk.Mir.term
      end)
    body.Mir.blocks
  end;
  if !stopped then
    Analysis.Cache.deadline_warning ctx body.Mir.fn_id "use-after-free replay";
  !findings
  end

(** Run the use-after-free detector with a shared analysis context.
    [?mode] picks the SCC-scheduled summary engine vs the legacy replay
    fixpoint (defaults to [Analysis.Summary.default_mode ()]); both
    converge to the same least fixpoint, so the findings agree. *)
let run_ctx ?(assume_extern_derefs = true) ?mode (ctx : Analysis.Cache.t) :
    Report.finding list =
  let summaries =
    match Analysis.Summary.resolve_mode mode with
    | Analysis.Summary.Summary -> engine_summaries ~assume_extern_derefs ctx
    | Analysis.Summary.Replay -> compute_summaries ~assume_extern_derefs ctx
  in
  List.concat_map
    (check_body ~assume_extern_derefs ctx summaries)
    (Mir.body_list (Analysis.Cache.program ctx))

(** Run the use-after-free detector over a whole program. *)
let run ?assume_extern_derefs ?mode (program : Mir.program) :
    Report.finding list =
  run_ctx ?assume_extern_derefs ?mode (Analysis.Cache.create program)
