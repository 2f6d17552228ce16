(** Lightweight type inference for RustLite expressions.

    Bottom-up typing with a local environment; no unification. Where
    Rust would need inference variables (e.g. [Vec::new()] with the
    element type fixed by later pushes), RustLite programs annotate the
    binding, and anything genuinely undetermined becomes [Ty.Unknown] —
    analyses treat [Unknown] conservatively. *)

open Syntax

type gamma = (string * Ty.t) list
(** Local typing environment, innermost binding first. *)

let lookup gamma name = List.assoc_opt name gamma

let lit_ty = function
  | Ast.Lit_int (_, suffix) -> (
      match Ty.prim_of_name suffix with
      | Some p -> Ty.Prim p
      | None -> Ty.i32)
  | Ast.Lit_bool _ -> Ty.bool_
  | Ast.Lit_str _ -> Ty.Ref (Imm, Ty.str_)
  | Ast.Lit_char _ -> Ty.Prim Ty.Char
  | Ast.Lit_float _ -> Ty.Prim Ty.F64
  | Ast.Lit_unit -> Ty.unit_

(* ------------------------------------------------------------------ *)
(* Builtin free functions and associated constructors                  *)
(* ------------------------------------------------------------------ *)

(* Matched against the last one or two path segments, so both
   [ptr::read] and [std::ptr::read] resolve. [targs] are explicit
   turbofish arguments; [argts] the argument types. *)
let builtin_path_fn segments (targs : Ty.t list) (argts : Ty.t list) :
    Ty.t option =
  let arg0 () = match argts with a :: _ -> a | [] -> Ty.Unknown in
  let targ0 () = match targs with a :: _ -> a | [] -> Ty.Unknown in
  let tail2 =
    match List.rev segments with
    | last :: prev :: _ -> [ prev; last ]
    | rest -> List.rev rest
  in
  let pointee t = match t with Ty.Ptr (_, p) | Ty.Ref (_, p) -> p | _ -> Ty.Unknown in
  match tail2 with
  | [ "ptr"; "read" ] | [ "read_volatile" ] -> Some (pointee (arg0 ()))
  | [ "ptr"; "write" ] | [ "ptr"; "write_volatile" ] -> Some Ty.unit_
  | [ "ptr"; "copy_nonoverlapping" ] | [ "ptr"; "copy" ] -> Some Ty.unit_
  | [ "ptr"; "null" ] -> Some (Ty.Ptr (Imm, targ0 ()))
  | [ "ptr"; "null_mut" ] -> Some (Ty.Ptr (Mut, targ0 ()))
  | [ "ptr"; "drop_in_place" ] -> Some Ty.unit_
  | [ "mem"; "drop" ] | [ "drop" ] -> Some Ty.unit_
  | [ "mem"; "forget" ] -> Some Ty.unit_
  | [ "mem"; "swap" ] -> Some Ty.unit_
  | [ "mem"; "replace" ] -> Some (pointee (arg0 ()))
  | [ "mem"; "transmute" ] -> Some (targ0 ())
  | [ "mem"; "size_of" ] | [ "size_of" ] -> Some Ty.usize
  | [ "mem"; "uninitialized" ] -> Some (targ0 ())
  | [ "mem"; "zeroed" ] -> Some (targ0 ())
  | [ "alloc"; "alloc" ] | [ "alloc" ] | [ "malloc" ] -> Some (Ty.Ptr (Mut, Ty.Prim Ty.U8))
  | [ "alloc"; "dealloc" ] | [ "dealloc" ] | [ "free" ] -> Some Ty.unit_
  | [ "thread"; "spawn" ] | [ "spawn" ] -> Some (Ty.Named ("JoinHandle", [ Ty.Unknown ]))
  | [ "thread"; "sleep" ] | [ "sleep" ] -> Some Ty.unit_
  | [ "mpsc"; "channel" ] | [ "channel" ] ->
      let t = targ0 () in
      Some (Ty.Tuple [ Ty.Named ("Sender", [ t ]); Ty.Named ("Receiver", [ t ]) ])
  | [ "mpsc"; "sync_channel" ] | [ "sync_channel" ] ->
      let t = targ0 () in
      Some (Ty.Tuple [ Ty.Named ("SyncSender", [ t ]); Ty.Named ("Receiver", [ t ]) ])
  | _ -> None

(* Constructor-style associated functions on std types: [Type::fn]. *)
let builtin_assoc_fn type_head fn_name (targs : Ty.t list) (argts : Ty.t list)
    : Ty.t option =
  let arg0 () = match argts with a :: _ -> a | [] -> Ty.Unknown in
  let targ0 () = match targs with a :: _ -> a | [] -> Ty.Unknown in
  match (type_head, fn_name) with
  | ("Arc" | "Rc" | "Box" | "Mutex" | "RwLock" | "RefCell" | "Cell"
    | "ManuallyDrop" | "UnsafeCell"), "new" ->
      Some (Ty.Named (type_head, [ arg0 () ]))
  | "Condvar", "new" -> Some (Ty.Named ("Condvar", []))
  | "Once", "new" -> Some (Ty.Named ("Once", []))
  | "Vec", "new" -> Some (Ty.Named ("Vec", [ targ0 () ]))
  | "Vec", "with_capacity" -> Some (Ty.Named ("Vec", [ targ0 () ]))
  | "Vec", "from_raw_parts" ->
      let elem = match arg0 () with Ty.Ptr (_, t) -> t | _ -> targ0 () in
      Some (Ty.Named ("Vec", [ elem ]))
  | "String", ("new" | "from" | "from_utf8_unchecked" | "with_capacity") ->
      Some Ty.string_
  | ( ("AtomicBool" | "AtomicUsize" | "AtomicIsize" | "AtomicI32" | "AtomicU32"
      | "AtomicI64" | "AtomicU64"), "new" ) ->
      Some (Ty.Named (type_head, []))
  | ("Arc" | "Rc"), "into_raw" -> Some (Ty.Ptr (Imm, Ty.first_arg (arg0 ())))
  | ("Arc" | "Rc"), "from_raw" ->
      let inner = match arg0 () with Ty.Ptr (_, t) -> t | _ -> targ0 () in
      Some (Ty.Named (type_head, [ inner ]))
  | ("Arc" | "Rc"), "strong_count" -> Some Ty.usize
  | "Box", "into_raw" -> Some (Ty.Ptr (Mut, Ty.first_arg (arg0 ())))
  | "Box", "from_raw" ->
      let inner = match arg0 () with Ty.Ptr (_, t) -> t | _ -> targ0 () in
      Some (Ty.Named ("Box", [ inner ]))
  | "Instant", "now" -> Some (Ty.Named ("Instant", []))
  | "Duration", ("from_secs" | "from_millis") -> Some (Ty.Named ("Duration", []))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Builtin methods                                                     *)
(* ------------------------------------------------------------------ *)

(* [recv] is already peeled of references (but not of the lock/cell
   wrapper itself). Returns the method's result type. *)
let builtin_method (recv : Ty.t) name (targs : Ty.t list)
    (argts : Ty.t list) : Ty.t option =
  let a () = Ty.first_arg recv in
  let arg0 () = match argts with x :: _ -> x | [] -> Ty.Unknown in
  let err = Ty.Named ("PoisonError", []) in
  match (Ty.head_name recv, name) with
  | Some "Mutex", ("lock" | "try_lock") ->
      Some (Ty.Named ("Result", [ Ty.Named ("MutexGuard", [ a () ]); err ]))
  | Some "RwLock", ("read" | "try_read") ->
      Some (Ty.Named ("Result", [ Ty.Named ("RwLockReadGuard", [ a () ]); err ]))
  | Some "RwLock", ("write" | "try_write") ->
      Some (Ty.Named ("Result", [ Ty.Named ("RwLockWriteGuard", [ a () ]); err ]))
  | Some "Result", ("unwrap" | "expect" | "unwrap_or" | "unwrap_or_else"
                   | "unwrap_or_propagate") ->
      Some (a ())
  | Some "Result", ("is_ok" | "is_err") -> Some Ty.bool_
  | Some "Result", "ok" -> Some (Ty.Named ("Option", [ a () ]))
  | Some "Option", ("unwrap" | "expect" | "unwrap_or" | "unwrap_or_else"
                   | "take_unchecked" | "unwrap_or_propagate") ->
      Some (a ())
  | Some "Option", ("is_some" | "is_none") -> Some Ty.bool_
  | Some "Option", "take" -> Some (Ty.Named ("Option", [ a () ]))
  | Some "Option", "as_ref" ->
      Some (Ty.Named ("Option", [ Ty.Ref (Imm, a ()) ]))
  | Some "Option", "as_mut" ->
      Some (Ty.Named ("Option", [ Ty.Ref (Mut, a ()) ]))
  | Some "Option", ("map" | "and_then") -> Some (Ty.Named ("Option", [ Ty.Unknown ]))
  | Some "Option", "map_or" -> Some (arg0 ())
  | Some "Vec", "push" -> Some Ty.unit_
  | Some "Vec", "pop" -> Some (Ty.Named ("Option", [ a () ]))
  | Some "Vec", ("len" | "capacity") -> Some Ty.usize
  | Some "Vec", "is_empty" -> Some Ty.bool_
  | Some "Vec", "get" -> Some (Ty.Named ("Option", [ Ty.Ref (Imm, a ()) ]))
  | Some "Vec", "get_mut" -> Some (Ty.Named ("Option", [ Ty.Ref (Mut, a ()) ]))
  | Some "Vec", "get_unchecked" -> Some (Ty.Ref (Imm, a ()))
  | Some "Vec", "get_unchecked_mut" -> Some (Ty.Ref (Mut, a ()))
  | Some "Vec", "as_ptr" -> Some (Ty.Ptr (Imm, a ()))
  | Some "Vec", "as_mut_ptr" -> Some (Ty.Ptr (Mut, a ()))
  | Some "Vec", ("set_len" | "clear" | "truncate" | "reserve"
                | "copy_from_slice" | "extend_from_slice" | "insert") ->
      Some Ty.unit_
  | Some "Vec", "remove" -> Some (a ())
  | Some "Vec", ("iter" | "iter_mut" | "into_iter" | "drain") ->
      Some (Ty.Named ("Iter", [ a () ]))
  | Some "Vec", "clone" -> Some recv
  | Some "Iter", "next" -> Some (Ty.Named ("Option", [ a () ]))
  | Some ("Arc" | "Rc"), "clone" -> Some recv
  | Some "RefCell", "borrow" -> Some (Ty.Named ("CellRef", [ a () ]))
  | Some "RefCell", "borrow_mut" -> Some (Ty.Named ("CellRefMut", [ a () ]))
  | Some "Cell", "get" -> Some (a ())
  | Some "Cell", "set" -> Some Ty.unit_
  | Some "Cell", "replace" -> Some (a ())
  | Some "UnsafeCell", "get" -> Some (Ty.Ptr (Mut, a ()))
  | Some ("AtomicBool"), ("load" | "swap" | "compare_and_swap") -> Some Ty.bool_
  | Some ("AtomicBool"), "store" -> Some Ty.unit_
  | Some ("AtomicBool"), "compare_exchange" ->
      Some (Ty.Named ("Result", [ Ty.bool_; Ty.bool_ ]))
  | Some ("AtomicUsize" | "AtomicIsize" | "AtomicI32" | "AtomicU32"
         | "AtomicI64" | "AtomicU64"), ("load" | "swap" | "compare_and_swap"
                                       | "fetch_add" | "fetch_sub") ->
      Some Ty.usize
  | Some ("AtomicUsize" | "AtomicIsize" | "AtomicI32" | "AtomicU32"
         | "AtomicI64" | "AtomicU64"), "store" ->
      Some Ty.unit_
  | ( Some ("AtomicUsize" | "AtomicIsize" | "AtomicI32" | "AtomicU32"
           | "AtomicI64" | "AtomicU64"), "compare_exchange" ) ->
      Some (Ty.Named ("Result", [ Ty.usize; Ty.usize ]))
  | Some "Condvar", "wait" -> (
      (* wait(guard) returns the guard back *)
      match argts with
      | g :: _ -> Some (Ty.Named ("Result", [ g; err ]))
      | [] -> Some Ty.Unknown)
  | Some "Condvar", "wait_timeout" -> (
      match argts with
      | g :: _ -> Some (Ty.Named ("Result", [ Ty.Tuple [ g; Ty.bool_ ]; err ]))
      | [] -> Some Ty.Unknown)
  | Some "Condvar", ("notify_one" | "notify_all") -> Some Ty.unit_
  | Some ("Sender" | "SyncSender"), "send" ->
      Some (Ty.Named ("Result", [ Ty.unit_; Ty.Named ("SendError", []) ]))
  | Some ("Sender" | "SyncSender"), "clone" -> Some recv
  | Some "Receiver", ("recv" | "try_recv") ->
      Some (Ty.Named ("Result", [ a (); Ty.Named ("RecvError", []) ]))
  | Some "JoinHandle", "join" ->
      Some (Ty.Named ("Result", [ a (); Ty.Unknown ]))
  | Some "Once", "call_once" -> Some Ty.unit_
  | Some "String", ("len" | "capacity") -> Some Ty.usize
  | Some "String", ("push_str" | "push" | "clear") -> Some Ty.unit_
  | Some "String", "as_ptr" -> Some (Ty.Ptr (Imm, Ty.Prim Ty.U8))
  | Some "String", "as_bytes" ->
      Some (Ty.Ref (Imm, Ty.Named ("Vec", [ Ty.Prim Ty.U8 ])))
  | Some "String", "clone" -> Some recv
  | Some "str", ("len") -> Some Ty.usize
  | Some "str", "to_string" -> Some Ty.string_
  | Some "Instant", "elapsed" -> Some (Ty.Named ("Duration", []))
  | Some "Duration", "as_millis" -> Some Ty.usize
  | _, "offset" | _, "add" when Ty.is_raw_ptr recv -> Some recv
  | _, "is_null" when Ty.is_raw_ptr recv -> Some Ty.bool_
  | _, ("read" | "read_volatile") when Ty.is_raw_ptr recv ->
      (match recv with Ty.Ptr (_, t) -> Some t | _ -> None)
  | _, ("write" | "write_volatile") when Ty.is_raw_ptr recv -> Some Ty.unit_
  | _, "clone" -> Some recv
  | _, "to_string" -> Some Ty.string_
  | _, "as_ptr" -> Some (Ty.Ptr (Imm, recv))
  | _, "as_mut_ptr" -> Some (Ty.Ptr (Mut, recv))
  | _ ->
      ignore targs;
      None

(* ------------------------------------------------------------------ *)
(* Signatures                                                          *)
(* ------------------------------------------------------------------ *)

(** Parameter and return types of a function. [self_ty] instantiates
    the receiver for methods. Reads the signature {!Env.of_crate}
    resolved; only the receiver, when there is one, is built here. *)
let fn_sig env ?self_ty (fd : Syntax.Ast.fn_def) : Ty.t list * Ty.t =
  let param_ty = function
    | Ast.Param_self None -> Option.value self_ty ~default:Ty.Unknown
    | Ast.Param_self (Some m) ->
        Ty.Ref (m, Option.value self_ty ~default:Ty.Unknown)
    | Ast.Param (_, _, ty) -> Env.ty_of_ast env ty
  in
  match Env.resolved_sig env fd with
  | Some s -> (
      match (fd.Ast.fn_params, s.Env.sig_params, self_ty) with
      | (Ast.Param_self _ as p) :: _, _ :: rest, Some _ ->
          (param_ty p :: rest, s.Env.sig_ret)
      | _ -> (s.Env.sig_params, s.Env.sig_ret))
  | None ->
      let ret =
        match fd.Ast.fn_ret with
        | Some t -> Env.ty_of_ast env t
        | None -> Ty.unit_
      in
      (List.map param_ty fd.Ast.fn_params, ret)

(* ------------------------------------------------------------------ *)
(* Expression typing                                                   *)
(* ------------------------------------------------------------------ *)

let rec type_of_expr (env : Env.t) (gamma : gamma) (e : Ast.expr) : Ty.t =
  match e.Ast.e with
  | Ast.E_lit l -> lit_ty l
  | Ast.E_path (p, targs) -> type_of_path env gamma p targs ~args:None
  | Ast.E_call (callee, args) -> (
      let argts = List.map (type_of_expr env gamma) args in
      match callee.Ast.e with
      | Ast.E_path (p, targs) ->
          let targs = List.map (Env.ty_of_ast env) targs in
          type_of_path_call env gamma p targs argts
      | _ -> (
          match type_of_expr env gamma callee with
          | Ty.Fn (_, ret) -> ret
          | _ -> Ty.Unknown))
  | Ast.E_method (recv, name, targs, args) ->
      let recv_ty = type_of_expr env gamma recv in
      let argts = List.map (type_of_expr env gamma) args in
      let targs = List.map (Env.ty_of_ast env) targs in
      type_of_method env recv_ty name targs argts
  | Ast.E_field (recv, fname) -> (
      let recv_ty = Ty.peel (type_of_expr env gamma recv) in
      match recv_ty with
      | Ty.Named (head, targs) -> (
          match Env.find_struct env head with
          | Some sd -> (
              match Env.field_ty env sd targs fname with
              | Some t -> t
              | None -> Ty.Unknown)
          | None -> Ty.Unknown)
      | _ -> Ty.Unknown)
  | Ast.E_tuple_field (recv, i) -> (
      match Ty.peel (type_of_expr env gamma recv) with
      | Ty.Tuple ts when i < List.length ts -> List.nth ts i
      | _ -> Ty.Unknown)
  | Ast.E_index (recv, _) -> (
      match Ty.peel (type_of_expr env gamma recv) with
      | Ty.Named ("Vec", [ t ]) -> t
      | Ty.Named ("String", _) -> Ty.Prim Ty.U8
      | _ -> Ty.Unknown)
  | Ast.E_unary (Ast.Deref, inner) -> (
      match type_of_expr env gamma inner with
      | Ty.Ref (_, t) | Ty.Ptr (_, t) -> t
      | t -> (
          match Ty.autoderef_target t with Some t' -> t' | None -> Ty.Unknown))
  | Ast.E_unary (Ast.Neg, inner) -> type_of_expr env gamma inner
  | Ast.E_unary (Ast.Not, inner) -> type_of_expr env gamma inner
  | Ast.E_binary (op, l, _) -> (
      match op with
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or
        ->
          Ty.bool_
      | _ -> type_of_expr env gamma l)
  | Ast.E_ref (m, inner) -> Ty.Ref (m, type_of_expr env gamma inner)
  | Ast.E_assign _ | Ast.E_assign_op _ -> Ty.unit_
  | Ast.E_cast (_, ty) -> Env.ty_of_ast env ty
  | Ast.E_if (_, blk, els) -> (
      match block_ty env gamma blk with
      | Ty.Unknown -> (
          match els with
          | Some e -> type_of_expr env gamma e
          | None -> Ty.unit_)
      | t -> t)
  | Ast.E_if_let (_, _, blk, els) -> (
      match block_ty env gamma blk with
      | Ty.Unknown -> (
          match els with
          | Some e -> type_of_expr env gamma e
          | None -> Ty.unit_)
      | t -> t)
  | Ast.E_match (scrut, arms) -> (
      let scrut_ty = type_of_expr env gamma scrut in
      match arms with
      | [] -> Ty.unit_
      | arm :: _ ->
          let gamma' = bind_pattern env gamma arm.Ast.arm_pat scrut_ty in
          type_of_expr env gamma' arm.Ast.arm_body)
  | Ast.E_while _ | Ast.E_while_let _ | Ast.E_for _ -> Ty.unit_
  | Ast.E_loop _ -> Ty.unit_
  | Ast.E_block blk | Ast.E_unsafe blk -> block_ty env gamma blk
  | Ast.E_return _ | Ast.E_break | Ast.E_continue -> Ty.unit_
  | Ast.E_struct_lit (p, _, _) -> (
      let name =
        match List.rev p.Ast.segments with last :: _ -> last | [] -> "?"
      in
      match Env.find_struct env name with
      | Some sd ->
          Ty.Named (name, List.map (fun _ -> Ty.Unknown) sd.Ast.s_generics)
      | None -> Ty.Named (name, []))
  | Ast.E_tuple es -> Ty.Tuple (List.map (type_of_expr env gamma) es)
  | Ast.E_closure cl ->
      let params =
        List.map
          (fun (_, ty) ->
            match ty with Some t -> Env.ty_of_ast env t | None -> Ty.Unknown)
          cl.Ast.cl_params
      in
      Ty.Fn (params, Ty.Unknown)
  | Ast.E_range _ -> Ty.Named ("Range", [ Ty.usize ])
  | Ast.E_vec es -> (
      match es with
      | e1 :: _ -> Ty.Named ("Vec", [ type_of_expr env gamma e1 ])
      | [] -> Ty.Named ("Vec", [ Ty.Unknown ]))
  | Ast.E_macro (("format" | "format_args"), _) -> Ty.string_
  | Ast.E_macro _ -> Ty.unit_
  | Ast.E_error -> Ty.Unknown

and type_of_method env recv_ty name targs argts : Ty.t =
  (* Auto-deref chain: try each peeling level for a builtin or user
     method, mirroring Rust's method resolution order. *)
  let rec resolve t =
    let direct =
      match builtin_method t name targs argts with
      | Some r -> Some r
      | None -> (
          match Ty.head_name t with
          | Some head -> (
              match Env.find_method env head name with
              | Some fd ->
                  let _, ret = fn_sig env ~self_ty:t fd in
                  Some
                    (match ret with
                    | Ty.Named ("Self", _) -> t
                    | r -> r)
              | None -> None)
          | None -> None)
    in
    match direct with
    | Some r -> Some r
    | None -> (
        match Ty.autoderef_target t with
        | Some inner -> resolve inner
        | None -> None)
  in
  match resolve recv_ty with Some r -> r | None -> Ty.Unknown

and type_of_path env gamma (p : Ast.path) _targs ~args : Ty.t =
  ignore args;
  match p.Ast.segments with
  | [ name ] -> (
      match lookup gamma name with
      | Some t -> t
      | None -> (
          match Env.find_static env name with
          | Some sd -> Env.ty_of_ast env sd.Ast.st_ty
          | None -> (
              match Env.find_fn env name with
              | Some fd ->
                  let params, ret = fn_sig env fd in
                  Ty.Fn (params, ret)
              | None -> (
                  (* bare enum variants None / unit variants *)
                  match name with
                  | "None" -> Ty.Named ("Option", [ Ty.Unknown ])
                  | _ -> (
                      match Env.enum_of_variant env name with
                      | Some en -> Ty.Named (en, [])
                      | None -> Ty.Unknown)))))
  | segments -> (
      match List.rev segments with
      | variant :: enum_name :: _ when Hashtbl.mem env.Env.enums enum_name ->
          ignore variant;
          Ty.Named (enum_name, [])
      | [ "None"; "Option" ] -> Ty.Named ("Option", [ Ty.Unknown ])
      | _ -> Ty.Unknown)

and type_of_path_call env gamma (p : Ast.path) targs argts : Ty.t =
  let arg0 () = match argts with a :: _ -> a | [] -> Ty.Unknown in
  match p.Ast.segments with
  | [ "Some" ] -> Ty.Named ("Option", [ arg0 () ])
  | [ "Ok" ] -> Ty.Named ("Result", [ arg0 (); Ty.Unknown ])
  | [ "Err" ] -> Ty.Named ("Result", [ Ty.Unknown; arg0 () ])
  | [ name ] -> (
      match Env.find_fn env name with
      | Some fd ->
          let _, ret = fn_sig env fd in
          ret
      | None -> (
          match Env.enum_of_variant env name with
          | Some en -> Ty.Named (en, [])
          | None -> (
              match builtin_path_fn [ name ] targs argts with
              | Some t -> t
              | None -> (
                  match lookup gamma name with
                  | Some (Ty.Fn (_, ret)) -> ret
                  | _ -> Ty.Unknown))))
  | segments -> (
      match List.rev segments with
      | fn_name :: ty_head :: _ -> (
          match builtin_assoc_fn ty_head fn_name targs argts with
          | Some t -> t
          | None -> (
              (* enum variant: Enum::Variant(args) *)
              match Env.find_enum env ty_head with
              | Some ed -> Ty.Named (ed.Ast.e_name, [])
              | None -> (
                  match Env.find_assoc_fn env ty_head fn_name with
                  | Some fd ->
                      let self_ty = Ty.Named (ty_head, []) in
                      let _, ret = fn_sig env ~self_ty fd in
                      ret
                  | None -> (
                      match builtin_path_fn segments targs argts with
                      | Some t -> t
                      | None -> Ty.Unknown))))
      | [] | [ _ ] -> Ty.Unknown)

and block_ty env gamma (b : Ast.block) : Ty.t =
  (* Approximate: type the tail expression under bindings introduced by
     the block's lets. *)
  let gamma' =
    List.fold_left
      (fun g s ->
        match s with
        | Ast.S_let lb ->
            let ty =
              match lb.Ast.let_ty with
              | Some t -> Env.ty_of_ast env t
              | None -> (
                  match lb.Ast.let_init with
                  | Some init -> type_of_expr env g init
                  | None -> Ty.Unknown)
            in
            bind_pattern env g lb.Ast.let_pat ty
        | _ -> g)
      gamma b.Ast.stmts
  in
  match b.Ast.tail with
  | Some e -> type_of_expr env gamma' e
  | None -> Ty.unit_

(** Extend [gamma] with the bindings a pattern introduces when matched
    against a value of type [ty]. *)
and bind_pattern env gamma (pat : Ast.pat) (ty : Ty.t) : gamma =
  match pat.Ast.p with
  | Ast.P_wild | Ast.P_lit _ -> gamma
  | Ast.P_ident (_, name, sub) -> (
      let gamma = (name, ty) :: gamma in
      match sub with
      | Some p -> bind_pattern env gamma p ty
      | None -> gamma)
  | Ast.P_ref (_, sub) -> (
      match ty with
      | Ty.Ref (_, inner) -> bind_pattern env gamma sub inner
      | _ -> bind_pattern env gamma sub ty)
  | Ast.P_tuple pats -> (
      match ty with
      | Ty.Tuple ts when List.length ts = List.length pats ->
          List.fold_left2 (bind_pattern env) gamma pats ts
      | _ ->
          List.fold_left (fun g p -> bind_pattern env g p Ty.Unknown) gamma pats)
  | Ast.P_ctor (p, pats) -> (
      let inner =
        match (Ast.path_name p, ty) with
        | ("Some" | "Option::Some"), Ty.Named ("Option", [ t ]) -> [ t ]
        | ("Ok" | "Result::Ok"), Ty.Named ("Result", [ t; _ ]) -> [ t ]
        | ("Err" | "Result::Err"), Ty.Named ("Result", [ _; e ]) -> [ e ]
        | _ -> List.map (fun _ -> Ty.Unknown) pats
      in
      let inner =
        if List.length inner = List.length pats then inner
        else List.map (fun _ -> Ty.Unknown) pats
      in
      List.fold_left2 (bind_pattern env) gamma pats inner)
  | Ast.P_struct (p, fields) -> (
      let head =
        match List.rev p.Ast.segments with last :: _ -> last | [] -> "?"
      in
      match Env.find_struct env head with
      | Some sd ->
          List.fold_left
            (fun g (fname, fpat) ->
              let fty =
                match Env.field_ty env sd (Ty.args (Ty.peel ty)) fname with
                | Some t -> t
                | None -> Ty.Unknown
              in
              bind_pattern env g fpat fty)
            gamma fields
      | None ->
          List.fold_left
            (fun g (_, fpat) -> bind_pattern env g fpat Ty.Unknown)
            gamma fields)
