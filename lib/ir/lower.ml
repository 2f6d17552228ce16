(** Lowering RustLite ASTs to MIR.

    The lowering reproduces the rustc behaviours the PLDI'20 study
    hinges on:

    - scope-based [StorageLive]/[StorageDead] insertion and drop
      elaboration at scope exits (lock guards release on drop);
    - Rust's temporary-lifetime rule: temporaries created while
      evaluating a [match]/[if let] scrutinee or an [if] condition live
      until the end of the whole construct (the Fig. 8 double-lock
      pattern); the [Statement_local] configuration ablates this;
    - assignments drop the previous value of the destination (the
      Fig. 6 invalid-free pattern);
    - moves deinitialize their source, so moved-from locals are not
      dropped again;
    - closures become separate MIR bodies with explicit captures. *)

open Support
open Syntax
module Ty = Sema.Ty

type tmp_lifetime = Extended | Statement_local

type config = { tmp_lifetime : tmp_lifetime }

let default_config = { tmp_lifetime = Extended }

(* ------------------------------------------------------------------ *)
(* Function builder                                                    *)
(* ------------------------------------------------------------------ *)

type blockbuf = {
  mutable bstmts : Mir.stmt list;  (** reversed *)
  mutable bterm : Mir.terminator option;
  mutable bspan : Span.t;
}

type scope = {
  mutable slocals : Mir.local list;  (** reversed declaration order *)
}

type frame = { mutable ftemps : Mir.local list }

(* Variables in scope, innermost first, with their locals and with
   their types in the form type checking reads. *)
type vars = {
  locals_of : (string * Mir.local) list;
  gamma : Sema.Typeck.gamma;
}

type fb = {
  env : Sema.Env.t;
  config : config;
  fn_id : string;
  mutable locals : Mir.local_info array;  (** indices < [n_locals] live *)
  mutable n_locals : int;
  mutable blocks : blockbuf array;  (** arena; indices < [n_blocks] live *)
  mutable n_blocks : int;
  mutable cur : int;
  mutable curbuf : blockbuf;  (** [blocks.(cur)], cached for [emit] *)
  mutable vars : vars;
  mutable scopes : scope list;
  mutable frames : frame list;
  mutable loops : (int * int * int) list;
      (** (continue target, break target, scope depth at loop entry) *)
  mutable moved : (Mir.local, unit) Hashtbl.t;
  mutable uninit : (Mir.local, unit) Hashtbl.t;
      (** let-bound without initializer; first assignment does not drop *)
  mutable in_unsafe : bool;
  mutable closure_count : int;
  mutable closure_of_local : (Mir.local * string) list;
  out_bodies : (string, Mir.body) Hashtbl.t;
  unsafe_spans : Span.t list ref;
  mutable terminated : bool;  (** current block already ended (return etc.) *)
  ret_ty : Sema.Ty.t;
  mutable ret_l : Mir.local option;
      (** rustc's [_0]: holds the return value across the exit drops *)
}

(* Shared filler for unused arena slots; [new_block] always installs a
   fresh record before a slot becomes reachable. *)
let no_block : blockbuf = { bstmts = []; bterm = None; bspan = Span.dummy }

let new_block fb =
  let id = fb.n_blocks in
  if id = Array.length fb.blocks then begin
    let a = Array.make (2 * id) no_block in
    Array.blit fb.blocks 0 a 0 id;
    fb.blocks <- a
  end;
  Array.unsafe_set fb.blocks id { bstmts = []; bterm = None; bspan = Span.dummy };
  fb.n_blocks <- id + 1;
  id

let block fb id = fb.blocks.(id)

let switch_to fb id =
  fb.cur <- id;
  fb.curbuf <- fb.blocks.(id);
  fb.terminated <- false

let emit fb ?(span = Span.dummy) kind =
  if not fb.terminated then
    let b = fb.curbuf in
    b.bstmts <- { Mir.kind; s_span = span; s_unsafe = fb.in_unsafe } :: b.bstmts

let set_term fb ?(span = Span.dummy) term =
  if not fb.terminated then begin
    let b = fb.curbuf in
    b.bterm <- Some term;
    b.bspan <- span;
    fb.terminated <- true
  end

(* Shared filler for unused local slots, as [no_block]. *)
let no_local : Mir.local_info =
  {
    Mir.l_name = None;
    l_ty = Ty.Unknown;
    l_mut = false;
    l_user = false;
    l_span = Span.dummy;
  }

let new_local fb ?name ?(mut = false) ?(user = false) ?(span = Span.dummy) ty =
  let id = fb.n_locals in
  if id = Array.length fb.locals then begin
    let a = Array.make (2 * id) no_local in
    Array.blit fb.locals 0 a 0 id;
    fb.locals <- a
  end;
  Array.unsafe_set fb.locals id
    { Mir.l_name = name; l_ty = ty; l_mut = mut; l_user = user; l_span = span };
  fb.n_locals <- id + 1;
  id

let local_info fb l = fb.locals.(l)
let local_ty fb l = (local_info fb l).Mir.l_ty

let lookup_var fb name = List.assoc_opt name fb.vars.locals_of

(* Bring [name] into scope as local [l]. *)
let bind_var fb name l =
  let v = fb.vars in
  fb.vars <-
    {
      locals_of = (name, l) :: v.locals_of;
      gamma = (name, local_ty fb l) :: v.gamma;
    }

let type_of fb (e : Ast.expr) : Ty.t =
  Sema.Typeck.type_of_expr fb.env fb.vars.gamma e

let mark_moved fb (p : Mir.place) =
  if Mir.place_is_local p then Hashtbl.replace fb.moved p.Mir.base ()

(* Operand for reading a place: move if the type is not Copy. The
   move is recorded only when the operand is actually consumed by
   value (see [sink]), so results later used as places keep their
   scope-end drop. *)
let consume fb (p : Mir.place) ty : Mir.operand =
  ignore fb;
  if Ty.is_copy ty || not (Ty.needs_drop ty) then Mir.copy p else Mir.move p

(* Record that an operand's value has been consumed by value: its
   source local no longer owns the value and must not be dropped at
   scope end. *)
let sink fb (op : Mir.operand) =
  match op with
  | Mir.Move pl -> mark_moved fb (Mir.local_place pl.Mir.base)
  | Mir.Copy _ | Mir.Const _ -> ()

let sink_rvalue fb (rv : Mir.rvalue) =
  match rv with
  | Mir.Use op | Mir.Cast (op, _) | Mir.UnaryOp (_, op) -> sink fb op
  | Mir.BinaryOp (_, a, b) ->
      sink fb a;
      sink fb b
  | Mir.Aggregate (_, ops) -> List.iter (sink fb) ops
  | Mir.Ref _ | Mir.AddrOf _ | Mir.Discriminant _ | Mir.Alloc _ -> ()

(* ------------------------------------------------------------------ *)
(* Scopes, frames, drops                                               *)
(* ------------------------------------------------------------------ *)

let push_scope fb = fb.scopes <- { slocals = [] } :: fb.scopes

let register_local fb l =
  match fb.scopes with
  | s :: _ -> s.slocals <- l :: s.slocals
  | [] -> ()

let push_frame fb = fb.frames <- { ftemps = [] } :: fb.frames

let register_temp fb l =
  match fb.frames with
  | f :: _ -> f.ftemps <- l :: f.ftemps
  | [] -> register_local fb l

let drop_and_kill fb ?(span = Span.dummy) l =
  let ty = local_ty fb l in
  if Ty.needs_drop ty && not (Hashtbl.mem fb.moved l)
     && not (Hashtbl.mem fb.uninit l)
  then emit fb ~span (Mir.Drop (Mir.local_place l));
  emit fb ~span (Mir.storage_dead l)

let pop_frame fb ?(span = Span.dummy) () =
  match fb.frames with
  | f :: rest ->
      fb.frames <- rest;
      List.iter (fun l -> drop_and_kill fb ~span l) f.ftemps
  | [] -> ()

let pop_scope fb ?(span = Span.dummy) () =
  match fb.scopes with
  | s :: rest ->
      fb.scopes <- rest;
      List.iter (fun l -> drop_and_kill fb ~span l) s.slocals
  | [] -> ()

(* Emit drops for scopes/frames without popping them (early exits). *)
let emit_exit_drops fb ~down_to_depth ~span =
  let depth = List.length fb.scopes in
  let n = depth - down_to_depth in
  List.iteri
    (fun i s ->
      if i < n then List.iter (fun l -> drop_and_kill fb ~span l) s.slocals)
    fb.scopes;
  List.iter
    (fun f -> List.iter (fun l -> drop_and_kill fb ~span l) f.ftemps)
    fb.frames

(* ------------------------------------------------------------------ *)
(* Place typing                                                        *)
(* ------------------------------------------------------------------ *)

let rec place_ty_proj fb (ty : Ty.t) (projs : Mir.proj list) : Ty.t =
  match projs with
  | [] -> ty
  | Mir.Deref :: rest -> (
      match ty with
      | Ty.Ref (_, t) | Ty.Ptr (_, t) -> place_ty_proj fb t rest
      | t -> (
          match Ty.autoderef_target t with
          | Some t' -> place_ty_proj fb t' rest
          | None -> Ty.Unknown))
  | Mir.Field f :: rest -> (
      let peeled = Ty.peel ty in
      match peeled with
      | Ty.Named (head, targs) -> (
          match Sema.Env.find_struct fb.env head with
          | Some sd -> (
              match Sema.Env.field_ty fb.env sd targs f with
              | Some t -> place_ty_proj fb t rest
              | None -> Ty.Unknown)
          | None -> Ty.Unknown)
      | Ty.Tuple ts -> (
          match int_of_string_opt f with
          | Some i when i < List.length ts ->
              place_ty_proj fb (List.nth ts i) rest
          | _ -> Ty.Unknown)
      | _ -> Ty.Unknown)
  | Mir.Index :: rest -> (
      match Ty.peel ty with
      | Ty.Named ("Vec", [ t ]) -> place_ty_proj fb t rest
      | Ty.Named ("String", _) -> place_ty_proj fb (Ty.Prim Ty.U8) rest
      | _ -> Ty.Unknown)
  | Mir.Downcast _ :: rest -> place_ty_proj fb ty rest

let place_ty fb (p : Mir.place) : Ty.t =
  place_ty_proj fb (local_ty fb p.Mir.base) p.Mir.proj

(* ------------------------------------------------------------------ *)
(* Callee classification                                               *)
(* ------------------------------------------------------------------ *)

let atomic_head = function
  | Some
      ( "AtomicBool" | "AtomicUsize" | "AtomicIsize" | "AtomicI32" | "AtomicU32"
      | "AtomicI64" | "AtomicU64" | "AtomicPtr" ) ->
      true
  | _ -> false

(* Classify a method on a receiver type; the receiver is auto-dereffed
   by the caller until this returns [Some]. *)
let classify_method_at fb (recv : Ty.t) name : Mir.callee option =
  let head = Ty.head_name recv in
  match (head, name) with
  | Some "Mutex", "lock" -> Some (Mir.Builtin Mir.MutexLock)
  | Some "Mutex", "try_lock" -> Some (Mir.Builtin Mir.MutexTryLock)
  | Some "RwLock", "read" -> Some (Mir.Builtin Mir.RwRead)
  | Some "RwLock", "try_read" -> Some (Mir.Builtin Mir.RwTryRead)
  | Some "RwLock", "write" -> Some (Mir.Builtin Mir.RwWrite)
  | Some "RwLock", "try_write" -> Some (Mir.Builtin Mir.RwTryWrite)
  | Some "Result", ("unwrap" | "expect" | "unwrap_or_propagate") ->
      Some (Mir.Builtin Mir.ResultUnwrap)
  | Some "Option", ("unwrap" | "expect" | "unwrap_or_propagate") ->
      Some (Mir.Builtin Mir.OptionUnwrap)
  | Some ("Result" | "Option"), _ -> Some (Mir.Builtin (Mir.Pure name))
  | Some "Vec", "push" -> Some (Mir.Builtin Mir.VecPush)
  | Some "Vec", "pop" -> Some (Mir.Builtin Mir.VecPop)
  | Some "Vec", ("get" | "get_mut") -> Some (Mir.Builtin Mir.VecGet)
  | Some "Vec", ("get_unchecked" | "get_unchecked_mut") ->
      Some (Mir.Builtin Mir.VecGetUnchecked)
  | Some "Vec", "set_len" -> Some (Mir.Builtin Mir.VecSetLen)
  | Some "Vec", ("len" | "capacity") -> Some (Mir.Builtin Mir.VecLen)
  | Some "Vec", _ -> Some (Mir.Builtin (Mir.Pure ("Vec::" ^ name)))
  | Some "RefCell", "borrow" -> Some (Mir.Builtin Mir.RefCellBorrow)
  | Some "RefCell", "borrow_mut" -> Some (Mir.Builtin Mir.RefCellBorrowMut)
  | Some "Cell", "get" -> Some (Mir.Builtin Mir.CellGet)
  | Some "Cell", ("set" | "replace") -> Some (Mir.Builtin Mir.CellSet)
  | Some "UnsafeCell", "get" -> Some (Mir.Builtin Mir.UnsafeCellGet)
  | h, "load" when atomic_head h -> Some (Mir.Builtin Mir.AtomicLoad)
  | h, "store" when atomic_head h -> Some (Mir.Builtin Mir.AtomicStore)
  | h, "swap" when atomic_head h -> Some (Mir.Builtin Mir.AtomicSwap)
  | h, ("compare_and_swap" | "compare_exchange" | "compare_exchange_weak")
    when atomic_head h ->
      Some (Mir.Builtin Mir.AtomicCas)
  | h, ("fetch_add" | "fetch_sub" | "fetch_or" | "fetch_and") when atomic_head h
    ->
      Some (Mir.Builtin Mir.AtomicFetch)
  | Some "Condvar", ("wait" | "wait_timeout") ->
      Some (Mir.Builtin Mir.CondvarWait)
  | Some "Condvar", "notify_one" -> Some (Mir.Builtin Mir.CondvarNotifyOne)
  | Some "Condvar", "notify_all" -> Some (Mir.Builtin Mir.CondvarNotifyAll)
  | Some ("Sender" | "SyncSender"), "send" -> Some (Mir.Builtin Mir.ChannelSend)
  | Some "Receiver", "recv" -> Some (Mir.Builtin Mir.ChannelRecv)
  | Some "Receiver", "try_recv" -> Some (Mir.Builtin Mir.ChannelTryRecv)
  | Some "JoinHandle", "join" -> Some (Mir.Builtin Mir.ThreadJoin)
  | Some "Once", "call_once" -> Some (Mir.Builtin Mir.OnceCallOnce)
  | _, ("offset" | "add" | "sub") when Ty.is_raw_ptr recv ->
      Some (Mir.Builtin Mir.PtrOffset)
  | _, ("read" | "read_volatile") when Ty.is_raw_ptr recv ->
      Some (Mir.Builtin Mir.PtrRead)
  | _, ("write" | "write_volatile") when Ty.is_raw_ptr recv ->
      Some (Mir.Builtin Mir.PtrWrite)
  | _, "is_null" when Ty.is_raw_ptr recv -> Some (Mir.Builtin (Mir.Pure "is_null"))
  | Some hd, _ -> (
      match Sema.Env.find_method fb.env hd name with
      | Some _ -> Some (Mir.Method (hd, name))
      | None -> (
          match name with
          | "clone" -> Some (Mir.Builtin Mir.CloneFn)
          | _ -> None))
  | None, _ -> None

let classify_method fb (recv : Ty.t) name : Mir.callee =
  let rec go t =
    match classify_method_at fb t name with
    | Some c -> c
    | None -> (
        match Ty.autoderef_target t with
        | Some inner -> go inner
        | None -> (
            match name with
            | "clone" -> Mir.Builtin Mir.CloneFn
            | _ -> Mir.Builtin (Mir.Extern name)))
  in
  go recv

let classify_path_call fb (segments : string list) : Mir.callee =
  let tail2 =
    match List.rev segments with
    | last :: prev :: _ -> [ prev; last ]
    | rest -> List.rev rest
  in
  match segments with
  | [ "Some" ] -> Mir.Builtin (Mir.OptionCtor "Some")
  | [ "None" ] -> Mir.Builtin (Mir.OptionCtor "None")
  | [ "Ok" ] -> Mir.Builtin (Mir.OptionCtor "Ok")
  | [ "Err" ] -> Mir.Builtin (Mir.OptionCtor "Err")
  | [ name ] when Hashtbl.mem fb.env.Sema.Env.fns name -> Mir.Fn name
  | [ name ] -> (
      match Sema.Env.enum_of_variant fb.env name with
      | Some en -> Mir.Builtin (Mir.VariantCtor (en, name))
      | None -> (
          match tail2 with
          | [ "drop" ] -> Mir.Builtin Mir.MemDrop
          | [ "alloc" ] | [ "malloc" ] -> Mir.Builtin Mir.HeapAlloc
          | [ "dealloc" ] | [ "free" ] -> Mir.Builtin Mir.HeapDealloc
          | [ "size_of" ] -> Mir.Builtin Mir.SizeOf
          | [ "spawn" ] -> Mir.Builtin Mir.ThreadSpawn
          | [ "channel" ] -> Mir.Builtin Mir.ChannelNew
          | [ "sync_channel" ] -> Mir.Builtin Mir.SyncChannelNew
          | [ "sleep" ] -> Mir.Builtin Mir.ThreadSleep
          | _ -> Mir.Builtin (Mir.Extern name)))
  | _ -> (
      match tail2 with
      | [ "ptr"; "read" ] -> Mir.Builtin Mir.PtrRead
      | [ "ptr"; ("write" | "write_volatile") ] -> Mir.Builtin Mir.PtrWrite
      | [ "ptr"; ("copy_nonoverlapping" | "copy") ] -> Mir.Builtin Mir.PtrCopy
      | [ "ptr"; ("null" | "null_mut") ] -> Mir.Builtin Mir.PtrNull
      | [ "ptr"; "drop_in_place" ] -> Mir.Builtin Mir.MemDrop
      | [ "mem"; "drop" ] -> Mir.Builtin Mir.MemDrop
      | [ "mem"; "forget" ] -> Mir.Builtin Mir.MemForget
      | [ "mem"; "replace" ] -> Mir.Builtin Mir.MemReplace
      | [ "mem"; "swap" ] -> Mir.Builtin Mir.MemSwap
      | [ "mem"; "transmute" ] -> Mir.Builtin Mir.MemTransmute
      | [ "mem"; ("uninitialized" | "zeroed") ] -> Mir.Builtin Mir.MemUninit
      | [ "mem"; "size_of" ] -> Mir.Builtin Mir.SizeOf
      | [ "alloc"; "alloc" ] -> Mir.Builtin Mir.HeapAlloc
      | [ "alloc"; "dealloc" ] -> Mir.Builtin Mir.HeapDealloc
      | [ "thread"; "spawn" ] -> Mir.Builtin Mir.ThreadSpawn
      | [ "thread"; "sleep" ] -> Mir.Builtin Mir.ThreadSleep
      | [ "mpsc"; "channel" ] -> Mir.Builtin Mir.ChannelNew
      | [ "mpsc"; "sync_channel" ] -> Mir.Builtin Mir.SyncChannelNew
      | [ ty_head; "new" ] -> Mir.Builtin (Mir.CtorNew ty_head)
      | [ ("Arc" | "Rc" | "Box"); "into_raw" ] -> Mir.Builtin Mir.IntoRaw
      | [ ("Arc" | "Rc" | "Box"); "from_raw" ] -> Mir.Builtin Mir.FromRaw
      | [ "Vec"; "from_raw_parts" ] -> Mir.Builtin Mir.VecFromRawParts
      | [ "Vec"; "with_capacity" ] -> Mir.Builtin (Mir.CtorNew "Vec")
      | [ "String"; "from_utf8_unchecked" ] ->
          Mir.Builtin Mir.StrFromUtf8Unchecked
      | [ "String"; _ ] -> Mir.Builtin (Mir.CtorNew "String")
      | [ ty_head; fn_name ] -> (
          match Sema.Env.find_enum fb.env ty_head with
          | Some _ -> Mir.Builtin (Mir.VariantCtor (ty_head, fn_name))
          | None -> (
              match Sema.Env.find_assoc_fn fb.env ty_head fn_name with
              | Some _ -> Mir.Method (ty_head, fn_name)
              | None -> Mir.Builtin (Mir.Extern (ty_head ^ "::" ^ fn_name))))
      | _ -> Mir.Builtin (Mir.Extern (String.concat "::" segments)))

(* Discriminant values used by match lowering. *)
let variant_index fb enum_head variant =
  match (enum_head, variant) with
  | "Option", "None" -> 0
  | "Option", "Some" -> 1
  | "Result", "Ok" -> 0
  | "Result", "Err" -> 1
  | _ -> (
      match Sema.Env.find_enum fb.env enum_head with
      | Some ed ->
          let rec idx i = function
            | [] -> -1
            | v :: rest ->
                if String.equal v.Ast.v_name variant then i else idx (i + 1) rest
          in
          idx 0 ed.Ast.e_variants
      | None -> -1)

let get_ret_local fb ~span =
  match fb.ret_l with
  | Some l -> l
  | None ->
      let l = new_local fb ~name:"<ret>" ~span fb.ret_ty in
      emit fb ~span (Mir.storage_live l);
      fb.ret_l <- Some l;
      l

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

let rec as_temp fb ?(span = Span.dummy) (rv : Mir.rvalue) (ty : Ty.t) :
    Mir.local =
  let l = new_local fb ~span ty in
  emit fb ~span (Mir.storage_live l);
  register_temp fb l;
  sink_rvalue fb rv;
  emit fb ~span (Mir.Assign (Mir.local_place l, rv));
  l

and operand_to_place fb ?(span = Span.dummy) (op : Mir.operand) (ty : Ty.t) :
    Mir.place =
  match op with
  | Mir.Copy p | Mir.Move p -> p
  | Mir.Const _ -> Mir.local_place (as_temp fb ~span (Mir.Use op) ty)

(* Lower an expression to a place (for assignment, borrow, projection).
   Non-place expressions are evaluated into a fresh temporary. *)
and lower_place fb (e : Ast.expr) : Mir.place =
  let span = e.Ast.espan in
  match e.Ast.e with
  | Ast.E_path (p, _) -> (
      match p.Ast.segments with
      | [ name ] -> (
          match lookup_var fb name with
          | Some l -> Mir.local_place l
          | None -> (
              match Sema.Env.find_static fb.env name with
              | Some sd ->
                  (* statics surface as dedicated pseudo-locals *)
                  let key = "static:" ^ name in
                  let l =
                    match lookup_var fb key with
                    | Some l -> l
                    | None ->
                        let ty = Sema.Env.ty_of_ast fb.env sd.Ast.st_ty in
                        let l =
                          new_local fb ~name:key ~mut:sd.Ast.st_mut ~span ty
                        in
                        bind_var fb key l;
                        l
                  in
                  Mir.local_place l
              | None ->
                  let op = lower_expr fb e in
                  operand_to_place fb ~span op (type_of fb e)))
      | _ ->
          let op = lower_expr fb e in
          operand_to_place fb ~span op (type_of fb e))
  | Ast.E_field (recv, fname) ->
      let base = lower_place fb recv in
      (* auto-deref through references and smart pointers down to the
         struct that owns the field *)
      let derefs =
        let rec go t acc =
          match t with
          | Ty.Named (head, _) when Sema.Env.find_struct fb.env head <> None ->
              List.rev acc
          | _ -> (
              match Ty.autoderef_target t with
              | Some t' -> go t' (Mir.Deref :: acc)
              | None -> List.rev acc)
        in
        go (place_ty fb base) []
      in
      { base with Mir.proj = base.Mir.proj @ derefs @ [ Mir.Field fname ] }
  | Ast.E_tuple_field (recv, i) ->
      let base = lower_place fb recv in
      { base with Mir.proj = base.Mir.proj @ [ Mir.Field (string_of_int i) ] }
  | Ast.E_unary (Ast.Deref, inner) ->
      let base = lower_place fb inner in
      { base with Mir.proj = base.Mir.proj @ [ Mir.Deref ] }
  | Ast.E_index (recv, idx) ->
      let base = lower_place fb recv in
      let _ = lower_expr fb idx in
      { base with Mir.proj = base.Mir.proj @ [ Mir.Index ] }
  | _ ->
      let ty = type_of fb e in
      let op = lower_expr fb e in
      operand_to_place fb ~span op ty

(* Lower a call and return the destination operand. *)
and lower_call fb ~span (callee : Mir.callee) (args : Mir.operand list)
    (dest_ty : Ty.t) : Mir.operand =
  List.iter (sink fb) args;
  let dest = new_local fb ~span dest_ty in
  emit fb ~span (Mir.storage_live dest);
  register_temp fb dest;
  let next = new_block fb in
  set_term fb ~span
    (Mir.Call
       ( {
           Mir.callee;
           args;
           dest = Mir.local_place dest;
           dest_ty;
           call_unsafe = fb.in_unsafe;
           call_span = span;
         },
         next ));
  switch_to fb next;
  (* Move ownership of the result to the consumer; a bare expression
     statement drops the discarded value explicitly (see lower_stmt). *)
  consume fb (Mir.local_place dest) dest_ty

and lower_expr fb (e : Ast.expr) : Mir.operand =
  let span = e.Ast.espan in
  match e.Ast.e with
  | Ast.E_lit l ->
      Mir.Const
        (match l with
        | Ast.Lit_int (v, _) -> Mir.Cint v
        | Ast.Lit_bool b -> Mir.Cbool b
        | Ast.Lit_str s -> Mir.Cstr s
        | Ast.Lit_char c -> Mir.Cint (Char.code c)
        | Ast.Lit_float f -> Mir.Cfloat f
        | Ast.Lit_unit -> Mir.Cunit)
  | Ast.E_path (p, _) -> (
      match p.Ast.segments with
      | [ name ] when lookup_var fb name <> None ->
          let l = Option.get (lookup_var fb name) in
          let ty = local_ty fb l in
          consume fb (Mir.local_place l) ty
      | [ name ] when Hashtbl.mem fb.env.Sema.Env.fns name ->
          Mir.Const (Mir.Cfn name)
      | [ "None" ] ->
          let ty = Ty.Named ("Option", [ Ty.Unknown ]) in
          let l = as_temp fb ~span (Mir.Aggregate (Mir.Agg_variant ("Option", "None"), [])) ty in
          consume fb (Mir.local_place l) ty
      | segments -> (
          match Sema.Env.find_static fb.env (List.nth segments 0) with
          | Some _ ->
              let place = lower_place fb e in
              consume fb place (place_ty fb place)
          | None -> (
              (* enum unit variant or associated constant *)
              match List.rev segments with
              | variant :: enum_head :: _
                when Sema.Env.find_enum fb.env enum_head <> None ->
                  let ty = Ty.Named (enum_head, []) in
                  let l =
                    as_temp fb ~span
                      (Mir.Aggregate (Mir.Agg_variant (enum_head, variant), []))
                      ty
                  in
                  consume fb (Mir.local_place l) ty
              | [ "None"; "Option" ] ->
                  let ty = Ty.Named ("Option", [ Ty.Unknown ]) in
                  let l =
                    as_temp fb ~span
                      (Mir.Aggregate (Mir.Agg_variant ("Option", "None"), []))
                      ty
                  in
                  Mir.copy_local l
              | _ -> Mir.Const (Mir.Cfn (Ast.path_name p)))))
  | Ast.E_call (callee, args) -> lower_call_expr fb ~span callee args (type_of fb e)
  | Ast.E_method (recv, name, _, args) ->
      lower_method fb ~span recv name args (type_of fb e)
  | Ast.E_field _ | Ast.E_tuple_field _ | Ast.E_index _ ->
      let place = lower_place fb e in
      consume fb place (place_ty fb place)
  | Ast.E_unary (Ast.Deref, _) ->
      let place = lower_place fb e in
      let ty = place_ty fb place in
      (* reading through a pointer copies (detectors treat Copy-through-
         Deref as the use site) *)
      if Ty.needs_drop ty then Mir.move place else Mir.copy place
  | Ast.E_unary (op, inner) ->
      let ty = type_of fb e in
      let op1 = lower_expr fb inner in
      Mir.copy_local (as_temp fb ~span (Mir.UnaryOp (op, op1)) ty)
  | Ast.E_binary (op, l, r) ->
      let ty = type_of fb e in
      let op1 = lower_expr fb l in
      let op2 = lower_expr fb r in
      Mir.copy_local (as_temp fb ~span (Mir.BinaryOp (op, op1, op2)) ty)
  | Ast.E_ref (m, inner) ->
      let place = lower_place fb inner in
      let ty = Ty.Ref (m, place_ty fb place) in
      Mir.copy_local (as_temp fb ~span (Mir.Ref (m, place)) ty)
  | Ast.E_assign (lhs, rhs) ->
      lower_assign fb ~span lhs rhs;
      Mir.Const Mir.Cunit
  | Ast.E_assign_op (op, lhs, rhs) ->
      let lhs_place = lower_place fb lhs in
      let lhs_ty = place_ty fb lhs_place in
      let rhs_op = lower_expr fb rhs in
      emit fb ~span
        (Mir.Assign
           (lhs_place, Mir.BinaryOp (op, Mir.copy lhs_place, rhs_op)));
      ignore lhs_ty;
      Mir.Const Mir.Cunit
  | Ast.E_cast (inner, ast_ty) ->
      let ty = Sema.Env.ty_of_ast fb.env ast_ty in
      let inner_ty = type_of fb inner in
      (* `&x as *const T`: casting a borrow to a raw pointer keeps the
         place identity so points-to can see through it. *)
      (match (inner.Ast.e, ty) with
      | Ast.E_ref (_, pe), Ty.Ptr (m, _) ->
          let place = lower_place fb pe in
          Mir.copy_local (as_temp fb ~span (Mir.AddrOf (m, place)) ty)
      | _ ->
          let op = lower_expr fb inner in
          ignore inner_ty;
          Mir.copy_local (as_temp fb ~span (Mir.Cast (op, ty)) ty))
  | Ast.E_if (cond, then_blk, else_e) ->
      lower_if fb ~span cond then_blk else_e (type_of fb e)
  | Ast.E_if_let (pat, scrut, then_blk, else_e) ->
      lower_if_let fb ~span pat scrut then_blk else_e (type_of fb e)
  | Ast.E_match (scrut, arms) -> lower_match fb ~span scrut arms (type_of fb e)
  | Ast.E_while (cond, body) ->
      lower_while fb ~span cond body;
      Mir.Const Mir.Cunit
  | Ast.E_while_let (pat, scrut, body) ->
      lower_while_let fb ~span pat scrut body;
      Mir.Const Mir.Cunit
  | Ast.E_loop body ->
      lower_loop fb ~span body;
      Mir.Const Mir.Cunit
  | Ast.E_for (pat, iter, body) ->
      lower_for fb ~span pat iter body;
      Mir.Const Mir.Cunit
  | Ast.E_block blk ->
      (* The block's value must escape the block's scope: store it into
         a temporary that belongs to the enclosing frame. *)
      let dest = join_temp fb ~span (type_of fb e) in
      push_scope fb;
      let v = lower_block_value fb blk in
      store_result fb ~span dest v;
      pop_scope fb ~span ();
      result_operand fb dest
  | Ast.E_unsafe blk ->
      let was = fb.in_unsafe in
      fb.in_unsafe <- true;
      (* the region includes the `unsafe` keyword so that spans of
         statements materializing the block's value classify correctly *)
      fb.unsafe_spans := Span.union span blk.Ast.bspan :: !(fb.unsafe_spans);
      let dest = join_temp fb ~span (type_of fb e) in
      push_scope fb;
      let v = lower_block_value fb blk in
      store_result fb ~span dest v;
      pop_scope fb ~span ();
      fb.in_unsafe <- was;
      result_operand fb dest
  | Ast.E_return arg ->
      let op =
        match arg with
        | Some a -> lower_expr fb a
        | None -> Mir.Const Mir.Cunit
      in
      let rl = get_ret_local fb ~span in
      sink fb op;
      emit fb ~span (Mir.Assign (Mir.local_place rl, Mir.Use op));
      emit_exit_drops fb ~down_to_depth:0 ~span;
      set_term fb ~span (Mir.Return (Some (Mir.move_local rl)));
      let dead = new_block fb in
      switch_to fb dead;
      Mir.Const Mir.Cunit
  | Ast.E_break -> (
      match fb.loops with
      | (_, brk, depth) :: _ ->
          emit_exit_drops fb ~down_to_depth:depth ~span;
          set_term fb ~span (Mir.Goto brk);
          let dead = new_block fb in
          switch_to fb dead;
          Mir.Const Mir.Cunit
      | [] -> Mir.Const Mir.Cunit)
  | Ast.E_continue -> (
      match fb.loops with
      | (cont, _, depth) :: _ ->
          emit_exit_drops fb ~down_to_depth:depth ~span;
          set_term fb ~span (Mir.Goto cont);
          let dead = new_block fb in
          switch_to fb dead;
          Mir.Const Mir.Cunit
      | [] -> Mir.Const Mir.Cunit)
  | Ast.E_struct_lit (p, fields, base) ->
      let name =
        match List.rev p.Ast.segments with last :: _ -> last | [] -> "?"
      in
      let ops = List.map (fun (_, fe) -> lower_expr fb fe) fields in
      let ops =
        match base with
        | Some be -> ops @ [ lower_expr fb be ]
        | None -> ops
      in
      let ty = type_of fb e in
      consume fb
        (Mir.local_place
           (as_temp fb ~span (Mir.Aggregate (Mir.Agg_struct name, ops)) ty))
        ty
  | Ast.E_tuple es ->
      let ops = List.map (lower_expr fb) es in
      let ty = type_of fb e in
      consume fb
        (Mir.local_place
           (as_temp fb ~span (Mir.Aggregate (Mir.Agg_tuple, ops)) ty))
        ty
  | Ast.E_closure cl -> lower_closure fb ~span cl
  | Ast.E_range (lo, hi, _) ->
      let ops =
        List.filter_map (Option.map (lower_expr fb)) [ lo; hi ]
      in
      let ty = type_of fb e in
      Mir.copy_local (as_temp fb ~span (Mir.Aggregate (Mir.Agg_tuple, ops)) ty)
  | Ast.E_vec es ->
      let ops = List.map (lower_expr fb) es in
      let ty = type_of fb e in
      consume fb
        (Mir.local_place
           (as_temp fb ~span (Mir.Aggregate (Mir.Agg_vec, ops)) ty))
        ty
  | Ast.E_macro (name, args) ->
      (* println! etc.: arguments are evaluated (so borrows show up),
         result is opaque *)
      let ops = List.map (lower_expr fb) args in
      lower_call fb ~span (Mir.Builtin (Mir.Extern (name ^ "!"))) ops
        (type_of fb e)
  | Ast.E_error ->
      (* recovered parse error: contributes nothing to the MIR *)
      Mir.Const Mir.Cunit

and lower_assign fb ~span lhs rhs =
  let rhs_ty = type_of fb rhs in
  let rhs_op = lower_expr fb rhs in
  let lhs_place = lower_place fb lhs in
  let lhs_ty = place_ty fb lhs_place in
  let drop_ty = if Ty.equal lhs_ty Ty.Unknown then rhs_ty else lhs_ty in
  (* Rust drops the destination's previous value. First assignment to a
     let-without-initializer does not. *)
  let first_init =
    Mir.place_is_local lhs_place && Hashtbl.mem fb.uninit lhs_place.Mir.base
  in
  if first_init then Hashtbl.remove fb.uninit lhs_place.Mir.base
  else if Ty.needs_drop drop_ty then emit fb ~span (Mir.Drop lhs_place);
  if Mir.place_is_local lhs_place then
    Hashtbl.remove fb.moved lhs_place.Mir.base;
  sink fb rhs_op;
  emit fb ~span (Mir.Assign (lhs_place, Mir.Use rhs_op))

and lower_call_expr fb ~span (callee : Ast.expr) (args : Ast.expr list)
    (dest_ty : Ty.t) : Mir.operand =
  match callee.Ast.e with
  | Ast.E_path (p, _) -> (
      let kind = classify_path_call fb p.Ast.segments in
      match kind with
      | Mir.Builtin Mir.HeapAlloc ->
          let _ = List.map (lower_expr fb) args in
          let ty =
            match dest_ty with
            | Ty.Ptr _ -> dest_ty
            | _ -> Ty.Ptr (Mut, Ty.Prim Ty.U8)
          in
          Mir.copy_local (as_temp fb ~span (Mir.Alloc ty) ty)
      | Mir.Builtin Mir.MemDrop ->
          (* drop(x): ends x's value now; the guard-release point *)
          (match args with
          | [ arg ] -> (
              match arg.Ast.e with
              | Ast.E_path ({ Ast.segments = [ name ]; _ }, _)
                when lookup_var fb name <> None ->
                  let l = Option.get (lookup_var fb name) in
                  emit fb ~span (Mir.Drop (Mir.local_place l));
                  Hashtbl.replace fb.moved l ()
              | _ ->
                  let op = lower_expr fb arg in
                  (match op with
                  | Mir.Move pl | Mir.Copy pl -> emit fb ~span (Mir.Drop pl)
                  | Mir.Const _ -> ()))
          | _ -> ());
          Mir.Const Mir.Cunit
      | Mir.Builtin Mir.ThreadSpawn ->
          let ops = List.map (lower_expr fb) args in
          lower_call fb ~span (Mir.Builtin Mir.ThreadSpawn) ops dest_ty
      | Mir.Fn name ->
          let ops = lower_args fb args in
          let dest_ty =
            match Sema.Env.find_fn fb.env name with
            | Some fd -> snd (Sema.Typeck.fn_sig fb.env fd)
            | None -> dest_ty
          in
          lower_call fb ~span (Mir.Fn name) ops dest_ty
      | Mir.Method (head, m) ->
          let ops = lower_args fb args in
          lower_call fb ~span (Mir.Method (head, m)) ops dest_ty
      | k ->
          let ops = lower_args fb args in
          lower_call fb ~span k ops dest_ty)
  | Ast.E_closure cl ->
      let clop = lower_expr fb { Ast.e = Ast.E_closure cl; espan = span } in
      let ops = lower_args fb args in
      let cid =
        match clop with
        | Mir.Copy pl | Mir.Move pl when Mir.place_is_local pl -> (
            match List.assoc_opt pl.Mir.base fb.closure_of_local with
            | Some id -> Some id
            | None -> None)
        | _ -> None
      in
      let callee_kind =
        match cid with
        | Some id -> Mir.ClosureCall id
        | None -> Mir.Builtin (Mir.Extern "<indirect>")
      in
      lower_call fb ~span callee_kind (clop :: ops) dest_ty
  | _ -> (
      let cop = lower_expr fb callee in
      let ops = lower_args fb args in
      (* direct call of a closure-typed variable *)
      let callee_kind =
        match cop with
        | Mir.Copy pl | Mir.Move pl when Mir.place_is_local pl -> (
            match List.assoc_opt pl.Mir.base fb.closure_of_local with
            | Some id -> Mir.ClosureCall id
            | None -> Mir.Builtin (Mir.Extern "<indirect>"))
        | Mir.Const (Mir.Cfn f) -> Mir.Fn f
        | _ -> Mir.Builtin (Mir.Extern "<indirect>")
      in
      lower_call fb ~span callee_kind (cop :: ops) dest_ty)

and lower_args fb args = List.map (lower_expr fb) args

and lower_method fb ~span recv name args dest_ty : Mir.operand =
  let recv_ty = type_of fb recv in
  (* `as_ptr`/`as_mut_ptr` keep place identity: lower to AddrOf so the
     points-to analysis can track the pointee. *)
  match name with
  | "as_ptr" | "as_mut_ptr" ->
      let place = lower_place fb recv in
      (* peel reference/smart-pointer layers so the pointer identifies
         the underlying object, not the reference local *)
      let place =
        let rec peel pl =
          match place_ty fb pl with
          | Ty.Ref _ | Ty.Named (("Box" | "Arc" | "Rc"), _) ->
              peel { pl with Mir.proj = pl.Mir.proj @ [ Mir.Deref ] }
          | _ -> pl
        in
        peel place
      in
      let m = if String.equal name "as_mut_ptr" then Ty.Mut else Ty.Imm in
      let ty =
        match dest_ty with
        | Ty.Ptr _ -> dest_ty
        | _ -> Ty.Ptr (m, place_ty fb place)
      in
      Mir.copy_local (as_temp fb ~span (Mir.AddrOf (m, place)) ty)
  | _ -> (
      let callee = classify_method fb recv_ty name in
      (* Receivers of user methods and builtin lock/cell operations are
         passed by reference (auto-ref), keeping the lock place visible
         in the call's first argument. *)
      let recv_op =
        match callee with
        | Mir.Builtin
            ( Mir.MutexLock | Mir.MutexTryLock | Mir.RwRead | Mir.RwTryRead
            | Mir.RwWrite | Mir.RwTryWrite | Mir.CondvarWait
            | Mir.CondvarNotifyOne | Mir.CondvarNotifyAll | Mir.RefCellBorrow
            | Mir.RefCellBorrowMut | Mir.CellGet | Mir.CellSet
            | Mir.UnsafeCellGet | Mir.AtomicLoad | Mir.AtomicStore
            | Mir.AtomicSwap | Mir.AtomicCas | Mir.AtomicFetch | Mir.VecPush
            | Mir.VecPop | Mir.VecGet | Mir.VecGetUnchecked | Mir.VecSetLen
            | Mir.VecLen | Mir.OnceCallOnce | Mir.ChannelSend | Mir.ChannelRecv
            | Mir.ChannelTryRecv ) ->
            Mir.copy (lower_place fb recv)
        | Mir.Method (head, m) -> (
            match Sema.Env.find_method fb.env head m with
            | Some fd -> (
                match fd.Ast.fn_params with
                | Ast.Param_self None :: _ ->
                    (* by-value self: moves the receiver *)
                    let pl = lower_place fb recv in
                    consume fb pl (place_ty fb pl)
                | _ -> Mir.copy (lower_place fb recv))
            | None -> Mir.copy (lower_place fb recv))
        | Mir.Builtin (Mir.ResultUnwrap | Mir.OptionUnwrap) ->
            (* unwrap consumes the Result/Option *)
            let pl = lower_place fb recv in
            consume fb pl recv_ty
        | Mir.Builtin Mir.ThreadJoin ->
            let pl = lower_place fb recv in
            consume fb pl recv_ty
        | _ -> lower_expr fb recv
      in
      let ops = lower_args fb args in
      lower_call fb ~span callee (recv_op :: ops) dest_ty)

(* ---------------- control flow ------------------------------------ *)

and join_temp fb ~span (ty : Ty.t) : Mir.local option =
  match ty with
  | Ty.Prim Ty.Unit -> None
  | _ ->
      let l = new_local fb ~span ty in
      emit fb ~span (Mir.storage_live l);
      register_temp fb l;
      Some l

and store_result fb ~span dest op =
  match dest with
  | Some l ->
      sink fb op;
      emit fb ~span (Mir.Assign (Mir.local_place l, Mir.Use op))
  | None -> ignore op

and result_operand fb dest =
  match dest with
  | Some l -> consume fb (Mir.local_place l) (local_ty fb l)
  | None -> Mir.Const Mir.Cunit

and lower_if fb ~span cond then_blk else_e ty : Mir.operand =
  (* Under Statement_local, condition temporaries die right after the
     condition is evaluated; under Extended they live until the end of
     the enclosing statement (Rust's pre-2024 behaviour). *)
  let cond_framed = fb.config.tmp_lifetime = Statement_local in
  if cond_framed then push_frame fb;
  let cond_op = lower_expr fb cond in
  if cond_framed then pop_frame fb ~span ();
  let dest = join_temp fb ~span ty in
  let then_bb = new_block fb in
  let else_bb = new_block fb in
  let join_bb = new_block fb in
  set_term fb ~span (Mir.SwitchInt (cond_op, [ (0, else_bb) ], then_bb));
  switch_to fb then_bb;
  push_scope fb;
  push_frame fb;
  let v = lower_block_value fb then_blk in
  store_result fb ~span dest v;
  pop_frame fb ~span ();
  pop_scope fb ~span ();
  set_term fb ~span (Mir.Goto join_bb);
  switch_to fb else_bb;
  (match else_e with
  | Some ee ->
      push_frame fb;
      let v = lower_expr fb ee in
      store_result fb ~span dest v;
      pop_frame fb ~span ()
  | None -> ());
  set_term fb ~span (Mir.Goto join_bb);
  switch_to fb join_bb;
  result_operand fb dest

and lower_if_let fb ~span pat scrut then_blk else_e ty : Mir.operand =
  let scrut_framed = fb.config.tmp_lifetime = Statement_local in
  if scrut_framed then push_frame fb;
  let scrut_ty = type_of fb scrut in
  let scrut_place = lower_place fb scrut in
  if scrut_framed then pop_frame fb ~span ();
  let dest = join_temp fb ~span ty in
  let disc =
    as_temp fb ~span (Mir.Discriminant scrut_place) (Ty.Prim Ty.I32)
  in
  let then_bb = new_block fb in
  let else_bb = new_block fb in
  let join_bb = new_block fb in
  let idx = pat_variant_index fb pat in
  set_term fb ~span
    (Mir.SwitchInt
       (Mir.copy_local disc, [ (idx, then_bb) ], else_bb));
  switch_to fb then_bb;
  push_scope fb;
  push_frame fb;
  bind_arm_pattern fb ~span pat scrut_place scrut_ty;
  let v = lower_block_value fb then_blk in
  store_result fb ~span dest v;
  pop_frame fb ~span ();
  pop_scope fb ~span ();
  set_term fb ~span (Mir.Goto join_bb);
  switch_to fb else_bb;
  (match else_e with
  | Some ee ->
      push_frame fb;
      let v = lower_expr fb ee in
      store_result fb ~span dest v;
      pop_frame fb ~span ()
  | None -> ());
  set_term fb ~span (Mir.Goto join_bb);
  switch_to fb join_bb;
  result_operand fb dest

and pat_variant_index fb (pat : Ast.pat) : int =
  match pat.Ast.p with
  | Ast.P_ctor (p, _) -> (
      let variant =
        match List.rev p.Ast.segments with v :: _ -> v | [] -> "?"
      in
      let enum_head =
        match List.rev p.Ast.segments with
        | _ :: e :: _ -> e
        | _ -> (
            match variant with
            | "Some" | "None" -> "Option"
            | "Ok" | "Err" -> "Result"
            | _ -> (
                match Sema.Env.enum_of_variant fb.env variant with
                | Some e -> e
                | None -> "?"))
      in
      let i = variant_index fb enum_head variant in
      if i >= 0 then i else 0)
  | _ -> 0

(* Bind the variables of an arm pattern against the matched place. *)
and bind_arm_pattern fb ~span (pat : Ast.pat) (scrut : Mir.place)
    (scrut_ty : Ty.t) =
  match pat.Ast.p with
  | Ast.P_wild | Ast.P_lit _ -> ()
  | Ast.P_ident (m, name, sub) ->
      let l =
        new_local fb ~name ~mut:(m = Ast.Mut) ~user:true ~span scrut_ty
      in
      emit fb ~span (Mir.storage_live l);
      register_local fb l;
      bind_var fb name l;
      let op = consume fb scrut scrut_ty in
      sink fb op;
      emit fb ~span (Mir.Assign (Mir.local_place l, Mir.Use op));
      (match sub with
      | Some p -> bind_arm_pattern fb ~span p scrut scrut_ty
      | None -> ())
  | Ast.P_ref (m, sub) -> (
      match scrut_ty with
      | Ty.Ref (_, inner_ty) ->
          (* destructuring an actual reference: &p *)
          bind_arm_pattern fb ~span sub
            { scrut with Mir.proj = scrut.Mir.proj @ [ Mir.Deref ] }
            inner_ty
      | _ -> (
          (* `ref b`: bind by reference to the matched place *)
          match sub.Ast.p with
          | Ast.P_ident (_, name, None) ->
              let ty = Ty.Ref (m, scrut_ty) in
              let l = new_local fb ~name ~user:true ~span ty in
              emit fb ~span (Mir.storage_live l);
              register_local fb l;
              bind_var fb name l;
              emit fb ~span (Mir.Assign (Mir.local_place l, Mir.Ref (m, scrut)))
          | _ -> bind_arm_pattern fb ~span sub scrut scrut_ty))
  | Ast.P_tuple pats ->
      List.iteri
        (fun i sub ->
          let fty =
            match Ty.peel scrut_ty with
            | Ty.Tuple ts when i < List.length ts -> List.nth ts i
            | _ -> Ty.Unknown
          in
          bind_arm_pattern fb ~span sub
            { scrut with Mir.proj = scrut.Mir.proj @ [ Mir.Field (string_of_int i) ] }
            fty)
        pats
  | Ast.P_ctor (p, pats) ->
      let variant =
        match List.rev p.Ast.segments with v :: _ -> v | [] -> "?"
      in
      let inner_tys =
        match (variant, Ty.peel scrut_ty) with
        | "Some", Ty.Named ("Option", [ t ]) -> [ t ]
        | "Ok", Ty.Named ("Result", [ t; _ ]) -> [ t ]
        | "Err", Ty.Named ("Result", [ _; e ]) -> [ e ]
        | _ -> List.map (fun _ -> Ty.Unknown) pats
      in
      let inner_tys =
        if List.length inner_tys = List.length pats then inner_tys
        else List.map (fun _ -> Ty.Unknown) pats
      in
      List.iteri
        (fun i sub ->
          bind_arm_pattern fb ~span sub
            {
              scrut with
              Mir.proj =
                scrut.Mir.proj
                @ [ Mir.Downcast variant; Mir.Field (string_of_int i) ];
            }
            (List.nth inner_tys i))
        pats
  | Ast.P_struct (_, fields) ->
      List.iter
        (fun (fname, sub) ->
          let fty =
            place_ty_proj fb scrut_ty [ Mir.Field fname ]
          in
          bind_arm_pattern fb ~span sub
            { scrut with Mir.proj = scrut.Mir.proj @ [ Mir.Field fname ] }
            fty)
        fields

and lower_match fb ~span scrut arms ty : Mir.operand =
  let scrut_framed = fb.config.tmp_lifetime = Statement_local in
  if scrut_framed then push_frame fb;
  let scrut_ty = type_of fb scrut in
  let scrut_place = lower_place fb scrut in
  if scrut_framed then pop_frame fb ~span ();
  let dest = join_temp fb ~span ty in
  let disc =
    as_temp fb ~span (Mir.Discriminant scrut_place) (Ty.Prim Ty.I32)
  in
  let join_bb = new_block fb in
  (* One block per arm; SwitchInt dispatches on the discriminant, the
     last (or wildcard) arm is the default. *)
  let arm_blocks = List.map (fun _ -> new_block fb) arms in
  let is_default (arm : Ast.arm) =
    match arm.Ast.arm_pat.Ast.p with
    | Ast.P_wild | Ast.P_ident _ -> true
    | _ -> false
  in
  let cases =
    List.filteri (fun i _ -> i < List.length arms) arms
    |> List.mapi (fun i arm -> (i, arm))
    |> List.filter (fun (_, arm) -> not (is_default arm))
    |> List.map (fun (i, arm) ->
           (pat_variant_index fb arm.Ast.arm_pat, List.nth arm_blocks i))
  in
  let default_bb =
    let rec find i = function
      | [] -> join_bb
      | arm :: rest -> if is_default arm then List.nth arm_blocks i else find (i + 1) rest
    in
    find 0 arms
  in
  set_term fb ~span
    (Mir.SwitchInt (Mir.copy_local disc, cases, default_bb));
  List.iteri
    (fun i (arm : Ast.arm) ->
      switch_to fb (List.nth arm_blocks i);
      let saved_vars = fb.vars in
      push_scope fb;
      push_frame fb;
      bind_arm_pattern fb ~span arm.Ast.arm_pat scrut_place scrut_ty;
      (match arm.Ast.arm_guard with
      | Some g ->
          let gop = lower_expr fb g in
          let body_bb = new_block fb in
          set_term fb ~span (Mir.SwitchInt (gop, [ (0, join_bb) ], body_bb));
          switch_to fb body_bb
      | None -> ());
      let v = lower_expr fb arm.Ast.arm_body in
      store_result fb ~span dest v;
      pop_frame fb ~span ();
      pop_scope fb ~span ();
      set_term fb ~span (Mir.Goto join_bb);
      fb.vars <- saved_vars)
    arms;
  switch_to fb join_bb;
  result_operand fb dest

and lower_while fb ~span cond body =
  let header = new_block fb in
  let body_bb = new_block fb in
  let exit_bb = new_block fb in
  set_term fb ~span (Mir.Goto header);
  switch_to fb header;
  (* while-condition temporaries die each iteration before the body *)
  push_frame fb;
  let cond_op = lower_expr fb cond in
  pop_frame fb ~span ();
  set_term fb ~span (Mir.SwitchInt (cond_op, [ (0, exit_bb) ], body_bb));
  switch_to fb body_bb;
  fb.loops <- (header, exit_bb, List.length fb.scopes) :: fb.loops;
  push_scope fb;
  push_frame fb;
  ignore (lower_block_value fb body);
  pop_frame fb ~span ();
  pop_scope fb ~span ();
  fb.loops <- List.tl fb.loops;
  set_term fb ~span (Mir.Goto header);
  switch_to fb exit_bb

and lower_while_let fb ~span pat scrut body =
  let header = new_block fb in
  let body_bb = new_block fb in
  let exit_bb = new_block fb in
  set_term fb ~span (Mir.Goto header);
  switch_to fb header;
  push_frame fb;
  let scrut_ty = type_of fb scrut in
  let scrut_place = lower_place fb scrut in
  let disc =
    as_temp fb ~span (Mir.Discriminant scrut_place) (Ty.Prim Ty.I32)
  in
  let idx = pat_variant_index fb pat in
  set_term fb ~span
    (Mir.SwitchInt (Mir.copy_local disc, [ (idx, body_bb) ], exit_bb));
  switch_to fb body_bb;
  fb.loops <- (header, exit_bb, List.length fb.scopes) :: fb.loops;
  let saved_vars = fb.vars in
  push_scope fb;
  bind_arm_pattern fb ~span pat scrut_place scrut_ty;
  ignore (lower_block_value fb body);
  pop_scope fb ~span ();
  pop_frame fb ~span ();
  fb.vars <- saved_vars;
  fb.loops <- List.tl fb.loops;
  set_term fb ~span (Mir.Goto header);
  switch_to fb exit_bb;
  (* the frame pushed at header is popped on the body path above; the
     exit path discards it too *)
  ()

and lower_loop fb ~span body =
  let header = new_block fb in
  let exit_bb = new_block fb in
  set_term fb ~span (Mir.Goto header);
  switch_to fb header;
  fb.loops <- (header, exit_bb, List.length fb.scopes) :: fb.loops;
  push_scope fb;
  push_frame fb;
  ignore (lower_block_value fb body);
  pop_frame fb ~span ();
  pop_scope fb ~span ();
  fb.loops <- List.tl fb.loops;
  set_term fb ~span (Mir.Goto header);
  switch_to fb exit_bb

and lower_for fb ~span pat iter body =
  match iter.Ast.e with
  | Ast.E_range (Some lo, Some hi, inclusive) ->
      (* counting loop: desugar to index + while *)
      let lo_op = lower_expr fb lo in
      let hi_op = lower_expr fb hi in
      let hi_l = as_temp fb ~span (Mir.Use hi_op) Ty.usize in
      let idx = new_local fb ~name:"<for-idx>" ~mut:true ~span Ty.usize in
      emit fb ~span (Mir.storage_live idx);
      register_temp fb idx;
      emit fb ~span (Mir.Assign (Mir.local_place idx, Mir.Use lo_op));
      let header = new_block fb in
      let body_bb = new_block fb in
      let exit_bb = new_block fb in
      set_term fb ~span (Mir.Goto header);
      switch_to fb header;
      let cmp =
        as_temp fb ~span
          (Mir.BinaryOp
             ( (if inclusive then Ast.Le else Ast.Lt),
               Mir.copy_local idx,
               Mir.copy_local hi_l ))
          Ty.bool_
      in
      set_term fb ~span
        (Mir.SwitchInt (Mir.copy_local cmp, [ (0, exit_bb) ], body_bb));
      switch_to fb body_bb;
      fb.loops <- (header, exit_bb, List.length fb.scopes) :: fb.loops;
      let saved_vars = fb.vars in
      push_scope fb;
      bind_arm_pattern fb ~span pat (Mir.local_place idx) Ty.usize;
      push_frame fb;
      ignore (lower_block_value fb body);
      pop_frame fb ~span ();
      emit fb ~span
        (Mir.Assign
           ( Mir.local_place idx,
             Mir.BinaryOp
               (Ast.Add, Mir.copy_local idx, Mir.Const (Mir.Cint 1))
           ));
      pop_scope fb ~span ();
      fb.vars <- saved_vars;
      fb.loops <- List.tl fb.loops;
      set_term fb ~span (Mir.Goto header);
      switch_to fb exit_bb
  | _ ->
      (* iterator loop: model as while-let over `.next()` *)
      let iter_ty = type_of fb iter in
      let iter_place = lower_place fb iter in
      let elem_ty =
        match Ty.peel iter_ty with
        | Ty.Named (("Vec" | "Iter"), [ t ]) -> t
        | _ -> Ty.Unknown
      in
      let header = new_block fb in
      let body_bb = new_block fb in
      let exit_bb = new_block fb in
      set_term fb ~span (Mir.Goto header);
      switch_to fb header;
      push_frame fb;
      let next =
        lower_call fb ~span
          (Mir.Builtin (Mir.Pure "Iter::next"))
          [ Mir.copy iter_place ]
          (Ty.Named ("Option", [ elem_ty ]))
      in
      let next_place = operand_to_place fb ~span next (Ty.Named ("Option", [ elem_ty ])) in
      let disc = as_temp fb ~span (Mir.Discriminant next_place) (Ty.Prim Ty.I32) in
      set_term fb ~span
        (Mir.SwitchInt (Mir.copy_local disc, [ (1, body_bb) ], exit_bb));
      switch_to fb body_bb;
      fb.loops <- (header, exit_bb, List.length fb.scopes) :: fb.loops;
      let saved_vars = fb.vars in
      push_scope fb;
      bind_arm_pattern fb ~span pat
        { next_place with Mir.proj = next_place.Mir.proj @ [ Mir.Downcast "Some"; Mir.Field "0" ] }
        elem_ty;
      ignore (lower_block_value fb body);
      pop_scope fb ~span ();
      pop_frame fb ~span ();
      fb.vars <- saved_vars;
      fb.loops <- List.tl fb.loops;
      set_term fb ~span (Mir.Goto header);
      switch_to fb exit_bb

(* ---------------- closures ---------------------------------------- *)

and free_vars_of_closure fb (cl : Ast.closure) : (string * Mir.local) list =
  let bound = Hashtbl.create 8 in
  List.iter
    (fun (p, _) ->
      let rec names (p : Ast.pat) =
        match p.Ast.p with
        | Ast.P_ident (_, n, sub) ->
            Hashtbl.replace bound n ();
            Option.iter names sub
        | Ast.P_ref (_, s) -> names s
        | Ast.P_tuple ps | Ast.P_ctor (_, ps) -> List.iter names ps
        | Ast.P_struct (_, fs) -> List.iter (fun (_, s) -> names s) fs
        | Ast.P_wild | Ast.P_lit _ -> ()
      in
      names p)
    cl.Ast.cl_params;
  let used =
    Ast.fold_expr
      (fun acc (e : Ast.expr) ->
        match e.Ast.e with
        | Ast.E_path ({ Ast.segments = [ n ]; _ }, _) -> n :: acc
        | _ -> acc)
      [] cl.Ast.cl_body
  in
  List.filter_map
    (fun n ->
      if Hashtbl.mem bound n then None
      else match lookup_var fb n with Some l -> Some (n, l) | None -> None)
    (List.sort_uniq String.compare used)

and lower_closure fb ~span (cl : Ast.closure) : Mir.operand =
  let id = Printf.sprintf "%s::{closure#%d}" fb.fn_id fb.closure_count in
  fb.closure_count <- fb.closure_count + 1;
  let captures = free_vars_of_closure fb cl in
  (* Build the closure body as a separate function; captures become the
     leading parameters. *)
  let cap_params =
    List.map
      (fun (n, l) ->
        let ty = local_ty fb l in
        let cap_ty = if cl.Ast.cl_move then ty else Ty.Ref (Imm, ty) in
        (n, cap_ty))
      captures
  in
  let params =
    List.map
      (fun (p, topt) ->
        let name =
          match p.Ast.p with Ast.P_ident (_, n, _) -> n | _ -> "_"
        in
        let ty =
          match topt with
          | Some t -> Sema.Env.ty_of_ast fb.env t
          | None -> Ty.Unknown
        in
        (name, ty))
      cl.Ast.cl_params
  in
  lower_fn_raw fb.env fb.config fb.out_bodies fb.unsafe_spans ~fn_id:id
    ~params:(cap_params @ params)
    ~captures:(List.mapi (fun i (n, _) -> (i, n)) captures)
    ~unsafe_fn:false ~span
    ~body_expr:cl.Ast.cl_body ();
  (* Closure value at the creation site *)
  let cap_ops =
    List.map
      (fun (n, l) ->
        let ty = local_ty fb l in
        if cl.Ast.cl_move then consume fb (Mir.local_place l) ty
        else begin
          ignore n;
          Mir.copy_local l
        end)
      captures
  in
  let ty = Ty.Fn ([], Ty.Unknown) in
  let l = as_temp fb ~span (Mir.Aggregate (Mir.Agg_closure id, cap_ops)) ty in
  fb.closure_of_local <- (l, id) :: fb.closure_of_local;
  Mir.copy_local l

(* ---------------- blocks and statements --------------------------- *)

and lower_let fb (lb : Ast.let_binding) =
  let span = lb.Ast.let_span in
  push_frame fb;
  let decl_ty =
    match lb.Ast.let_ty with
    | Some t -> Sema.Env.ty_of_ast fb.env t
    | None -> (
        match lb.Ast.let_init with
        | Some init -> type_of fb init
        | None -> Ty.Unknown)
  in
  (match lb.Ast.let_pat.Ast.p with
  | Ast.P_ident (m, name, None) -> (
      let l =
        new_local fb ~name ~mut:(m = Ast.Mut) ~user:true ~span decl_ty
      in
      emit fb ~span (Mir.storage_live l);
      match lb.Ast.let_init with
      | Some init ->
          let op = lower_expr fb init in
          sink fb op;
          emit fb ~span (Mir.Assign (Mir.local_place l, Mir.Use op));
          register_local fb l;
          bind_var fb name l
      | None ->
          Hashtbl.replace fb.uninit l ();
          register_local fb l;
          bind_var fb name l)
  | _ -> (
      (* destructuring let *)
      match lb.Ast.let_init with
      | Some init ->
          let init_ty = type_of fb init in
          let place = lower_place fb init in
          bind_arm_pattern fb ~span lb.Ast.let_pat place
            (if Ty.equal decl_ty Ty.Unknown then init_ty else decl_ty)
      | None -> ()));
  pop_frame fb ~span ()

and lower_stmt fb (s : Ast.stmt) =
  match s with
  | Ast.S_let lb -> lower_let fb lb
  | Ast.S_expr e ->
      push_frame fb;
      let v = lower_expr fb e in
      (* a discarded owned value is dropped at the end of the statement *)
      (match v with
      | Mir.Move pl ->
          sink fb v;
          emit fb ~span:e.Ast.espan (Mir.Drop pl)
      | Mir.Copy _ | Mir.Const _ -> ());
      pop_frame fb ~span:e.Ast.espan ()
  | Ast.S_item _ -> ()  (* nested items are collected separately *)

and lower_block_value fb (b : Ast.block) : Mir.operand =
  let saved_vars = fb.vars in
  List.iter (lower_stmt fb) b.Ast.stmts;
  let v =
    match b.Ast.tail with
    | Some e ->
        (* The tail value must survive the enclosing frame pops: copy
           it into a temp registered one frame up if needed. *)
        lower_expr fb e
    | None -> Mir.Const Mir.Cunit
  in
  fb.vars <- saved_vars;
  v

(* ---------------- functions --------------------------------------- *)

and lower_fn_raw env config out_bodies unsafe_spans ~fn_id
    ~(params : (string * Ty.t) list) ~captures ~unsafe_fn ~span
    ?(ret_ty = Ty.Unknown) ~(body_expr : Ast.expr) () =
  let fb =
    {
      env;
      config;
      fn_id;
      locals = Array.make 16 no_local;
      n_locals = 0;
      blocks = Array.make 16 no_block;
      n_blocks = 0;
      cur = 0;
      curbuf = no_block;
      vars = { locals_of = []; gamma = [] };
      scopes = [];
      frames = [];
      loops = [];
      moved = Hashtbl.create 16;
      uninit = Hashtbl.create 16;
      in_unsafe = unsafe_fn;
      closure_count = 0;
      closure_of_local = [];
      out_bodies;
      unsafe_spans;
      terminated = false;
      ret_ty;
      ret_l = None;
    }
  in
  let entry = new_block fb in
  switch_to fb entry;
  if unsafe_fn then unsafe_spans := span :: !unsafe_spans;
  (* parameters: locals 0..n-1, alive on entry *)
  List.iter
    (fun (name, ty) ->
      let l = new_local fb ~name ~user:true ~span ty in
      bind_var fb name l)
    params;
  push_scope fb;
  push_frame fb;
  let ret_op = lower_expr fb body_expr in
  (* move the result into the return place before the exit drops *)
  let rl = get_ret_local fb ~span in
  sink fb ret_op;
  emit fb ~span (Mir.Assign (Mir.local_place rl, Mir.Use ret_op));
  pop_frame fb ~span ();
  pop_scope fb ~span ();
  if not fb.terminated then
    set_term fb ~span (Mir.Return (Some (Mir.move_local rl)));
  (* finalize: materialize growable blocks *)
  let blocks =
    Array.init fb.n_blocks (fun i ->
        let bb = block fb i in
        {
          Mir.stmts = List.rev bb.bstmts;
          term = Option.value bb.bterm ~default:(Mir.Return None);
          t_span = bb.bspan;
        })
  in
  let locals = Array.sub fb.locals 0 fb.n_locals in
  Hashtbl.replace out_bodies fn_id
    {
      Mir.fn_id;
      arg_count = List.length params;
      locals;
      blocks;
      fn_unsafe = unsafe_fn;
      body_span = span;
      captures;
      body_cfg = None;
      body_ix = -1;
    }

let lower_fn env config out_bodies unsafe_spans ~fn_id ?self_ty
    (fd : Ast.fn_def) =
  match fd.Ast.fn_body with
  | None -> ()
  | Some body ->
      let param_tys, ret_ty = Sema.Typeck.fn_sig env ?self_ty fd in
      let params =
        List.map2
          (fun p ty ->
            match p with
            | Ast.Param_self _ -> ("self", ty)
            | Ast.Param (_, name, _) -> (name, ty))
          fd.Ast.fn_params param_tys
      in
      lower_fn_raw env config out_bodies unsafe_spans ~fn_id ~params
        ~captures:[] ~unsafe_fn:fd.Ast.fn_unsafe ~span:fd.Ast.fn_span ~ret_ty
        ~body_expr:{ Ast.e = Ast.E_block body; espan = body.Ast.bspan } ()

(* ------------------------------------------------------------------ *)
(* Crate lowering                                                      *)
(* ------------------------------------------------------------------ *)

(* Bodies of a crate before closures: one per free function and impl
   method. *)
let rec fn_count items =
  List.fold_left
    (fun n item ->
      match item with
      | Ast.I_fn _ -> n + 1
      | Ast.I_impl ib -> n + List.length ib.Ast.impl_items
      | Ast.I_mod (_, sub) -> n + fn_count sub
      | Ast.I_struct _ | Ast.I_enum _ | Ast.I_trait _ | Ast.I_static _
      | Ast.I_use _ | Ast.I_error _ ->
          n)
    0 items

let lower_crate ?(config = default_config) (env : Sema.Env.t) : Mir.program =
  let out_bodies = Hashtbl.create (fn_count env.Sema.Env.crate.Ast.items) in
  let unsafe_spans = ref [] in
  let rec do_items items =
    List.iter
      (fun item ->
        match item with
        | Ast.I_fn fd ->
            lower_fn env config out_bodies unsafe_spans ~fn_id:fd.Ast.fn_name fd
        | Ast.I_impl ib ->
            let head =
              match ib.Ast.impl_self_ty.Ast.t with
              | Ast.Ty_path (p, _) -> (
                  match List.rev p.Ast.segments with
                  | last :: _ -> last
                  | [] -> "<anon>")
              | _ -> "<anon>"
            in
            let self_ty = Sema.Env.ty_of_ast env ib.Ast.impl_self_ty in
            List.iter
              (fun fd ->
                lower_fn env config out_bodies unsafe_spans
                  ~fn_id:(head ^ "::" ^ fd.Ast.fn_name)
                  ~self_ty fd)
              ib.Ast.impl_items
        | Ast.I_mod (_, sub) -> do_items sub
        | Ast.I_struct _ | Ast.I_enum _ | Ast.I_trait _ | Ast.I_static _
        | Ast.I_use _ | Ast.I_error _ ->
            ())
      items
  in
  do_items env.Sema.Env.crate.Ast.items;
  {
    Mir.bodies = out_bodies;
    prog_env = env;
    unsafe_spans = !unsafe_spans;
    prog_body_list = None;
  }

(** Parse, resolve and lower a source string in one step. *)
let program_of_source ?(config = default_config) ~file src : Mir.program =
  let crate = Parser.parse_crate ~file src in
  let env =
    Support.Trace.with_span ~cat:"frontend" ~args:[ ("file", file) ]
      "frontend.typeck" (fun () -> Sema.Env.of_crate crate)
  in
  Support.Trace.with_span ~cat:"frontend" ~args:[ ("file", file) ]
    "frontend.lower" (fun () -> lower_crate ~config env)

(** Like [program_of_source] but with frontend error recovery: lexical
    and syntax errors become diagnostics plus [E_error]/[I_error] AST
    nodes (typed [Unknown], lowered to nothing), so the healthy parts
    of a malformed file still produce MIR bodies. Lowering errors past
    the frontend (rare) still raise; callers wanting total isolation
    wrap this in [Diag.protect] or a catch-all. *)
let program_of_source_recovering ?(config = default_config) ~file src :
    Mir.program * Support.Diag.t list =
  let crate, diags = Parser.parse_crate_recovering ~file src in
  let env =
    Support.Trace.with_span ~cat:"frontend" ~args:[ ("file", file) ]
      "frontend.typeck" (fun () -> Sema.Env.of_crate crate)
  in
  ( Support.Trace.with_span ~cat:"frontend" ~args:[ ("file", file) ]
      "frontend.lower" (fun () -> lower_crate ~config env),
    diags )
