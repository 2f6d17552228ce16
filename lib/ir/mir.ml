(** RustLite's MIR: a control-flow graph of basic blocks with explicit
    [StorageLive]/[StorageDead] markers and [Drop] statements, mirroring
    the constructs of rustc's MIR that the PLDI'20 detectors consume. *)

open Support

type local = int

type local_info = {
  l_name : string option;  (** user variable name, [None] for temps *)
  l_ty : Sema.Ty.t;
  l_mut : bool;
  l_user : bool;  (** declared by the user (vs compiler temp) *)
  l_span : Span.t;
}

type proj =
  | Deref
  | Field of string
  | Index  (** dynamic index; the index operand is not tracked *)
  | Downcast of string  (** enum variant projection *)

type place = { base : local; proj : proj list }

(* [per_local mk] is [mk], memoized per local index: one immutable
   value per index, shared by every body and domain. The table only
   grows; a domain that loses the race to grow it keeps its own copy,
   whose values are equal. *)
let per_local (mk : local -> 'a) : local -> 'a =
  let tbl = Atomic.make (Array.init 256 mk) in
  fun l ->
    let a = Atomic.get tbl in
    let n = Array.length a in
    if l < n then a.(l)
    else begin
      let a' =
        Array.init (max (l + 1) (2 * n)) (fun i -> if i < n then a.(i) else mk i)
      in
      ignore (Atomic.compare_and_set tbl a a');
      a'.(l)
    end

(** The projection-free place of a local. MIR names whole locals far
    more often than it projects them, so these are shared. *)
let local_place = per_local (fun base -> { base; proj = [] })

let place_is_local p = p.proj = []

type constant =
  | Cint of int
  | Cbool of bool
  | Cstr of string
  | Cfloat of float
  | Cunit
  | Cfn of string  (** reference to a function or closure body *)

type operand = Copy of place | Move of place | Const of constant

(** Shared [Copy]/[Move] operands of a whole local, as {!local_place}. *)
let copy_local = per_local (fun l -> Copy (local_place l))
let move_local = per_local (fun l -> Move (local_place l))

(** [Copy p] / [Move p], shared when [p] is a whole local. *)
let copy p = if p.proj = [] then copy_local p.base else Copy p
let move p = if p.proj = [] then move_local p.base else Move p

type agg_kind =
  | Agg_struct of string
  | Agg_tuple
  | Agg_variant of string * string  (** enum, variant *)
  | Agg_closure of string  (** closure body id; operands are captures *)
  | Agg_vec

type binop = Syntax.Ast.binop
type unop = Syntax.Ast.unop

type rvalue =
  | Use of operand
  | Ref of Sema.Ty.mutability * place
  | AddrOf of Sema.Ty.mutability * place  (** [&raw] / [as *const] of place *)
  | BinaryOp of binop * operand * operand
  | UnaryOp of unop * operand
  | Aggregate of agg_kind * operand list
  | Cast of operand * Sema.Ty.t
  | Discriminant of place
  | Alloc of Sema.Ty.t  (** heap allocation yielding raw memory *)

(** Semantic classification of call targets. The detectors key on these
    rather than re-deriving semantics from names. *)
type builtin =
  | MutexLock
  | MutexTryLock
  | RwRead
  | RwTryRead
  | RwWrite
  | RwTryWrite
  | ResultUnwrap  (** also [expect], [?] *)
  | OptionUnwrap
  | PtrRead
  | PtrWrite
  | PtrCopy
  | PtrOffset
  | PtrNull
  | MemDrop
  | MemForget
  | MemReplace
  | MemSwap
  | MemTransmute
  | MemUninit
  | SizeOf
  | HeapAlloc
  | HeapDealloc
  | ThreadSpawn
  | ThreadJoin
  | ThreadSleep
  | CondvarWait
  | CondvarNotifyOne
  | CondvarNotifyAll
  | ChannelNew
  | SyncChannelNew
  | ChannelSend
  | ChannelRecv
  | ChannelTryRecv
  | AtomicLoad
  | AtomicStore
  | AtomicSwap
  | AtomicCas
  | AtomicFetch
  | CtorNew of string  (** [Arc::new], [Mutex::new], ... (type head) *)
  | IntoRaw
  | FromRaw
  | VecFromRawParts
  | RefCellBorrow
  | RefCellBorrowMut
  | CellGet
  | CellSet
  | UnsafeCellGet
  | OnceCallOnce
  | VecPush
  | VecPop
  | VecGet
  | VecGetUnchecked
  | VecSetLen
  | VecAsPtr
  | VecLen
  | CloneFn
  | StrFromUtf8Unchecked
  | OptionCtor of string  (** Some / None / Ok / Err *)
  | VariantCtor of string * string  (** user enum, variant *)
  | Extern of string  (** FFI or unresolved function *)
  | Pure of string  (** misc known-pure method (len, is_empty, ...) *)

type callee =
  | Fn of string  (** user free function *)
  | Method of string * string  (** type head, method name *)
  | ClosureCall of string  (** direct call of a closure body *)
  | Builtin of builtin

type call = {
  callee : callee;
  args : operand list;
  dest : place;
  dest_ty : Sema.Ty.t;
  call_unsafe : bool;  (** call site lexically inside an unsafe region *)
  call_span : Span.t;
}

type stmt_kind =
  | Assign of place * rvalue
  | StorageLive of local
  | StorageDead of local
  | Drop of place
  | Nop

(** Shared [StorageLive l] / [StorageDead l] kinds, as {!local_place}. *)
let storage_live = per_local (fun l -> StorageLive l)
let storage_dead = per_local (fun l -> StorageDead l)

type stmt = { kind : stmt_kind; s_span : Span.t; s_unsafe : bool }

type terminator =
  | Goto of int
  | SwitchInt of operand * (int * int) list * int  (** (value, target), default *)
  | Call of call * int  (** call, successor block *)
  | Return of operand option
  | Unreachable
  | Abort of string  (** panic *)

type block = { stmts : stmt list; term : terminator; t_span : Span.t }

type cfg = {
  cfg_succs : int array array;  (** in-range successor ids per block *)
  cfg_preds : int array array;
  cfg_rpo : int array;  (** reverse-postorder sequence of reachable blocks *)
  cfg_prio : int array;  (** block id -> RPO index; -1 when unreachable *)
  cfg_reachable : bool array;
}
(** Derived control-flow structure, computed once per body by
    [Analysis.Dataflow.cfg_of] and memoized below: every fixpoint over
    the same body shares one successor/predecessor/RPO computation. *)

type body = {
  fn_id : string;
  arg_count : int;
  locals : local_info array;
  blocks : block array;
  fn_unsafe : bool;
  body_span : Span.t;
  captures : (int * string) list;
      (** for closure bodies: param index -> captured variable name in
          the enclosing function *)
  mutable body_cfg : cfg option;
      (** CFG memo; filled on first analysis. Concurrent fills from
          several domains are benign: both compute equal values and the
          write is a single word. *)
  mutable body_ix : int;
      (** dense program-wide index ([body_list] position), assigned on
          first [body_list] call; -1 until then. Lets analysis caches
          use array slots instead of hashing [fn_id] strings. *)
}

type program = {
  bodies : (string, body) Hashtbl.t;
  prog_env : Sema.Env.t;
  unsafe_spans : Span.t list;
      (** spans of unsafe blocks and unsafe fn bodies, for
          cause/effect-in-unsafe classification *)
  mutable prog_body_list : body list option;
      (** memo of [body_list] (the sorted order is stable; detectors
          ask for it on every pass). Benign race, same as [body_cfg]. *)
}

let body_list p =
  match p.prog_body_list with
  | Some bs -> bs
  | None ->
      let bs =
        Hashtbl.fold (fun _ b acc -> b :: acc) p.bodies []
        |> List.sort (fun a b -> String.compare a.fn_id b.fn_id)
      in
      List.iteri (fun i b -> b.body_ix <- i) bs;
      p.prog_body_list <- Some bs;
      bs

let body_count p = Hashtbl.length p.bodies

let find_body p id = Hashtbl.find_opt p.bodies id

let local_ty (b : body) (l : local) = b.locals.(l).l_ty

let in_unsafe_region (p : program) (span : Span.t) =
  List.exists (fun u -> Span.contains u span) p.unsafe_spans

(** Successor block ids of a terminator. *)
let successors = function
  | Goto t -> [ t ]
  | SwitchInt (_, cases, default) -> default :: List.map snd cases
  | Call (_, t) -> [ t ]
  | Return _ | Unreachable | Abort _ -> []

(* ------------------------------------------------------------------ *)
(* Classification helpers shared by detectors                          *)
(* ------------------------------------------------------------------ *)

let is_lock_acquire = function
  | MutexLock | RwRead | RwWrite -> true
  | _ -> false

let is_try_lock = function
  | MutexTryLock | RwTryRead | RwTryWrite -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Construct index: the sites a detector can fire on                   *)
(* ------------------------------------------------------------------ *)

(** Bits of a body's construct index ({!sites}). Each is one kind of
    MIR site some detector needs before it can report; a detector
    whose sites are absent skips the body without forcing any
    analysis of it. *)
module Site = struct
  let addr_local = 1 lsl 0  (* [&x] / [&raw x] of a place with no deref *)
  let ptr_local = 1 lsl 1  (* a raw-pointer- or reference-typed local *)
  let null_src = 1 lsl 2  (* [ptr::null()] or [0 as *T] *)
  let ptr_read = 1 lsl 3
  let from_raw2 = 1 lsl 4  (* two or more [from_raw] calls *)
  let drop_deref = 1 lsl 5  (* [Drop] of a place projecting a deref *)
  let heap = 1 lsl 6  (* [Alloc], [alloc] or a [T::new] constructor *)
  let mem_uninit = 1 lsl 7
  let set_len = 1 lsl 8
  let unchecked = 1 lsl 9  (* [get_unchecked], [offset], [copy_nonoverlapping] *)
  let refcell = 1 lsl 10  (* [RefCell::borrow] / [borrow_mut] *)
  let atomic_load = 1 lsl 11
  let atomic_store = 1 lsl 12
  let condvar = 1 lsl 13  (* [wait] / [notify_one] / [notify_all] *)
  let channel = 1 lsl 14  (* [send] / [recv] *)
  let lock = 1 lsl 15  (* any lock-acquiring call, [try_] variants too *)
  let lock2 = 1 lsl 16  (* two or more lock-acquiring calls *)
  let call_once = 1 lsl 17
  let store_through = 1 lsl 18
      (* assignment to a deref place, [Cell::set] or [ptr::write] *)

  let all s bits = s land bits = bits
  let any s bits = s land bits <> 0
end

(** The construct index of a body: the {!Site} bits of every site in
    it, in one pass. Pure; [Analysis.Cache.sites] memoises it. *)
let sites (b : body) : int =
  let s = ref 0 and locks = ref 0 and from_raws = ref 0 in
  let add bit = s := !s lor bit in
  let has_deref p = List.mem Deref p.proj in
  if
    Array.exists
      (fun li -> Sema.Ty.is_raw_ptr li.l_ty || Sema.Ty.is_ref li.l_ty)
      b.locals
  then add Site.ptr_local;
  Array.iter
    (fun blk ->
      List.iter
        (fun st ->
          match st.kind with
          | Assign (dest, rv) -> (
              if has_deref dest then add Site.store_through;
              match rv with
              | Ref (_, p) | AddrOf (_, p) ->
                  if not (has_deref p) then add Site.addr_local
              | Cast (Const (Cint 0), _) -> add Site.null_src
              | Alloc _ -> add Site.heap
              | _ -> ())
          | Drop p -> if has_deref p then add Site.drop_deref
          | StorageLive _ | StorageDead _ | Nop -> ())
        blk.stmts;
      match blk.term with
      | Call ({ callee = Builtin bi; _ }, _) -> (
          match bi with
          | MutexLock | MutexTryLock | RwRead | RwTryRead | RwWrite
          | RwTryWrite ->
              incr locks
          | FromRaw -> incr from_raws
          | PtrNull -> add Site.null_src
          | PtrRead -> add Site.ptr_read
          | HeapAlloc | CtorNew _ -> add Site.heap
          | MemUninit -> add Site.mem_uninit
          | VecSetLen -> add Site.set_len
          | VecGetUnchecked | PtrOffset | PtrCopy -> add Site.unchecked
          | RefCellBorrow | RefCellBorrowMut -> add Site.refcell
          | AtomicLoad -> add Site.atomic_load
          | AtomicStore -> add Site.atomic_store
          | CondvarWait | CondvarNotifyOne | CondvarNotifyAll ->
              add Site.condvar
          | ChannelSend | ChannelRecv -> add Site.channel
          | OnceCallOnce -> add Site.call_once
          | CellSet | PtrWrite -> add Site.store_through
          | _ -> ())
      | _ -> ())
    b.blocks;
  if !locks >= 1 then add Site.lock;
  if !locks >= 2 then add Site.lock2;
  if !from_raws >= 2 then add Site.from_raw2;
  !s

let builtin_name = function
  | MutexLock -> "Mutex::lock"
  | MutexTryLock -> "Mutex::try_lock"
  | RwRead -> "RwLock::read"
  | RwTryRead -> "RwLock::try_read"
  | RwWrite -> "RwLock::write"
  | RwTryWrite -> "RwLock::try_write"
  | ResultUnwrap -> "Result::unwrap"
  | OptionUnwrap -> "Option::unwrap"
  | PtrRead -> "ptr::read"
  | PtrWrite -> "ptr::write"
  | PtrCopy -> "ptr::copy_nonoverlapping"
  | PtrOffset -> "ptr::offset"
  | PtrNull -> "ptr::null"
  | MemDrop -> "mem::drop"
  | MemForget -> "mem::forget"
  | MemReplace -> "mem::replace"
  | MemSwap -> "mem::swap"
  | MemTransmute -> "mem::transmute"
  | MemUninit -> "mem::uninitialized"
  | SizeOf -> "mem::size_of"
  | HeapAlloc -> "alloc"
  | HeapDealloc -> "dealloc"
  | ThreadSpawn -> "thread::spawn"
  | ThreadJoin -> "JoinHandle::join"
  | ThreadSleep -> "thread::sleep"
  | CondvarWait -> "Condvar::wait"
  | CondvarNotifyOne -> "Condvar::notify_one"
  | CondvarNotifyAll -> "Condvar::notify_all"
  | ChannelNew -> "mpsc::channel"
  | SyncChannelNew -> "mpsc::sync_channel"
  | ChannelSend -> "Sender::send"
  | ChannelRecv -> "Receiver::recv"
  | ChannelTryRecv -> "Receiver::try_recv"
  | AtomicLoad -> "Atomic::load"
  | AtomicStore -> "Atomic::store"
  | AtomicSwap -> "Atomic::swap"
  | AtomicCas -> "Atomic::compare_and_swap"
  | AtomicFetch -> "Atomic::fetch_op"
  | CtorNew head -> head ^ "::new"
  | IntoRaw -> "into_raw"
  | FromRaw -> "from_raw"
  | VecFromRawParts -> "Vec::from_raw_parts"
  | RefCellBorrow -> "RefCell::borrow"
  | RefCellBorrowMut -> "RefCell::borrow_mut"
  | CellGet -> "Cell::get"
  | CellSet -> "Cell::set"
  | UnsafeCellGet -> "UnsafeCell::get"
  | OnceCallOnce -> "Once::call_once"
  | VecPush -> "Vec::push"
  | VecPop -> "Vec::pop"
  | VecGet -> "Vec::get"
  | VecGetUnchecked -> "Vec::get_unchecked"
  | VecSetLen -> "Vec::set_len"
  | VecAsPtr -> "Vec::as_ptr"
  | VecLen -> "Vec::len"
  | CloneFn -> "clone"
  | StrFromUtf8Unchecked -> "String::from_utf8_unchecked"
  | OptionCtor v -> v
  | VariantCtor (e, v) -> e ^ "::" ^ v
  | Extern f -> "extern:" ^ f
  | Pure f -> f

let callee_name = function
  | Fn f -> f
  | Method (t, m) -> t ^ "::" ^ m
  | ClosureCall c -> c
  | Builtin b -> builtin_name b

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_local ppf l = Fmt.pf ppf "_%d" l

let pp_proj ppf = function
  | Deref -> Fmt.string ppf ".*"
  | Field f -> Fmt.pf ppf ".%s" f
  | Index -> Fmt.string ppf "[_]"
  | Downcast v -> Fmt.pf ppf " as %s" v

let pp_place ppf p =
  Fmt.pf ppf "%a%a" pp_local p.base (Fmt.list ~sep:Fmt.nop pp_proj) p.proj

let pp_constant ppf = function
  | Cint i -> Fmt.int ppf i
  | Cbool b -> Fmt.bool ppf b
  | Cstr s -> Fmt.pf ppf "%S" s
  | Cfloat f -> Fmt.float ppf f
  | Cunit -> Fmt.string ppf "()"
  | Cfn f -> Fmt.pf ppf "fn %s" f

let pp_operand ppf = function
  | Copy p -> Fmt.pf ppf "copy %a" pp_place p
  | Move p -> Fmt.pf ppf "move %a" pp_place p
  | Const c -> Fmt.pf ppf "const %a" pp_constant c

let pp_rvalue ppf = function
  | Use op -> pp_operand ppf op
  | Ref (Imm, p) -> Fmt.pf ppf "&%a" pp_place p
  | Ref (Mut, p) -> Fmt.pf ppf "&mut %a" pp_place p
  | AddrOf (Imm, p) -> Fmt.pf ppf "&raw const %a" pp_place p
  | AddrOf (Mut, p) -> Fmt.pf ppf "&raw mut %a" pp_place p
  | BinaryOp (op, a, b) ->
      Fmt.pf ppf "%s(%a, %a)" (Syntax.Ast.show_binop op) pp_operand a
        pp_operand b
  | UnaryOp (op, a) ->
      Fmt.pf ppf "%s(%a)" (Syntax.Ast.show_unop op) pp_operand a
  | Aggregate (Agg_struct s, ops) ->
      Fmt.pf ppf "%s { %a }" s (Fmt.list ~sep:Fmt.comma pp_operand) ops
  | Aggregate (Agg_tuple, ops) ->
      Fmt.pf ppf "(%a)" (Fmt.list ~sep:Fmt.comma pp_operand) ops
  | Aggregate (Agg_variant (e, v), ops) ->
      Fmt.pf ppf "%s::%s(%a)" e v (Fmt.list ~sep:Fmt.comma pp_operand) ops
  | Aggregate (Agg_closure c, ops) ->
      Fmt.pf ppf "closure %s [%a]" c (Fmt.list ~sep:Fmt.comma pp_operand) ops
  | Aggregate (Agg_vec, ops) ->
      Fmt.pf ppf "vec![%a]" (Fmt.list ~sep:Fmt.comma pp_operand) ops
  | Cast (op, ty) -> Fmt.pf ppf "%a as %a" pp_operand op Sema.Ty.pp ty
  | Discriminant p -> Fmt.pf ppf "discriminant(%a)" pp_place p
  | Alloc ty -> Fmt.pf ppf "alloc(%a)" Sema.Ty.pp ty

let pp_stmt ppf (s : stmt) =
  match s.kind with
  | Assign (p, rv) -> Fmt.pf ppf "%a = %a" pp_place p pp_rvalue rv
  | StorageLive l -> Fmt.pf ppf "StorageLive(%a)" pp_local l
  | StorageDead l -> Fmt.pf ppf "StorageDead(%a)" pp_local l
  | Drop p -> Fmt.pf ppf "drop(%a)" pp_place p
  | Nop -> Fmt.string ppf "nop"

let pp_terminator ppf = function
  | Goto t -> Fmt.pf ppf "goto -> bb%d" t
  | SwitchInt (op, cases, default) ->
      Fmt.pf ppf "switchInt(%a) -> [%a, otherwise: bb%d]" pp_operand op
        (Fmt.list ~sep:Fmt.comma (fun ppf (v, t) -> Fmt.pf ppf "%d: bb%d" v t))
        cases default
  | Call (c, t) ->
      Fmt.pf ppf "%a = %s(%a) -> bb%d" pp_place c.dest (callee_name c.callee)
        (Fmt.list ~sep:Fmt.comma pp_operand)
        c.args t
  | Return None -> Fmt.string ppf "return"
  | Return (Some op) -> Fmt.pf ppf "return %a" pp_operand op
  | Unreachable -> Fmt.string ppf "unreachable"
  | Abort msg -> Fmt.pf ppf "abort(%S)" msg

let pp_body ppf (b : body) =
  Fmt.pf ppf "fn %s(%d args) {@\n" b.fn_id b.arg_count;
  Array.iteri
    (fun i (info : local_info) ->
      Fmt.pf ppf "  let %s_%d: %a;%s@\n"
        (if info.l_mut then "mut " else "")
        i Sema.Ty.pp info.l_ty
        (match info.l_name with Some n -> " // " ^ n | None -> ""))
    b.locals;
  Array.iteri
    (fun i (blk : block) ->
      Fmt.pf ppf "  bb%d: {@\n" i;
      List.iter (fun s -> Fmt.pf ppf "    %a;@\n" pp_stmt s) blk.stmts;
      Fmt.pf ppf "    %a;@\n  }@\n" pp_terminator blk.term)
    b.blocks;
  Fmt.pf ppf "}@\n"

let body_to_string b = Fmt.str "%a" pp_body b
