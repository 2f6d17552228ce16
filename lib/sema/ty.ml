(** Semantic types of RustLite.

    A deliberately small representation: primitives, references, raw
    pointers, tuples, functions, and named type applications. Standard
    library types (Vec, Arc, Mutex, ...) are [Named] applications whose
    names the analyses pattern-match on; helper predicates below keep
    that knowledge in one place. *)

type mutability = Syntax.Ast.mutability = Imm | Mut

type prim =
  | Unit
  | Bool
  | Char
  | Str
  | F64
  | I8
  | I32
  | I64
  | U8
  | U32
  | U64
  | Usize
  | Isize

type t =
  | Prim of prim
  | Ref of mutability * t
  | Ptr of mutability * t
  | Tuple of t list
  | Named of string * t list
      (** user struct/enum, std type, or an unresolved generic parameter *)
  | Fn of t list * t
  | Unknown  (** inference gave up; analyses degrade gracefully *)

let unit_ = Prim Unit
let bool_ = Prim Bool
let i32 = Prim I32
let usize = Prim Usize
let str_ = Prim Str
let string_ = Named ("String", [])

let rec equal a b =
  match (a, b) with
  | Prim p, Prim q -> p = q
  | Ref (m1, t1), Ref (m2, t2) | Ptr (m1, t1), Ptr (m2, t2) ->
      m1 = m2 && equal t1 t2
  | Tuple ts1, Tuple ts2 ->
      List.length ts1 = List.length ts2 && List.for_all2 equal ts1 ts2
  | Named (n1, a1), Named (n2, a2) ->
      String.equal n1 n2
      && List.length a1 = List.length a2
      && List.for_all2 equal a1 a2
  | Fn (a1, r1), Fn (a2, r2) ->
      List.length a1 = List.length a2
      && List.for_all2 equal a1 a2 && equal r1 r2
  | Unknown, Unknown -> true
  | _ -> false

(* One statically allocated value per primitive: [prim p] allocates
   nothing. *)
let prim = function
  | Unit -> Prim Unit
  | Bool -> Prim Bool
  | Char -> Prim Char
  | Str -> Prim Str
  | F64 -> Prim F64
  | I8 -> Prim I8
  | I32 -> Prim I32
  | I64 -> Prim I64
  | U8 -> Prim U8
  | U32 -> Prim U32
  | U64 -> Prim U64
  | Usize -> Prim Usize
  | Isize -> Prim Isize

let prim_to_string = function
  | Unit -> "()"
  | Bool -> "bool"
  | Char -> "char"
  | Str -> "str"
  | F64 -> "f64"
  | I8 -> "i8"
  | I32 -> "i32"
  | I64 -> "i64"
  | U8 -> "u8"
  | U32 -> "u32"
  | U64 -> "u64"
  | Usize -> "usize"
  | Isize -> "isize"

let prim_of_name = function
  | "bool" -> Some Bool
  | "char" -> Some Char
  | "str" -> Some Str
  | "f64" | "f32" -> Some F64
  | "i8" | "i16" -> Some I8
  | "i32" -> Some I32
  | "i64" | "i128" -> Some I64
  | "u8" | "u16" -> Some U8
  | "u32" -> Some U32
  | "u64" | "u128" -> Some U64
  | "usize" -> Some Usize
  | "isize" -> Some Isize
  | _ -> None

let rec pp ppf = function
  | Prim p -> Fmt.string ppf (prim_to_string p)
  | Ref (Imm, t) -> Fmt.pf ppf "&%a" pp t
  | Ref (Mut, t) -> Fmt.pf ppf "&mut %a" pp t
  | Ptr (Imm, t) -> Fmt.pf ppf "*const %a" pp t
  | Ptr (Mut, t) -> Fmt.pf ppf "*mut %a" pp t
  | Tuple [] -> Fmt.string ppf "()"
  | Tuple ts -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") pp) ts
  | Named (n, []) -> Fmt.string ppf n
  | Named (n, args) -> Fmt.pf ppf "%s<%a>" n Fmt.(list ~sep:(any ", ") pp) args
  | Fn (args, ret) -> Fmt.pf ppf "fn(%a) -> %a" Fmt.(list ~sep:(any ", ") pp) args pp ret
  | Unknown -> Fmt.string ppf "?"

let to_string t = Fmt.str "%a" pp t

(* ------------------------------------------------------------------ *)
(* Predicates the analyses rely on                                     *)
(* ------------------------------------------------------------------ *)

let head_name = function
  | Named (n, _) -> Some n
  | Prim p -> Some (prim_to_string p)
  | _ -> None

let args = function Named (_, a) -> a | _ -> []

let first_arg t = match args t with a :: _ -> a | [] -> Unknown

(** Lock guard types; dropping one releases its lock. *)
let is_lock_guard t =
  match head_name t with
  | Some ("MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard") -> true
  | _ -> false

let is_read_guard t =
  match head_name t with Some "RwLockReadGuard" -> true | _ -> false

let is_lock t =
  match head_name t with Some ("Mutex" | "RwLock") -> true | _ -> false

let is_refcell_guard t =
  match head_name t with Some ("CellRef" | "CellRefMut") -> true | _ -> false

let is_atomic t =
  match head_name t with
  | Some
      ( "AtomicBool" | "AtomicUsize" | "AtomicIsize" | "AtomicI32" | "AtomicU32"
      | "AtomicI64" | "AtomicU64" | "AtomicPtr" ) ->
      true
  | _ -> false

let is_arc t = head_name t = Some "Arc"
let is_rc t = head_name t = Some "Rc"
let is_box t = head_name t = Some "Box"
let is_vec t = head_name t = Some "Vec"
let is_option t = head_name t = Some "Option"
let is_result t = head_name t = Some "Result"
let is_raw_ptr = function Ptr _ -> true | _ -> false
let is_ref = function Ref _ -> true | _ -> false

(** Smart-pointer and container types that auto-deref to their first
    type argument for field/method resolution. *)
let autoderef_target t =
  match t with
  | Ref (_, inner) | Ptr (_, inner) -> Some inner
  | Named
      ( ( "Box" | "Arc" | "Rc" | "MutexGuard" | "RwLockReadGuard"
        | "RwLockWriteGuard" | "CellRef" | "CellRefMut" | "ManuallyDrop" ),
        [ inner ] ) ->
      Some inner
  | _ -> None

(** Fully peel references and smart pointers: the type whose fields and
    inherent methods a use of [t] resolves against. *)
let rec peel t =
  match autoderef_target t with Some inner -> peel inner | None -> t

(** Does dropping a value of this type run meaningful cleanup (free
    memory, release a lock, close a channel)? References, raw pointers
    and primitives do not. *)
let rec needs_drop t =
  match t with
  | Prim _ | Ref _ | Ptr _ | Fn _ | Unknown -> false
  | Tuple ts -> List.exists needs_drop ts
  | Named (("Option" | "Result"), args) -> List.exists needs_drop args
  | Named _ -> true

(** Is a value of this type copied rather than moved on assignment? *)
let is_copy t =
  match t with
  | Prim _ | Ref (Imm, _) | Ptr _ | Fn _ -> true
  | Tuple ts -> List.for_all (fun t -> not (needs_drop t)) ts
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = Hashtbl.hash
end)

(** [share tbl t] is the canonical instance of [t] in [tbl], added
    (children first) when absent, so structurally equal types shared
    through one table are one value. Not safe to call on a table other
    domains read. *)
let rec share tbl t =
  match t with
  | Unknown -> t
  | Prim p -> prim p
  | _ -> (
      match Tbl.find_opt tbl t with
      | Some s -> s
      | None ->
          let shared_list ts =
            let ts' = List.map (share tbl) ts in
            if List.for_all2 ( == ) ts ts' then ts else ts'
          in
          let s =
            match t with
            | Ref (m, a) ->
                let a' = share tbl a in
                if a' == a then t else Ref (m, a')
            | Ptr (m, a) ->
                let a' = share tbl a in
                if a' == a then t else Ptr (m, a')
            | Tuple ts ->
                let ts' = shared_list ts in
                if ts' == ts then t else Tuple ts'
            | Named (n, args) ->
                let args' = shared_list args in
                if args' == args then t else Named (n, args')
            | Fn (args, r) ->
                let args' = shared_list args and r' = share tbl r in
                if args' == args && r' == r then t else Fn (args', r')
            | Prim _ | Unknown -> t
          in
          Tbl.add tbl s s;
          s)
