(** Crate-level environment: item tables collected in one pass, used by
    type checking, lowering and the unsafe-usage scanner. *)

open Syntax

(* The name a type path resolves by. *)
let path_last (p : Ast.path) =
  let rec go = function [ s ] -> s | _ :: tl -> go tl | [] -> "?" in
  go p.Ast.segments

(* Surface types compared by what {!ty_of_ast} reads of them: spans
   are ignored and a path counts by its last segment. *)
module Ast_ty = Hashtbl.Make (struct
  type t = Ast.ty

  let last = path_last

  let rec equal (a : Ast.ty) (b : Ast.ty) =
    match (a.Ast.t, b.Ast.t) with
    | Ast.Ty_path (p, xs), Ast.Ty_path (q, ys) ->
        String.equal (last p) (last q) && list_equal xs ys
    | Ast.Ty_ref (m, x), Ast.Ty_ref (n, y) | Ast.Ty_ptr (m, x), Ast.Ty_ptr (n, y)
      ->
        m = n && equal x y
    | Ast.Ty_tuple xs, Ast.Ty_tuple ys -> list_equal xs ys
    | Ast.Ty_fn (xs, r), Ast.Ty_fn (ys, s) -> list_equal xs ys && equal r s
    | Ast.Ty_infer, Ast.Ty_infer -> true
    | _ -> false

  and list_equal xs ys =
    match (xs, ys) with
    | [], [] -> true
    | x :: xs, y :: ys -> equal x y && list_equal xs ys
    | _ -> false

  let rec hash (t : Ast.ty) =
    match t.Ast.t with
    | Ast.Ty_path (p, xs) -> list_hash (Hashtbl.hash (last p)) xs
    | Ast.Ty_ref (m, x) -> (31 * hash x) + if m = Ast.Mut then 1 else 2
    | Ast.Ty_ptr (m, x) -> (37 * hash x) + if m = Ast.Mut then 3 else 4
    | Ast.Ty_tuple xs -> list_hash 5 xs
    | Ast.Ty_fn (xs, r) -> list_hash (hash r + 6) xs
    | Ast.Ty_infer -> 7

  and list_hash h xs =
    List.fold_left (fun h x -> (h * 65599) + hash x) h xs land max_int
end)

type fn_sig = {
  sig_fn : Ast.fn_def;
  sig_params : Ty.t list;  (** a [self] parameter as if its type were unknown *)
  sig_ret : Ty.t;
}

type memo = {
  types : Ty.t Ty.Tbl.t;  (** canonical instances of every resolved type *)
  resolved : Ty.t Ast_ty.t;  (** item-level surface type -> its type *)
  sigs : (string, fn_sig) Hashtbl.t;
      (** fn or method name -> the signature of each definition of that
          name (several bindings when names repeat) *)
}

type t = {
  structs : (string, Ast.struct_def) Hashtbl.t;
  enums : (string, Ast.enum_def) Hashtbl.t;
  variants : (string, string) Hashtbl.t;  (** variant name -> enum name *)
  fns : (string, Ast.fn_def) Hashtbl.t;  (** free functions *)
  impls : (string, Ast.impl_block) Hashtbl.t;  (** self type head -> impls *)
  traits : (string, Ast.trait_def) Hashtbl.t;
  statics : (string, Ast.static_def) Hashtbl.t;
  mutable sync_impls : (string * bool) list;
      (** (type, unsafe?) for [impl Sync/Send for T] *)
  crate : Ast.crate;
  memo : memo;  (** filled by [of_crate], read-only afterwards *)
}

let rec collect_items env items =
  List.iter
    (fun item ->
      match item with
      | Ast.I_struct s -> Hashtbl.replace env.structs s.Ast.s_name s
      | Ast.I_enum e ->
          Hashtbl.replace env.enums e.Ast.e_name e;
          List.iter
            (fun v -> Hashtbl.replace env.variants v.Ast.v_name e.Ast.e_name)
            e.Ast.e_variants
      | Ast.I_fn f -> Hashtbl.replace env.fns f.Ast.fn_name f
      | Ast.I_impl ib ->
          let head =
            match ib.Ast.impl_self_ty.Ast.t with
            | Ast.Ty_path (p, _) -> (
                match List.rev p.Ast.segments with
                | last :: _ -> last
                | [] -> "<anon>")
            | _ -> "<anon>"
          in
          Hashtbl.add env.impls head ib;
          (match ib.Ast.impl_trait with
          | Some tr
            when List.mem (Ast.path_name tr) [ "Sync"; "Send" ] ->
              env.sync_impls <- (head, ib.Ast.impl_unsafe) :: env.sync_impls
          | _ -> ())
      | Ast.I_trait t -> Hashtbl.replace env.traits t.Ast.tr_name t
      | Ast.I_static s -> Hashtbl.replace env.statics s.Ast.st_name s
      | Ast.I_use _ -> ()
      | Ast.I_error _ -> ()
      | Ast.I_mod (_, sub) -> collect_items env sub)
    items

let find_struct env name = Hashtbl.find_opt env.structs name
let find_enum env name = Hashtbl.find_opt env.enums name
let find_fn env name = Hashtbl.find_opt env.fns name
let find_static env name = Hashtbl.find_opt env.statics name
let enum_of_variant env v = Hashtbl.find_opt env.variants v

let impls_of env type_head = Hashtbl.find_all env.impls type_head

(** Look up an inherent or trait-impl method [name] on type [head]. *)
let find_method env type_head name : Ast.fn_def option =
  let rec search = function
    | [] -> None
    | ib :: rest -> (
        match
          List.find_opt (fun f -> String.equal f.Ast.fn_name name) ib.Ast.impl_items
        with
        | Some f -> Some f
        | None -> search rest)
  in
  search (impls_of env type_head)

(** Look up an associated function via [Type::name] call syntax. *)
let find_assoc_fn env type_head name = find_method env type_head name

(** Does [type_head] implement Sync or Send (via an explicit impl)? *)
let implements_sync env type_head =
  List.exists (fun (t, _) -> String.equal t type_head) env.sync_impls

(* ------------------------------------------------------------------ *)
(* AST type -> semantic type                                           *)
(* ------------------------------------------------------------------ *)

let rec convert (t : Ast.ty) : Ty.t =
  match t.Ast.t with
  | Ast.Ty_ref (m, inner) -> Ty.Ref (m, convert inner)
  | Ast.Ty_ptr (m, inner) -> Ty.Ptr (m, convert inner)
  | Ast.Ty_tuple ts -> (
      match ts with [] -> Ty.unit_ | _ -> Ty.Tuple (List.map convert ts))
  | Ast.Ty_fn (args, ret) -> Ty.Fn (List.map convert args, convert ret)
  | Ast.Ty_infer -> Ty.Unknown
  | Ast.Ty_path (p, args) -> (
      let name = path_last p in
      match (Ty.prim_of_name name, args) with
      | Some prim, [] -> Ty.prim prim
      | _ -> Ty.Named (name, List.map convert args))

(* Read-only after [of_crate]: pool domains type through a shared
   environment (the oracle), so a miss converts without recording. *)
let ty_of_ast env (t : Ast.ty) : Ty.t =
  match Ast_ty.find_opt env.memo.resolved t with
  | Some ty -> ty
  | None -> convert t

let rec substitute subst (t : Ty.t) =
  match t with
  | Ty.Named (n, []) -> (
      match List.assoc_opt n subst with Some t' -> t' | None -> t)
  | Ty.Named (n, args) -> Ty.Named (n, List.map (substitute subst) args)
  | Ty.Ref (m, t') -> Ty.Ref (m, substitute subst t')
  | Ty.Ptr (m, t') -> Ty.Ptr (m, substitute subst t')
  | Ty.Tuple ts -> Ty.Tuple (List.map (substitute subst) ts)
  | Ty.Fn (args, ret) ->
      Ty.Fn (List.map (substitute subst) args, substitute subst ret)
  | Ty.Prim _ | Ty.Unknown -> t

(** Type of a struct field, with the struct's generic parameters
    substituted by the instantiation [targs]. *)
let field_ty env (sd : Ast.struct_def) targs field_name : Ty.t option =
  match
    List.find_opt
      (fun f -> String.equal f.Ast.field_name field_name)
      sd.Ast.s_fields
  with
  | None -> None
  | Some f -> (
      let ty = ty_of_ast env f.Ast.field_ty in
      match sd.Ast.s_generics with
      | [] -> Some ty
      | generics ->
          let subst =
            List.combine generics
              (if List.length targs = List.length generics then targs
               else List.map (fun _ -> Ty.Unknown) generics)
          in
          Some (substitute subst ty))

(* ------------------------------------------------------------------ *)
(* Signatures                                                          *)
(* ------------------------------------------------------------------ *)

(** The signature [of_crate] resolved for this very definition, if it
    is one of the crate's free functions or impl methods. *)
let resolved_sig env (fd : Ast.fn_def) =
  match Hashtbl.find_opt env.memo.sigs fd.Ast.fn_name with
  | Some s when s.sig_fn == fd -> Some s
  | None -> None
  | Some _ ->
      List.find_opt
        (fun s -> s.sig_fn == fd)
        (Hashtbl.find_all env.memo.sigs fd.Ast.fn_name)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Resolve a surface type once, as its canonical instance. *)
let resolve env (t : Ast.ty) =
  match Ast_ty.find_opt env.memo.resolved t with
  | Some ty -> ty
  | None ->
      let ty = Ty.share env.memo.types (convert t) in
      Ast_ty.add env.memo.resolved t ty;
      ty

let rec resolve_items env items =
  let resolve_fn (fd : Ast.fn_def) =
    let param = function
      | Ast.Param_self None -> Ty.Unknown
      | Ast.Param_self (Some m) -> Ty.Ref (m, Ty.Unknown)
      | Ast.Param (_, _, ty) -> resolve env ty
    in
    let s =
      {
        sig_fn = fd;
        sig_params = List.map param fd.Ast.fn_params;
        sig_ret =
          (match fd.Ast.fn_ret with Some t -> resolve env t | None -> Ty.unit_);
      }
    in
    Hashtbl.add env.memo.sigs fd.Ast.fn_name s
  in
  let resolve_ t = ignore (resolve env t) in
  List.iter
    (function
      | Ast.I_fn fd -> resolve_fn fd
      | Ast.I_impl ib ->
          resolve_ ib.Ast.impl_self_ty;
          List.iter resolve_fn ib.Ast.impl_items
      | Ast.I_struct sd ->
          List.iter (fun f -> resolve_ f.Ast.field_ty) sd.Ast.s_fields
      | Ast.I_enum ed ->
          List.iter (fun v -> List.iter resolve_ v.Ast.v_args) ed.Ast.e_variants
      | Ast.I_static sd -> resolve_ sd.Ast.st_ty
      | Ast.I_mod (_, sub) -> resolve_items env sub
      | Ast.I_trait _ | Ast.I_use _ | Ast.I_error _ -> ())
    items

(** Collect the item tables, then resolve every fn signature, impl self
    type, struct field, enum variant and static type once. Structurally
    equal types share one value. The tables are read-only afterwards. *)
let of_crate (crate : Ast.crate) : t =
  let env =
    {
      structs = Hashtbl.create 16;
      enums = Hashtbl.create 16;
      variants = Hashtbl.create 16;
      fns = Hashtbl.create 16;
      impls = Hashtbl.create 16;
      traits = Hashtbl.create 16;
      statics = Hashtbl.create 16;
      sync_impls = [];
      crate;
      memo =
        {
          types = Ty.Tbl.create 16;
          resolved = Ast_ty.create 16;
          sigs = Hashtbl.create (List.length crate.Ast.items);
        };
    }
  in
  collect_items env crate.Ast.items;
  resolve_items env crate.Ast.items;
  env
