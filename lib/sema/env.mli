(** Crate-level environment: item tables collected in one pass, shared
    by type checking, MIR lowering and the unsafe scanner. *)

open Syntax

type fn_sig = {
  sig_fn : Ast.fn_def;
  sig_params : Ty.t list;  (** a [self] parameter as if its type were unknown *)
  sig_ret : Ty.t;
}

type memo
(** Every item-level type, resolved once by {!of_crate}. *)

type t = {
  structs : (string, Ast.struct_def) Hashtbl.t;
  enums : (string, Ast.enum_def) Hashtbl.t;
  variants : (string, string) Hashtbl.t;
  fns : (string, Ast.fn_def) Hashtbl.t;
  impls : (string, Ast.impl_block) Hashtbl.t;
  traits : (string, Ast.trait_def) Hashtbl.t;
  statics : (string, Ast.static_def) Hashtbl.t;
  mutable sync_impls : (string * bool) list;
      (** types with an [impl Sync/Send], with the unsafe flag *)
  crate : Ast.crate;
  memo : memo;
}

val of_crate : Ast.crate -> t
(** Collect the item tables, then resolve every fn signature, impl self
    type, struct field, enum variant and static type once, hash-consed:
    structurally equal types share one value. Nothing writes the result
    afterwards, so domains may share it. *)

val find_struct : t -> string -> Ast.struct_def option
val find_enum : t -> string -> Ast.enum_def option
val find_fn : t -> string -> Ast.fn_def option
val find_static : t -> string -> Ast.static_def option
val enum_of_variant : t -> string -> string option
val impls_of : t -> string -> Ast.impl_block list

val find_method : t -> string -> string -> Ast.fn_def option
(** Inherent or trait-impl method lookup on a type head. *)

val find_assoc_fn : t -> string -> string -> Ast.fn_def option
val implements_sync : t -> string -> bool

val ty_of_ast : t -> Ast.ty -> Ty.t
(** Convert a surface type to a semantic type: the value {!of_crate}
    resolved for an item-level type, else a fresh conversion. *)

val resolved_sig : t -> Ast.fn_def -> fn_sig option
(** The signature {!of_crate} resolved for this very definition
    (physically), if it is one of the crate's free functions or impl
    methods. *)

val field_ty : t -> Ast.struct_def -> Ty.t list -> string -> Ty.t option
(** Field type with the struct's generics instantiated. *)
