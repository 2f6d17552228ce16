(** Source positions and spans.

    Every AST node, MIR statement and detector finding carries a span,
    so the study layer can compute classifications like "is the bug's
    effect inside an unsafe region" from locations rather than
    annotations.

    A span is a single heap block of five words: the file, then the two
    byte offsets and the line and column of each end, packed two to an
    int. Only this module
    builds one; [pos] records are made on demand by {!start_pos} and
    {!end_pos}. *)

type pos = { line : int; col : int; offset : int }

type t

val dummy : t

val v :
  file:string ->
  lo:int ->
  lo_line:int ->
  lo_col:int ->
  hi:int ->
  hi_line:int ->
  hi_col:int ->
  t
(** The span of bytes [[lo, hi)] of [file], whose ends sit at the given
    1-based lines and columns. Builds no [pos] record. Each number is
    kept in 31 bits; larger ones saturate at [2^31 - 1]. *)

val file : t -> string
val start_offset : t -> int
val end_offset : t -> int
val start_pos : t -> pos
val end_pos : t -> pos
val is_dummy : t -> bool

val union : t -> t -> t
(** Smallest span covering both operands; dummy spans are identities. *)

val contains : t -> t -> bool
(** [contains outer inner]: does [inner] lie entirely within [outer]?
    Dummy spans contain nothing and are contained in nothing. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val compare : t -> t -> int
(** By file, then start offset, then end offset. *)

val equal : t -> t -> bool
