(** Strict JSON: the project's one JSON codec.

    The analysis server's wire protocol, the trace checker and the
    observability exporters all escape and parse through this module.
    It is hardened for adversarial network input: payloads are
    rejected unless they are well-formed UTF-8, nesting depth is
    bounded, trailing garbage after the value is an error, and printing
    is deterministic — the same value always renders to the same
    bytes, which is what lets journalled responses replay
    byte-identically across server restarts. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of string
(** Raised by {!parse} on malformed input. Never escapes
    {!parse_result}. *)

val utf8_valid : string -> bool
(** Exactly RFC 3629 well-formedness: no overlong encodings, no
    surrogate code points, nothing above U+10FFFF. *)

val parse : string -> t
(** Parse one complete JSON value. Raises {!Error} on invalid UTF-8,
    malformed syntax, nesting deeper than 128, or trailing bytes. *)

val parse_result : string -> (t, string) result
(** {!parse} with the exception reified. *)

val escape_into : Buffer.t -> string -> unit
(** Append the body of a JSON string literal (no surrounding quotes).
    Double quote and backslash get a backslash; newline, carriage
    return and tab print as [\n], [\r] and [\t]; every other byte
    below 0x20 prints as a six-byte [\u00XX] escape; all other bytes
    pass through unchanged. *)

val escape : string -> string
(** {!escape_into} into a fresh string, for renderers that build JSON
    with format strings. *)

val to_string : t -> string
(** Deterministic printer: no whitespace, object keys in insertion
    order, integral numbers printed without a fractional part. *)

val member : string -> t -> t option
(** First binding of a key in an object; [None] for non-objects. *)

val str_member : string -> t -> string option
val int_member : string -> t -> int option
val bool_member : string -> t -> bool option

val set_member : string -> t -> t -> t
(** [set_member k v obj] replaces the binding of [k] (or appends one).
    Non-objects are returned unchanged. *)
