(** Hand-written lexer for RustLite: a flat, structure-of-arrays token
    buffer over the raw source.

    Handles line comments, nested block comments, string/char escapes,
    decimal and hexadecimal integer literals with type suffixes
    ([0u8], [0xC0]), lifetimes (['a]), and attributes ([#[...]],
    skipped as trivia).

    The lexer tracks byte offsets only; line/column positions are
    derived on demand from a per-file line-start table. Identifiers,
    lifetimes and string literal contents are interned into a
    per-domain {!Support.Interner} (reused across files, append-only,
    never shared between domains) whose first symbols are the keyword
    vocabulary in {!Token.keywords} order (then ["_"]). Symbols in
    [tok_syms] are therefore only meaningful relative to the buffer's
    own [interner] field. *)

open Support

type spanned = { tok : Token.t; span : Span.t }

type buf = {
  file : string;
  src : string;
  interner : Interner.t;
  mutable toks : Token.t array;
  mutable tok_starts : int array;  (** byte offset of each token *)
  mutable tok_ends : int array;  (** byte offset one past each token *)
  mutable tok_syms : int array;
      (** interned symbol for word/string tokens, [-1] otherwise *)
  mutable n_toks : int;  (** tokens in the buffer, last one is [EOF] *)
  line_starts : int array;
  mutable line_hint : int;
}

val lex : ?recover:Diag.collector -> file:string -> string -> buf
(** Lex the whole source into a token buffer (always ends with [EOF]).
    [?recover] switches the lexer into recovery mode: lexical errors
    are emitted to the collector and lexing continues with a
    best-effort token (skip the bad byte, close the string at EOF,
    substitute literal [0], ...). Without it, errors raise
    [Support.Diag.Parse_error]. *)

val pos_of_offset : buf -> int -> Span.pos
(** Line/col for a byte offset, from the line-start table. Amortized
    O(1) on (mostly) monotone offset sequences. *)

val span_of_offsets : buf -> int -> int -> Span.t
(** Span of the bytes [[s, e)], with line/col from the line-start
    table; builds no [pos] record. *)

val token_span : buf -> int -> Span.t
(** Span of token [i], derived from its recorded offsets. *)

val line_starts_of : string -> int array
(** Byte offset of every line start in a source string (index 0 is
    always 0). Exposed for differential span tests. *)

val tokenize : ?recover:Diag.collector -> file:string -> string -> spanned list
(** Whole input to a token list ending with [EOF]. Compatibility
    wrapper over {!lex}.
    @raise Support.Diag.Parse_error on lexical errors, unless
    [?recover] is given. *)
