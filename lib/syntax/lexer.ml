(** Hand-written lexer for RustLite, flat-buffer edition.

    One pass over the raw source buffer fills a structure-of-arrays
    token buffer ([buf]): token payloads, start offsets and end
    offsets in parallel growable arrays. Only byte offsets are
    tracked while lexing; line/column positions are derived on demand
    from a per-file line-start table ([pos_of_offset]), so the hot
    loop does no per-character bookkeeping and no per-token [spanned]
    record allocation.

    Identifiers, lifetimes and string literals are interned into a
    per-buffer {!Support.Interner} at lex time. The keyword vocabulary
    is pre-interned in a fixed order, so keyword recognition is a
    bounds check on the interned symbol, and each distinct identifier
    allocates its [IDENT] token once per file no matter how often it
    occurs.

    Handles line comments, nested block comments, string/char escapes,
    integer suffixes ([0u8], [100usize]), lifetimes (['a]) and
    attributes ([#[...]], skipped as trivia since RustLite gives them
    no semantics). *)

open Support

type spanned = { tok : Token.t; span : Span.t }

type buf = {
  file : string;
  src : string;
  interner : Interner.t;
  mutable toks : Token.t array;
  mutable tok_starts : int array;  (** byte offset of each token *)
  mutable tok_ends : int array;  (** byte offset one past each token *)
  mutable tok_syms : int array;  (** interned symbol, or [-1] *)
  mutable n_toks : int;
  line_starts : int array;  (** byte offset of each line start *)
  mutable line_hint : int;  (** last line found, accelerates lookups *)
}

(* ------------------------------------------------------------------ *)
(* Keyword vocabulary                                                  *)
(* ------------------------------------------------------------------ *)

let n_keywords = Array.length Token.keywords
let underscore_sym = n_keywords

(* symbol -> token for the pre-interned vocabulary ([_] rides along) *)
let kw_toks =
  Array.append (Array.map snd Token.keywords) [| Token.UNDERSCORE |]

let new_interner () =
  let it = Interner.create ~capacity:1024 () in
  Array.iter (fun (s, _) -> ignore (Interner.intern it s)) Token.keywords;
  ignore (Interner.intern it "_");
  it

(* Per-domain lexer scratch, reused across files: the interner (with
   the keyword vocabulary pre-interned), the IDENT token memo and the
   escape-decoding buffer. Sharing them amortizes table setup and
   keyword seeding over a whole corpus sweep and dedups identifier
   storage across files, while staying synchronization-free (each
   domain owns its table; the interner is append-only so previously
   returned strings stay valid forever). *)
type scratch = {
  interner : Interner.t;
  mutable ident_toks : Token.t array;
      (** symbol -> memoized [IDENT] token ([EOF] = absent), so each
          distinct identifier is boxed once per domain *)
  buffer : Buffer.t;  (** reused across string/char literals *)
}

let dls_scratch : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        interner = new_interner ();
        ident_toks = Array.make 1024 Token.EOF;
        buffer = Buffer.create 64;
      })

(* ------------------------------------------------------------------ *)
(* Offset -> line/col                                                  *)
(* ------------------------------------------------------------------ *)

let line_starts_of src =
  let n = String.length src in
  let a = ref (Array.make 64 0) in
  let k = ref 1 in
  for i = 0 to n - 1 do
    if String.unsafe_get src i = '\n' then begin
      if !k = Array.length !a then begin
        let a' = Array.make (2 * !k) 0 in
        Array.blit !a 0 a' 0 !k;
        a := a'
      end;
      Array.unsafe_set !a !k (i + 1);
      incr k
    end
  done;
  Array.sub !a 0 !k

(** Index into [line_starts] of the line holding a byte offset. A
    position "at" a newline byte belongs to the line the newline
    terminates, matching the legacy eager line/col tracking. Amortized
    O(1) for the monotone access pattern of lexing and parsing (the
    last line found is cached as a hint); O(log lines) otherwise. *)
let line_index b off =
  let ls = b.line_starts in
  let n = Array.length ls in
  let lo = ref 0 and hi = ref (n - 1) in
  let h = b.line_hint in
  if h >= 0 && h < n && Array.unsafe_get ls h <= off then
    if h + 1 >= n || Array.unsafe_get ls (h + 1) > off then begin
      lo := h;
      hi := h
    end
    else if h + 2 >= n || Array.unsafe_get ls (h + 2) > off then begin
      lo := h + 1;
      hi := h + 1
    end
    else lo := h + 2;
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if Array.unsafe_get ls mid <= off then lo := mid else hi := mid - 1
  done;
  b.line_hint <- !lo;
  !lo

let pos_of_offset b off : Span.pos =
  let l = line_index b off in
  {
    Span.line = l + 1;
    col = off - Array.unsafe_get b.line_starts l + 1;
    offset = off;
  }

let span_of_offsets b s e =
  let ls = b.line_starts in
  let l0 = line_index b s in
  let l1 = line_index b e in
  Span.v ~file:b.file ~lo:s ~lo_line:(l0 + 1)
    ~lo_col:(s - Array.unsafe_get ls l0 + 1)
    ~hi:e ~hi_line:(l1 + 1)
    ~hi_col:(e - Array.unsafe_get ls l1 + 1)

let token_span b i =
  span_of_offsets b (Array.unsafe_get b.tok_starts i)
    (Array.unsafe_get b.tok_ends i)

(* ------------------------------------------------------------------ *)
(* Lexer state                                                         *)
(* ------------------------------------------------------------------ *)

type state = {
  src : string;
  len : int;
  b : buf;
  recover : Diag.collector option;
  sc : scratch;
  mutable pos : int;
}

(* In recovery mode emit the diagnostic and produce a fallback value;
   otherwise raise, preserving the legacy contract. *)
let soft st d (fallback : unit -> 'a) : 'a =
  match st.recover with
  | Some c ->
      Diag.emit c d;
      fallback ()
  | None -> raise (Diag.Parse_error d)

let span_from st start = span_of_offsets st.b start st.pos

let at_end st = st.pos >= st.len
let peek st = if at_end st then '\000' else String.unsafe_get st.src st.pos

let peek2 st =
  if st.pos + 1 >= st.len then '\000' else String.unsafe_get st.src (st.pos + 1)

let advance st = if not (at_end st) then st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'


(* ------------------------------------------------------------------ *)
(* Trivia                                                              *)
(* ------------------------------------------------------------------ *)

let rec skip_block_comment st depth start =
  if at_end st then
    soft st
      (Diag.error ~code:Diag.Lex_unterminated_comment
         ~span:(span_from st start) "unterminated block comment")
      (fun () -> ())
  else if peek st = '*' && peek2 st = '/' then begin
    advance st;
    advance st;
    if depth > 1 then skip_block_comment st (depth - 1) start
  end
  else if peek st = '/' && peek2 st = '*' then begin
    advance st;
    advance st;
    skip_block_comment st (depth + 1) start
  end
  else begin
    advance st;
    skip_block_comment st depth start
  end

(* Attributes #[...] and #![...] are skipped as trivia: the corpus
   programs use them for realism (e.g. #[derive(Debug)]) but RustLite
   assigns them no meaning. *)
let skip_attribute st start =
  advance st;
  (* '#' *)
  if peek st = '!' then advance st;
  if peek st <> '[' then
    soft st
      (Diag.error ~code:Diag.Lex_unterminated_attribute
         ~span:(span_from st start) "expected '[' after '#'")
      (fun () -> ())
  else begin
    advance st;
    let depth = ref 1 in
    while !depth > 0 && not (at_end st) do
      (match peek st with
      | '[' -> incr depth
      | ']' -> decr depth
      | _ -> ());
      advance st
    done;
    if !depth > 0 then
      soft st
        (Diag.error ~code:Diag.Lex_unterminated_attribute
           ~span:(span_from st start) "unterminated attribute")
        (fun () -> ())
  end

(* Iterative with a local cursor: without flambda the per-character
   [peek]/[advance] calls of the naive version dominate lexing time. *)
let skip_trivia st =
  let src = st.src and len = st.len in
  let i = ref st.pos in
  let continue_ = ref true in
  while !continue_ do
    if !i >= len then continue_ := false
    else
      match String.unsafe_get src !i with
      | ' ' | '\t' | '\r' | '\n' -> incr i
      | '/' when !i + 1 < len && String.unsafe_get src (!i + 1) = '/' ->
          i := !i + 2;
          while !i < len && String.unsafe_get src !i <> '\n' do
            incr i
          done
      | '/' when !i + 1 < len && String.unsafe_get src (!i + 1) = '*' ->
          let start = !i in
          st.pos <- !i + 2;
          skip_block_comment st 1 start;
          i := st.pos
      | '#' ->
          let start = !i in
          st.pos <- !i;
          skip_attribute st start;
          i := st.pos
      | _ -> continue_ := false
  done;
  st.pos <- !i

(* ------------------------------------------------------------------ *)
(* Words                                                               *)
(* ------------------------------------------------------------------ *)

let lex_ident_sym st =
  let src = st.src and len = st.len in
  let start = st.pos in
  let i = ref st.pos in
  while
    !i < len
    &&
    let c = String.unsafe_get src !i in
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  do
    incr i
  done;
  st.pos <- !i;
  Interner.intern_sub st.b.interner src start (!i - start)

let ident_tok st sym =
  let sc = st.sc in
  if sym >= Array.length sc.ident_toks then begin
    let cap = max (sym + 1) (2 * Array.length sc.ident_toks) in
    let a = Array.make cap Token.EOF in
    Array.blit sc.ident_toks 0 a 0 (Array.length sc.ident_toks);
    sc.ident_toks <- a
  end;
  match Array.unsafe_get sc.ident_toks sym with
  | Token.EOF ->
      let t = Token.IDENT (Interner.to_string st.b.interner sym) in
      sc.ident_toks.(sym) <- t;
      t
  | t -> t


(* ------------------------------------------------------------------ *)
(* Numbers                                                             *)
(* ------------------------------------------------------------------ *)

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let hex_val c =
  if c <= '9' then Char.code c - Char.code '0'
  else if c >= 'a' then Char.code c - Char.code 'a' + 10
  else Char.code c - Char.code 'A' + 10

(* Underscore-stripped literal text, for the slow path and error
   messages — matches the legacy lexer's rendering byte for byte. *)
let cleaned_digits st begin_pos digits_end =
  let digits = String.sub st.src begin_pos (digits_end - begin_pos) in
  String.concat "" (String.split_on_char '_' digits)

let lex_suffix st = if is_ident_start (peek st) then
    Interner.to_string st.b.interner (lex_ident_sym st)
  else ""

let bad_literal st start ~what digits suffix =
  soft st
    (Diag.error ~code:Diag.Lex_bad_literal ~span:(span_from st start)
       "invalid %s literal %s" what digits)
    (fun () -> Token.INT (0, suffix))

let lex_number st start =
  let begin_pos = st.pos in
  if peek st = '0' && (peek2 st = 'x' || peek2 st = 'X') then begin
    advance st;
    advance st;
    let src = st.src and len = st.len in
    let v = ref 0 and ndigits = ref 0 in
    let i = ref st.pos in
    let continue_ = ref true in
    while !continue_ && !i < len do
      let c = String.unsafe_get src !i in
      if is_hex_digit c then begin
        incr ndigits;
        v := (!v * 16) + hex_val c;
        incr i
      end
      else if c = '_' then incr i
      else continue_ := false
    done;
    st.pos <- !i;
    let digits_end = st.pos in
    let suffix = lex_suffix st in
    if !ndigits >= 1 && !ndigits <= 15 then Token.INT (!v, suffix)
    else begin
      (* gone past 60 bits (or no digits at all): defer to
         [int_of_string] for its exact wraparound/failure behaviour *)
      let digits = cleaned_digits st begin_pos digits_end in
      match int_of_string_opt digits with
      | Some v -> Token.INT (v, suffix)
      | None -> bad_literal st start ~what:"hex" digits suffix
    end
  end
  else begin
    let src = st.src and len = st.len in
    let v = ref 0 and ndigits = ref 0 in
    let i = ref st.pos in
    let continue_ = ref true in
    while !continue_ && !i < len do
      let c = String.unsafe_get src !i in
      if c >= '0' && c <= '9' then begin
        incr ndigits;
        v := (!v * 10) + (Char.code c - 48);
        incr i
      end
      else if c = '_' then incr i
      else continue_ := false
    done;
    st.pos <- !i;
    if peek st = '.' && is_digit (peek2 st) then begin
      advance st;
      let j = ref st.pos in
      while !j < len && is_digit (String.unsafe_get src !j) do
        incr j
      done;
      st.pos <- !j;
      let text = String.sub st.src begin_pos (st.pos - begin_pos) in
      Token.FLOAT (float_of_string text)
    end
    else begin
      let digits_end = st.pos in
      let suffix = lex_suffix st in
      if !ndigits <= 15 then Token.INT (!v, suffix)
      else begin
        let digits = cleaned_digits st begin_pos digits_end in
        match int_of_string_opt digits with
        | Some v -> Token.INT (v, suffix)
        | None -> bad_literal st start ~what:"integer" digits suffix
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Strings and chars                                                   *)
(* ------------------------------------------------------------------ *)

let lex_escape st start =
  advance st;
  (* backslash *)
  let c = peek st in
  advance st;
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c ->
      soft st
        (Diag.error ~code:Diag.Lex_bad_escape ~span:(span_from st start)
           "unknown escape '\\%c'" c)
        (fun () -> c)

let lex_string st start =
  advance st;
  (* opening quote *)
  let content_start = st.pos in
  (* fast path: no escapes before the closing quote — intern straight
     out of the source buffer, no copying *)
  let rec scan i =
    if i >= st.len then -1
    else
      match String.unsafe_get st.src i with
      | '"' -> i
      | '\\' -> -1
      | _ -> scan (i + 1)
  in
  let close = scan content_start in
  if close >= 0 then begin
    st.pos <- close + 1;
    let sym =
      Interner.intern_sub st.b.interner st.src content_start
        (close - content_start)
    in
    Token.STRING (Interner.to_string st.b.interner sym)
  end
  else begin
    let buf = st.sc.buffer in
    Buffer.clear buf;
    let rec go () =
      if at_end st then
        soft st
          (Diag.error ~code:Diag.Lex_unterminated_string
             ~span:(span_from st start) "unterminated string literal")
          (fun () -> ())
      else
        match peek st with
        | '"' -> advance st
        | '\\' ->
            Buffer.add_char buf (lex_escape st start);
            go ()
        | c ->
            advance st;
            Buffer.add_char buf c;
            go ()
    in
    go ();
    let sym = Interner.intern_buf st.b.interner buf in
    Token.STRING (Interner.to_string st.b.interner sym)
  end

(* A single quote starts either a lifetime ('a) or a char literal ('x).
   Distinguish by looking for the closing quote. *)
let lex_quote st start =
  advance st;
  (* ' *)
  if is_ident_start (peek st) && peek2 st <> '\'' then
    Token.LIFETIME (Interner.to_string st.b.interner (lex_ident_sym st))
  else begin
    let c =
      if peek st = '\\' then lex_escape st start
      else begin
        let c = peek st in
        advance st;
        c
      end
    in
    if peek st <> '\'' then
      soft st
        (Diag.error ~code:Diag.Lex_unterminated_char
           ~span:(span_from st start) "unterminated char literal")
        (fun () -> Token.CHAR c)
    else begin
      advance st;
      Token.CHAR c
    end
  end

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let push st tok ~start ~sym =
  let b = st.b in
  let n = b.n_toks in
  if n = Array.length b.toks then begin
    let cap = 2 * n in
    let toks = Array.make cap Token.EOF in
    Array.blit b.toks 0 toks 0 n;
    b.toks <- toks;
    let grow a =
      let a' = Array.make cap 0 in
      Array.blit a 0 a' 0 n;
      a'
    in
    b.tok_starts <- grow b.tok_starts;
    b.tok_ends <- grow b.tok_ends;
    b.tok_syms <- grow b.tok_syms
  end;
  Array.unsafe_set b.toks n tok;
  Array.unsafe_set b.tok_starts n start;
  Array.unsafe_set b.tok_ends n st.pos;
  Array.unsafe_set b.tok_syms n sym;
  b.n_toks <- n + 1

(* Top-level, not per-iteration closures in [run]: the Closure backend
   would otherwise allocate the helper every token. *)
let one st tok ~start =
  advance st;
  push st tok ~start ~sym:(-1)

let two st tok ~start =
  advance st;
  advance st;
  push st tok ~start ~sym:(-1)

let m_bytes =
  Metrics.counter ~help:"Source bytes lexed by the frontend"
    "rustudy_frontend_bytes_total"

let m_tokens =
  Metrics.counter ~help:"Tokens produced by the frontend lexer"
    "rustudy_frontend_tokens_total"

let run st =
  let continue_ = ref true in
  while !continue_ do
    skip_trivia st;
    let start = st.pos in
    if at_end st then begin
      push st Token.EOF ~start ~sym:(-1);
      continue_ := false
    end
    else
      (* constant arms first so they compile to a switch; the guarded
         digit/ident classifications only run for non-punctuation *)
      match peek st with
      | '"' -> push st (lex_string st start) ~start ~sym:(-1)
      | '\'' -> push st (lex_quote st start) ~start ~sym:(-1)
      | '(' -> one st Token.LPAREN ~start
      | ')' -> one st Token.RPAREN ~start
      | '{' -> one st Token.LBRACE ~start
      | '}' -> one st Token.RBRACE ~start
      | '[' -> one st Token.LBRACKET ~start
      | ']' -> one st Token.RBRACKET ~start
      | ',' -> one st Token.COMMA ~start
      | ';' -> one st Token.SEMI ~start
      | '@' -> one st Token.AT ~start
      | '?' -> one st Token.QUESTION ~start
      | '^' -> one st Token.CARET ~start
      | ':' -> if peek2 st = ':' then two st Token.COLONCOLON ~start else one st Token.COLON ~start
      | '-' ->
          if peek2 st = '>' then two st Token.ARROW ~start
          else if peek2 st = '=' then two st Token.MINUSEQ ~start
          else one st Token.MINUS ~start
      | '=' ->
          if peek2 st = '>' then two st Token.FATARROW ~start
          else if peek2 st = '=' then two st Token.EQEQ ~start
          else one st Token.EQ ~start
      | '.' ->
          if peek2 st = '.' then begin
            advance st;
            advance st;
            if peek st = '=' then begin
              advance st;
              push st Token.DOTDOTEQ ~start ~sym:(-1)
            end
            else push st Token.DOTDOT ~start ~sym:(-1)
          end
          else one st Token.DOT ~start
      | '&' -> if peek2 st = '&' then two st Token.AMPAMP ~start else one st Token.AMP ~start
      | '|' -> if peek2 st = '|' then two st Token.PIPEPIPE ~start else one st Token.PIPE ~start
      | '+' -> if peek2 st = '=' then two st Token.PLUSEQ ~start else one st Token.PLUS ~start
      | '*' -> if peek2 st = '=' then two st Token.STAREQ ~start else one st Token.STAR ~start
      | '/' -> if peek2 st = '=' then two st Token.SLASHEQ ~start else one st Token.SLASH ~start
      | '%' ->
          if peek2 st = '=' then two st Token.PERCENTEQ ~start else one st Token.PERCENT ~start
      | '!' -> if peek2 st = '=' then two st Token.NE ~start else one st Token.BANG ~start
      | '<' ->
          if peek2 st = '=' then two st Token.LE ~start
          else if peek2 st = '<' then two st Token.SHL ~start
          else one st Token.LT ~start
      | '>' ->
          (* Never lex '>>': the parser splits closing generic brackets
             itself, and RustLite has no shift-right operator. *)
          if peek2 st = '=' then two st Token.GE ~start else one st Token.GT ~start
      | c when is_digit c -> push st (lex_number st start) ~start ~sym:(-1)
      | c when is_ident_start c ->
          (* pre-interned keyword symbols map straight to keyword
             tokens; everything else memoizes its IDENT box *)
          let sym = lex_ident_sym st in
          let tok =
            if sym <= underscore_sym then Array.unsafe_get kw_toks sym
            else ident_tok st sym
          in
          push st tok ~start ~sym
      | c ->
          advance st;
          soft st
            (Diag.error ~code:Diag.Lex_invalid_char ~span:(span_from st start)
               "unexpected character '%c'" c)
            (fun () -> () (* skip the bad byte, keep lexing *))
  done

let lex ?recover ~file src : buf =
  let len = String.length src in
  let cap = max 16 (len / 3) in
  let sc = Domain.DLS.get dls_scratch in
  let b =
    {
      file;
      src;
      interner = sc.interner;
      toks = Array.make cap Token.EOF;
      tok_starts = Array.make cap 0;
      tok_ends = Array.make cap 0;
      tok_syms = Array.make cap 0;
      n_toks = 0;
      line_starts = line_starts_of src;
      line_hint = 0;
    }
  in
  let st = { src; len; b; recover; sc; pos = 0 } in
  run st;
  Metrics.incr ~by:(float_of_int len) m_bytes;
  Metrics.incr ~by:(float_of_int b.n_toks) m_tokens;
  b

(** Lex an entire source string into a token list ending with [EOF].
    With [?recover], lexical errors go to the collector and lexing
    continues; without it, the first error raises [Diag.Parse_error].
    Compatibility wrapper over {!lex}: materializes the [spanned] list
    the legacy API produced. *)
let tokenize ?recover ~file src =
  let b = lex ?recover ~file src in
  List.init b.n_toks (fun i -> { tok = b.toks.(i); span = token_span b i })
