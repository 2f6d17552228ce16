(** Recursive-descent parser for RustLite.

    Expression parsing uses precedence climbing. Rust's grammar quirks
    that matter for the studied bug patterns are kept faithful:
    block-like expressions need no trailing semicolon as statements,
    struct literals are forbidden in condition/scrutinee position, and
    generic arguments in expressions need the turbofish ([::<T>]). *)

open Support
module T = Token

type state = {
  buf : Lexer.buf;  (** the whole file, lexed up front *)
  mutable idx : int;
  recover : Diag.collector option;
      (** when set, syntax errors synchronize at item/statement
          boundaries and become explicit [E_error]/[I_error] AST nodes
          instead of aborting the parse *)
  mutable errors_left : int;
      (** panic-recovery budget: when it runs out, recovery stops
          resynchronizing and skips to [EOF], bounding the cost of a
          pathologically corrupted file *)
  mutable last_span : Span.t;
      (** the span built last, handed out again for the same extent *)
}

(* Generous: an order of magnitude above the worst diagnostic count
   the seeded 1020-mutant suite produces on any single file, so only
   adversarial inputs ever hit it. *)
let error_budget = 128

let make ?recover (buf : Lexer.buf) =
  { buf; idx = 0; recover; errors_left = error_budget; last_span = Span.dummy }

(* A node often spans exactly what its last-built child does ([x] as a
   path, then as an expression; [u8] as a path, then as a type): those
   share one span value. *)
let span_of st s e =
  let last = st.last_span in
  if Span.start_offset last = s && Span.end_offset last = e
     && not (Span.is_dummy last)
  then last
  else begin
    let sp = Lexer.span_of_offsets st.buf s e in
    st.last_span <- sp;
    sp
  end

(* [idx] is always within [0, n_toks); [advance] saturates at the
   final [EOF] token. *)
let peek st = Array.unsafe_get st.buf.Lexer.toks st.idx

let peek_span st = Lexer.token_span st.buf st.idx

let peek_at st n =
  let i = min (st.idx + n) (st.buf.Lexer.n_toks - 1) in
  Array.unsafe_get st.buf.Lexer.toks i

let advance st =
  if st.idx < st.buf.Lexer.n_toks - 1 then st.idx <- st.idx + 1

let prev_span st =
  let i = max 0 (st.idx - 1) in
  span_of st
    (Array.unsafe_get st.buf.Lexer.tok_starts i)
    (Array.unsafe_get st.buf.Lexer.tok_ends i)

let err st fmt =
  Diag.fail ~span:(peek_span st) fmt

let expect st tok =
  if T.equal (peek st) tok then advance st
  else
    err st "expected '%s' but found '%s'" (T.to_string tok)
      (T.to_string (peek st))

let accept st tok =
  if T.equal (peek st) tok then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  match peek st with
  | T.IDENT s ->
      advance st;
      s
  | t -> err st "expected identifier, found '%s'" (T.to_string t)

(* Node spans are derived from token marks (indices into the token
   buffer) only when a node is actually built: the span of the mark's
   token unioned with the span of the last consumed token — the same
   extent the legacy eager computation produced, without allocating a
   span per speculative node start. The union is computed directly on
   byte offsets (token spans are never dummy). *)
let span_from st (mark : int) =
  let b = st.buf in
  let p = if st.idx > 0 then st.idx - 1 else 0 in
  let s0 = Array.unsafe_get b.Lexer.tok_starts mark in
  let e0 = Array.unsafe_get b.Lexer.tok_ends mark in
  let s1 = Array.unsafe_get b.Lexer.tok_starts p in
  let e1 = Array.unsafe_get b.Lexer.tok_ends p in
  let s = if s1 < s0 then s1 else s0 in
  let e = if e1 > e0 then e1 else e0 in
  span_of st s e

(* ------------------------------------------------------------------ *)
(* Panic-mode synchronization (recovery only)                          *)
(* ------------------------------------------------------------------ *)

let is_item_start = function
  | T.KW_FN | T.KW_STRUCT | T.KW_ENUM | T.KW_IMPL | T.KW_TRAIT
  | T.KW_STATIC | T.KW_CONST | T.KW_USE | T.KW_MOD | T.KW_PUB
  | T.KW_UNSAFE ->
      true
  | _ -> false

(** Skip forward to the start of the next plausible item: an
    item-introducing keyword at brace depth zero, or [EOF]. Never skips
    past [EOF]; unmatched closing braces are swallowed. *)
let sync_item st =
  let depth = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | T.EOF -> continue_ := false
    | t when !depth = 0 && is_item_start t -> continue_ := false
    | T.LBRACE ->
        incr depth;
        advance st
    | T.RBRACE ->
        if !depth > 0 then decr depth;
        advance st
    | _ -> advance st
  done

(** Skip to the end of the current statement: just past the next [;] at
    brace depth zero, or stopped at the enclosing [}] / [EOF]. *)
let sync_stmt st =
  let depth = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | T.EOF -> continue_ := false
    | T.SEMI when !depth = 0 ->
        advance st;
        continue_ := false
    | T.RBRACE when !depth = 0 -> continue_ := false
    | T.LBRACE ->
        incr depth;
        advance st
    | T.RBRACE ->
        decr depth;
        advance st
    | _ -> advance st
  done

(** Bounded panic recovery: once the error budget is exhausted, stop
    resynchronizing and jump the cursor to [EOF], so a pathologically
    corrupted file costs O(budget), not O(file size x error count).
    The give-up diagnostic is emitted exactly once, when the budget
    first reaches zero. *)
let give_up st c =
  if st.errors_left = 0 then
    Diag.emit c
      (Diag.error ~code:Diag.Parse_error_code ~span:(peek_span st)
         "too many syntax errors; giving up on the rest of the file");
  st.idx <- st.buf.Lexer.n_toks - 1

(* ------------------------------------------------------------------ *)
(* Paths and generics                                                  *)
(* ------------------------------------------------------------------ *)

let path_segment st =
  match peek st with
  | T.IDENT s ->
      advance st;
      s
  | T.KW_SELF ->
      advance st;
      "self"
  | T.KW_SELF_TYPE ->
      advance st;
      "Self"
  | T.KW_CRATE ->
      advance st;
      "crate"
  | t -> err st "expected path segment, found '%s'" (T.to_string t)

(** Parse [a::b::c] with no generic arguments. *)
let parse_simple_path st : Ast.path =
  let start = st.idx in
  let rec go acc =
    let seg = path_segment st in
    if T.equal (peek st) T.COLONCOLON
       && (match peek_at st 1 with
          | T.IDENT _ | T.KW_SELF | T.KW_SELF_TYPE | T.KW_CRATE -> true
          | _ -> false)
    then begin
      advance st;
      go (seg :: acc)
    end
    else List.rev (seg :: acc)
  in
  let segments = go [] in
  { Ast.segments; pspan = span_from st start }

(* Generic parameter list on items: <T, U: Bound, 'a>. Bounds are
   parsed and discarded: RustLite does not check trait bounds. *)
let parse_generic_params st : string list =
  if not (accept st T.LT) then []
  else begin
    let params = ref [] in
    let rec skip_bound () =
      (* consume tokens of one bound: path, possibly with nested <> *)
      let depth = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        (match peek st with
        | T.LT ->
            incr depth;
            advance st
        | T.GT when !depth > 0 ->
            decr depth;
            advance st
        | T.GT | T.COMMA when !depth = 0 -> continue_ := false
        | T.EOF -> continue_ := false
        | _ -> advance st)
      done
    and parse_one () =
      match peek st with
      | T.LIFETIME _ ->
          advance st;
          if accept st T.COLON then skip_bound ()
      | T.IDENT name ->
          advance st;
          params := name :: !params;
          if accept st T.COLON then skip_bound ()
      | t -> err st "expected generic parameter, found '%s'" (T.to_string t)
    in
    parse_one ();
    while accept st T.COMMA do
      if not (T.equal (peek st) T.GT) then parse_one ()
    done;
    expect st T.GT;
    List.rev !params
  end

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec parse_ty st : Ast.ty =
  let start = st.idx in
  let mk t = { Ast.t; tspan = span_from st start } in
  match peek st with
  | T.AMP ->
      advance st;
      (match peek st with T.LIFETIME _ -> advance st | _ -> ());
      let m = if accept st T.KW_MUT then Ast.Mut else Ast.Imm in
      let inner = parse_ty st in
      mk (Ast.Ty_ref (m, inner))
  | T.AMPAMP ->
      (* && T is & (& T) *)
      advance st;
      let m = if accept st T.KW_MUT then Ast.Mut else Ast.Imm in
      let inner = parse_ty st in
      mk (Ast.Ty_ref (Ast.Imm, { Ast.t = Ast.Ty_ref (m, inner); tspan = inner.Ast.tspan }))
  | T.STAR ->
      advance st;
      let m =
        match peek st with
        | T.KW_CONST ->
            advance st;
            Ast.Imm
        | T.KW_MUT ->
            advance st;
            Ast.Mut
        | t -> err st "expected 'const' or 'mut' after '*', found '%s'" (T.to_string t)
      in
      let inner = parse_ty st in
      mk (Ast.Ty_ptr (m, inner))
  | T.LPAREN ->
      advance st;
      if accept st T.RPAREN then mk (Ast.Ty_tuple [])
      else begin
        let first = parse_ty st in
        if accept st T.RPAREN then first
        else begin
          let tys = ref [ first ] in
          while accept st T.COMMA do
            if not (T.equal (peek st) T.RPAREN) then tys := parse_ty st :: !tys
          done;
          expect st T.RPAREN;
          mk (Ast.Ty_tuple (List.rev !tys))
        end
      end
  | T.UNDERSCORE ->
      advance st;
      mk Ast.Ty_infer
  | T.KW_FN ->
      advance st;
      expect st T.LPAREN;
      let args = ref [] in
      if not (T.equal (peek st) T.RPAREN) then begin
        args := [ parse_ty st ];
        while accept st T.COMMA do
          if not (T.equal (peek st) T.RPAREN) then args := parse_ty st :: !args
        done
      end;
      expect st T.RPAREN;
      let ret =
        if accept st T.ARROW then parse_ty st else Ast.unit_ty
      in
      mk (Ast.Ty_fn (List.rev !args, ret))
  | T.KW_DYN ->
      advance st;
      let p = parse_simple_path st in
      let args = parse_generic_args st in
      mk (Ast.Ty_path (p, args))
  | T.KW_SELF_TYPE ->
      advance st;
      mk (Ast.Ty_path ({ Ast.segments = [ "Self" ]; pspan = span_from st start }, []))
  | T.IDENT _ | T.KW_CRATE ->
      let p = parse_simple_path st in
      let args = parse_generic_args st in
      mk (Ast.Ty_path (p, args))
  | t -> err st "expected type, found '%s'" (T.to_string t)

and parse_generic_args st : Ast.ty list =
  if not (T.equal (peek st) T.LT) then []
  else begin
    advance st;
    let args = ref [] in
    let parse_one () =
      match peek st with
      | T.LIFETIME _ -> advance st
      | _ -> args := parse_ty st :: !args
    in
    if not (T.equal (peek st) T.GT) then begin
      parse_one ();
      while accept st T.COMMA do
        if not (T.equal (peek st) T.GT) then parse_one ()
      done
    end;
    expect st T.GT;
    List.rev !args
  end

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

let rec parse_pat st : Ast.pat =
  let start = st.idx in
  let mk p = { Ast.p; pspan = span_from st start } in
  match peek st with
  | T.UNDERSCORE ->
      advance st;
      mk Ast.P_wild
  | T.INT (v, suf) ->
      advance st;
      mk (Ast.P_lit (Ast.Lit_int (v, suf)))
  | T.KW_TRUE ->
      advance st;
      mk (Ast.P_lit (Ast.Lit_bool true))
  | T.KW_FALSE ->
      advance st;
      mk (Ast.P_lit (Ast.Lit_bool false))
  | T.STRING s ->
      advance st;
      mk (Ast.P_lit (Ast.Lit_str s))
  | T.AMP ->
      advance st;
      let m = if accept st T.KW_MUT then Ast.Mut else Ast.Imm in
      mk (Ast.P_ref (m, parse_pat st))
  | T.KW_REF ->
      advance st;
      let m = if accept st T.KW_MUT then Ast.Mut else Ast.Imm in
      let name = expect_ident st in
      mk (Ast.P_ref (m, { Ast.p = Ast.P_ident (Ast.Imm, name, None); pspan = span_from st start }))
  | T.KW_MUT ->
      advance st;
      let name = expect_ident st in
      mk (Ast.P_ident (Ast.Mut, name, None))
  | T.LPAREN ->
      advance st;
      if accept st T.RPAREN then mk (Ast.P_tuple [])
      else begin
        let first = parse_pat st in
        if accept st T.RPAREN then first
        else begin
          let pats = ref [ first ] in
          while accept st T.COMMA do
            if not (T.equal (peek st) T.RPAREN) then pats := parse_pat st :: !pats
          done;
          expect st T.RPAREN;
          mk (Ast.P_tuple (List.rev !pats))
        end
      end
  | T.IDENT _ | T.KW_SELF_TYPE | T.KW_CRATE -> parse_path_pat st start mk
  | t -> err st "expected pattern, found '%s'" (T.to_string t)

and parse_path_pat st start mk =
  (* Single lowercase segment with no () or {} or :: is a binding. *)
  let p = parse_simple_path st in
  match peek st with
  | T.LPAREN ->
      advance st;
      let args = ref [] in
      if not (T.equal (peek st) T.RPAREN) then begin
        args := [ parse_pat st ];
        while accept st T.COMMA do
          if not (T.equal (peek st) T.RPAREN) then args := parse_pat st :: !args
        done
      end;
      expect st T.RPAREN;
      mk (Ast.P_ctor (p, List.rev !args))
  | T.LBRACE ->
      advance st;
      let fields = ref [] in
      let parse_field () =
        if accept st T.DOTDOT then ()
        else begin
          let name = expect_ident st in
          let pat =
            if accept st T.COLON then parse_pat st
            else { Ast.p = Ast.P_ident (Ast.Imm, name, None); pspan = span_from st start }
          in
          fields := (name, pat) :: !fields
        end
      in
      if not (T.equal (peek st) T.RBRACE) then begin
        parse_field ();
        while accept st T.COMMA do
          if not (T.equal (peek st) T.RBRACE) then parse_field ()
        done
      end;
      expect st T.RBRACE;
      mk (Ast.P_struct (p, List.rev !fields))
  | T.AT ->
      advance st;
      let sub = parse_pat st in
      (match p.Ast.segments with
      | [ name ] -> mk (Ast.P_ident (Ast.Imm, name, Some sub))
      | _ -> err st "'@' pattern requires a simple binding name")
  | _ -> (
      match p.Ast.segments with
      | [ name ]
        when String.length name > 0
             && (Char.lowercase_ascii name.[0] = name.[0]) ->
          mk (Ast.P_ident (Ast.Imm, name, None))
      | _ -> mk (Ast.P_ctor (p, [])))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* [no_struct]: struct literals are not allowed directly (condition or
   scrutinee position), mirroring Rust. *)

let binop_of_token = function
  | T.PLUS -> Some (Ast.Add, 10)
  | T.MINUS -> Some (Ast.Sub, 10)
  | T.STAR -> Some (Ast.Mul, 11)
  | T.SLASH -> Some (Ast.Div, 11)
  | T.PERCENT -> Some (Ast.Rem, 11)
  | T.SHL -> Some (Ast.Shl, 9)
  | T.AMP -> Some (Ast.BitAnd, 8)
  | T.CARET -> Some (Ast.BitXor, 7)
  | T.PIPE -> Some (Ast.BitOr, 6)
  | T.EQEQ -> Some (Ast.Eq, 5)
  | T.NE -> Some (Ast.Ne, 5)
  | T.LT -> Some (Ast.Lt, 5)
  | T.GT -> Some (Ast.Gt, 5)
  | T.LE -> Some (Ast.Le, 5)
  | T.GE -> Some (Ast.Ge, 5)
  | T.AMPAMP -> Some (Ast.And, 4)
  | T.PIPEPIPE -> Some (Ast.Or, 3)
  | _ -> None

let assign_op_of_token = function
  | T.PLUSEQ -> Some Ast.Add
  | T.MINUSEQ -> Some Ast.Sub
  | T.STAREQ -> Some Ast.Mul
  | T.SLASHEQ -> Some Ast.Div
  | T.PERCENTEQ -> Some Ast.Rem
  | _ -> None

let is_block_expr (e : Ast.expr) =
  match e.Ast.e with
  | Ast.E_if _ | Ast.E_if_let _ | Ast.E_match _ | Ast.E_while _
  | Ast.E_while_let _ | Ast.E_loop _ | Ast.E_for _ | Ast.E_block _
  | Ast.E_unsafe _ ->
      true
  | _ -> false

let rec parse_expr ?(no_struct = false) st : Ast.expr =
  parse_assign ~no_struct st

and parse_assign ~no_struct st =
  let lhs = parse_range ~no_struct st in
  match peek st with
  | T.EQ ->
      advance st;
      let rhs = parse_assign ~no_struct st in
      {
        Ast.e = Ast.E_assign (lhs, rhs);
        espan = Span.union lhs.Ast.espan rhs.Ast.espan;
      }
  | t -> (
      match assign_op_of_token t with
      | Some op ->
          advance st;
          let rhs = parse_assign ~no_struct st in
          {
            Ast.e = Ast.E_assign_op (op, lhs, rhs);
            espan = Span.union lhs.Ast.espan rhs.Ast.espan;
          }
      | None -> lhs)

and parse_range ~no_struct st =
  let start = st.idx in
  match peek st with
  | T.DOTDOT | T.DOTDOTEQ ->
      let inclusive = T.equal (peek st) T.DOTDOTEQ in
      advance st;
      let hi =
        match peek st with
        | T.LBRACE | T.RPAREN | T.RBRACKET | T.COMMA | T.SEMI -> None
        | _ -> Some (parse_binary ~no_struct st 0)
      in
      { Ast.e = Ast.E_range (None, hi, inclusive); espan = span_from st start }
  | _ ->
      let lo = parse_binary ~no_struct st 0 in
      (match peek st with
      | T.DOTDOT | T.DOTDOTEQ ->
          let inclusive = T.equal (peek st) T.DOTDOTEQ in
          advance st;
          let hi =
            match peek st with
            | T.LBRACE | T.RPAREN | T.RBRACKET | T.COMMA | T.SEMI -> None
            | _ -> Some (parse_binary ~no_struct st 0)
          in
          {
            Ast.e = Ast.E_range (Some lo, hi, inclusive);
            espan = span_from st start;
          }
      | _ -> lo)

and parse_binary ~no_struct st min_prec =
  let lhs = ref (parse_cast ~no_struct st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (peek st) with
    | Some (op, prec) when prec >= min_prec ->
        advance st;
        let rhs = parse_binary ~no_struct st (prec + 1) in
        lhs :=
          {
            Ast.e = Ast.E_binary (op, !lhs, rhs);
            espan = Span.union !lhs.Ast.espan rhs.Ast.espan;
          }
    | _ -> continue_ := false
  done;
  !lhs

and parse_cast ~no_struct st =
  let e = ref (parse_unary ~no_struct st) in
  while accept st T.KW_AS do
    let ty = parse_ty st in
    e :=
      {
        Ast.e = Ast.E_cast (!e, ty);
        espan = Span.union !e.Ast.espan ty.Ast.tspan;
      }
  done;
  !e

and parse_unary ~no_struct st =
  let start = st.idx in
  let mk e = { Ast.e; espan = span_from st start } in
  match peek st with
  | T.MINUS ->
      advance st;
      mk (Ast.E_unary (Ast.Neg, parse_unary ~no_struct st))
  | T.BANG ->
      advance st;
      mk (Ast.E_unary (Ast.Not, parse_unary ~no_struct st))
  | T.STAR ->
      advance st;
      mk (Ast.E_unary (Ast.Deref, parse_unary ~no_struct st))
  | T.AMP ->
      advance st;
      let m = if accept st T.KW_MUT then Ast.Mut else Ast.Imm in
      mk (Ast.E_ref (m, parse_unary ~no_struct st))
  | T.AMPAMP ->
      advance st;
      let m = if accept st T.KW_MUT then Ast.Mut else Ast.Imm in
      let inner = parse_unary ~no_struct st in
      let inner_ref =
        { Ast.e = Ast.E_ref (m, inner); espan = inner.Ast.espan }
      in
      mk (Ast.E_ref (Ast.Imm, inner_ref))
  | _ -> parse_postfix ~no_struct st

and parse_postfix ~no_struct st =
  let e = ref (parse_primary ~no_struct st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | T.DOT -> (
        advance st;
        match peek st with
        | T.INT (i, _) ->
            advance st;
            e :=
              {
                Ast.e = Ast.E_tuple_field (!e, i);
                espan = Span.union !e.Ast.espan (prev_span st);
              }
        | T.IDENT name ->
            advance st;
            (* method call needs ( possibly after turbofish *)
            let targs =
              if T.equal (peek st) T.COLONCOLON && T.equal (peek_at st 1) T.LT
              then begin
                advance st;
                parse_generic_args st
              end
              else []
            in
            if T.equal (peek st) T.LPAREN then begin
              advance st;
              let args = parse_call_args st in
              e :=
                {
                  Ast.e = Ast.E_method (!e, name, targs, args);
                  espan = Span.union !e.Ast.espan (prev_span st);
                }
            end
            else
              e :=
                {
                  Ast.e = Ast.E_field (!e, name);
                  espan = Span.union !e.Ast.espan (prev_span st);
                }
        | T.KW_AS ->
            (* `.as` does not occur; treat as error *)
            err st "unexpected 'as' after '.'"
        | t -> err st "expected field or method name, found '%s'" (T.to_string t))
    | T.LPAREN ->
        advance st;
        let args = parse_call_args st in
        e :=
          {
            Ast.e = Ast.E_call (!e, args);
            espan = Span.union !e.Ast.espan (prev_span st);
          }
    | T.LBRACKET ->
        advance st;
        let idx = parse_expr st in
        expect st T.RBRACKET;
        e :=
          {
            Ast.e = Ast.E_index (!e, idx);
            espan = Span.union !e.Ast.espan (prev_span st);
          }
    | T.QUESTION ->
        (* `e?` — treated as a method-like propagation marker *)
        advance st;
        e :=
          {
            Ast.e = Ast.E_method (!e, "unwrap_or_propagate", [], []);
            espan = Span.union !e.Ast.espan (prev_span st);
          }
    | _ -> continue_ := false
  done;
  !e

and parse_call_args st =
  let args = ref [] in
  if not (T.equal (peek st) T.RPAREN) then begin
    args := [ parse_expr st ];
    while accept st T.COMMA do
      if not (T.equal (peek st) T.RPAREN) then args := parse_expr st :: !args
    done
  end;
  expect st T.RPAREN;
  List.rev !args

and parse_primary ~no_struct st : Ast.expr =
  let start = st.idx in
  let mk e = { Ast.e; espan = span_from st start } in
  match peek st with
  | T.INT (v, suf) ->
      advance st;
      mk (Ast.E_lit (Ast.Lit_int (v, suf)))
  | T.FLOAT f ->
      advance st;
      mk (Ast.E_lit (Ast.Lit_float f))
  | T.STRING s ->
      advance st;
      mk (Ast.E_lit (Ast.Lit_str s))
  | T.CHAR c ->
      advance st;
      mk (Ast.E_lit (Ast.Lit_char c))
  | T.KW_TRUE ->
      advance st;
      mk (Ast.E_lit (Ast.Lit_bool true))
  | T.KW_FALSE ->
      advance st;
      mk (Ast.E_lit (Ast.Lit_bool false))
  | T.LPAREN ->
      advance st;
      if accept st T.RPAREN then mk (Ast.E_lit Ast.Lit_unit)
      else begin
        let first = parse_expr st in
        if accept st T.COMMA then begin
          let es = ref [ first ] in
          if not (T.equal (peek st) T.RPAREN) then begin
            es := parse_expr st :: !es;
            while accept st T.COMMA do
              if not (T.equal (peek st) T.RPAREN) then
                es := parse_expr st :: !es
            done
          end;
          expect st T.RPAREN;
          mk (Ast.E_tuple (List.rev !es))
        end
        else begin
          expect st T.RPAREN;
          first
        end
      end
  | T.KW_IF -> parse_if st
  | T.KW_MATCH -> parse_match st
  | T.KW_WHILE -> parse_while st
  | T.KW_LOOP ->
      advance st;
      mk (Ast.E_loop (parse_block st))
  | T.KW_FOR ->
      advance st;
      let pat = parse_pat st in
      expect st T.KW_IN;
      let iter = parse_expr ~no_struct:true st in
      let body = parse_block st in
      mk (Ast.E_for (pat, iter, body))
  | T.LIFETIME _ ->
      (* loop label: 'a: loop {...} *)
      advance st;
      expect st T.COLON;
      parse_primary ~no_struct st
  | T.LBRACE -> mk (Ast.E_block (parse_block st))
  | T.KW_UNSAFE ->
      advance st;
      mk (Ast.E_unsafe (parse_block st))
  | T.KW_RETURN ->
      advance st;
      let arg =
        match peek st with
        | T.SEMI | T.RBRACE | T.RPAREN | T.COMMA -> None
        | _ -> Some (parse_expr st)
      in
      mk (Ast.E_return arg)
  | T.KW_BREAK ->
      advance st;
      (match peek st with T.LIFETIME _ -> advance st | _ -> ());
      mk Ast.E_break
  | T.KW_CONTINUE ->
      advance st;
      (match peek st with T.LIFETIME _ -> advance st | _ -> ());
      mk Ast.E_continue
  | T.KW_MOVE ->
      advance st;
      parse_closure ~moved:true st start
  | T.PIPE | T.PIPEPIPE -> parse_closure ~moved:false st start
  | T.IDENT _ | T.KW_SELF | T.KW_SELF_TYPE | T.KW_CRATE ->
      parse_path_expr ~no_struct st start
  | t -> err st "expected expression, found '%s'" (T.to_string t)

and parse_closure ~moved st start =
  let params = ref [] in
  if accept st T.PIPEPIPE then ()
  else begin
    expect st T.PIPE;
    if not (T.equal (peek st) T.PIPE) then begin
      let parse_param () =
        let pat = parse_pat st in
        let ty = if accept st T.COLON then Some (parse_ty st) else None in
        params := (pat, ty) :: !params
      in
      parse_param ();
      while accept st T.COMMA do
        if not (T.equal (peek st) T.PIPE) then parse_param ()
      done
    end;
    expect st T.PIPE
  end;
  let body =
    if accept st T.ARROW then begin
      let _ret = parse_ty st in
      { Ast.e = Ast.E_block (parse_block st); espan = prev_span st }
    end
    else parse_expr st
  in
  {
    Ast.e =
      Ast.E_closure
        { Ast.cl_move = moved; cl_params = List.rev !params; cl_body = body };
    espan = span_from st start;
  }

and parse_if st =
  let start = st.idx in
  expect st T.KW_IF;
  if accept st T.KW_LET then begin
    let pat = parse_pat st in
    expect st T.EQ;
    let scrut = parse_expr ~no_struct:true st in
    let then_ = parse_block st in
    let else_ = parse_else st in
    {
      Ast.e = Ast.E_if_let (pat, scrut, then_, else_);
      espan = span_from st start;
    }
  end
  else begin
    let cond = parse_expr ~no_struct:true st in
    let then_ = parse_block st in
    let else_ = parse_else st in
    {
      Ast.e = Ast.E_if (cond, then_, else_);
      espan = span_from st start;
    }
  end

and parse_else st =
  if accept st T.KW_ELSE then
    if T.equal (peek st) T.KW_IF then Some (parse_if st)
    else
      let b = parse_block st in
      Some { Ast.e = Ast.E_block b; espan = b.Ast.bspan }
  else None

and parse_while st =
  let start = st.idx in
  expect st T.KW_WHILE;
  if accept st T.KW_LET then begin
    let pat = parse_pat st in
    expect st T.EQ;
    let scrut = parse_expr ~no_struct:true st in
    let body = parse_block st in
    {
      Ast.e = Ast.E_while_let (pat, scrut, body);
      espan = span_from st start;
    }
  end
  else begin
    let cond = parse_expr ~no_struct:true st in
    let body = parse_block st in
    {
      Ast.e = Ast.E_while (cond, body);
      espan = span_from st start;
    }
  end

and parse_match st =
  let start = st.idx in
  expect st T.KW_MATCH;
  let scrut = parse_expr ~no_struct:true st in
  expect st T.LBRACE;
  let arms = ref [] in
  while not (T.equal (peek st) T.RBRACE) do
    let arm_pat = parse_pat st in
    let arm_pat =
      (* or-patterns p1 | p2: keep the first alternative, which is
         enough for lowering since RustLite match lowering is
         pattern-shape driven. Alternatives must bind the same names. *)
      if T.equal (peek st) T.PIPE then begin
        while accept st T.PIPE do
          ignore (parse_pat st)
        done;
        arm_pat
      end
      else arm_pat
    in
    let arm_guard =
      if accept st T.KW_IF then Some (parse_expr ~no_struct:true st) else None
    in
    expect st T.FATARROW;
    let arm_body = parse_expr st in
    ignore (accept st T.COMMA);
    arms := { Ast.arm_pat; arm_guard; arm_body } :: !arms
  done;
  expect st T.RBRACE;
  {
    Ast.e = Ast.E_match (scrut, List.rev !arms);
    espan = span_from st start;
  }

and parse_path_expr ~no_struct st start =
  let mk e = { Ast.e; espan = span_from st start } in
  (* macro? ident ! ( ... ) or ident ! [ ... ] *)
  match (peek st, peek_at st 1) with
  | T.IDENT name, T.BANG ->
      advance st;
      advance st;
      let close, open_ =
        match peek st with
        | T.LPAREN -> (T.RPAREN, T.LPAREN)
        | T.LBRACKET -> (T.RBRACKET, T.LBRACKET)
        | t ->
            err st "expected '(' or '[' after macro '%s!', found '%s'" name
              (T.to_string t)
      in
      expect st open_;
      let args = ref [] in
      if not (T.equal (peek st) close) then begin
        args := [ parse_expr st ];
        (* vec![expr; n] repetition *)
        if accept st T.SEMI then args := parse_expr st :: !args
        else
          while accept st T.COMMA do
            if not (T.equal (peek st) close) then args := parse_expr st :: !args
          done
      end;
      expect st close;
      let args = List.rev !args in
      if name = "vec" then mk (Ast.E_vec args)
      else mk (Ast.E_macro (name, args))
  | _ -> parse_plain_path_expr ~no_struct st start

and parse_plain_path_expr ~no_struct st start =
  let mk e = { Ast.e; espan = span_from st start } in
  let p = parse_simple_path st in
  (* turbofish on path: Vec::<u8>::new — ::< after path *)
  let targs =
    if T.equal (peek st) T.COLONCOLON && T.equal (peek_at st 1) T.LT then begin
      advance st;
      let args = parse_generic_args st in
      (* possibly more path segments after turbofish *)
      args
    end
    else []
  in
  (* struct literal *)
  if (not no_struct) && T.equal (peek st) T.LBRACE && looks_like_struct_lit st
  then begin
    advance st;
    let fields = ref [] in
    let base = ref None in
    let rec parse_fields () =
      if T.equal (peek st) T.RBRACE then ()
      else if accept st T.DOTDOT then base := Some (parse_expr st)
      else begin
        let name = expect_ident st in
        let value =
          if accept st T.COLON then parse_expr st
          else
            {
              Ast.e = Ast.E_path ({ Ast.segments = [ name ]; pspan = prev_span st }, []);
              espan = prev_span st;
            }
        in
        fields := (name, value) :: !fields;
        if accept st T.COMMA then parse_fields ()
      end
    in
    parse_fields ();
    expect st T.RBRACE;
    mk (Ast.E_struct_lit (p, List.rev !fields, !base))
  end
  else mk (Ast.E_path (p, targs))

(* Heuristic: after `Path {`, it is a struct literal if the brace block
   starts with `ident:`, `ident,`, `ident }`, `..` or is empty. This
   resolves `match x { ... }` vs `Foo { ... }` at arm/stmt boundaries. *)
and looks_like_struct_lit st =
  match peek_at st 1 with
  | T.RBRACE | T.DOTDOT -> true
  | T.IDENT _ -> (
      match peek_at st 2 with
      | T.COLON | T.COMMA | T.RBRACE -> true
      | _ -> false)
  | _ -> false

and parse_block st : Ast.block =
  let start = st.idx in
  expect st T.LBRACE;
  let stmts = ref [] in
  let tail = ref None in
  let rec go () =
    match peek st with
    | T.RBRACE -> ()
    | T.EOF when st.recover <> None -> ()  (* truncated input *)
    | T.SEMI ->
        advance st;
        go ()
    | T.KW_LET ->
        let lstart = st.idx in
        advance st;
        let let_pat = parse_pat st in
        let let_ty = if accept st T.COLON then Some (parse_ty st) else None in
        let let_init = if accept st T.EQ then Some (parse_expr st) else None in
        expect st T.SEMI;
        stmts :=
          Ast.S_let
            { Ast.let_pat; let_ty; let_init; let_span = span_from st lstart }
          :: !stmts;
        go ()
    | T.KW_FN | T.KW_STRUCT | T.KW_ENUM | T.KW_IMPL | T.KW_TRAIT | T.KW_USE
    | T.KW_MOD | T.KW_STATIC ->
        stmts := Ast.S_item (parse_item st) :: !stmts;
        go ()
    | T.KW_UNSAFE
      when T.equal (peek_at st 1) T.KW_FN
           || T.equal (peek_at st 1) T.KW_IMPL
           || T.equal (peek_at st 1) T.KW_TRAIT ->
        stmts := Ast.S_item (parse_item st) :: !stmts;
        go ()
    | T.KW_PUB ->
        stmts := Ast.S_item (parse_item st) :: !stmts;
        go ()
    | T.KW_IF | T.KW_MATCH | T.KW_WHILE | T.KW_LOOP | T.KW_FOR | T.KW_UNSAFE
    | T.LBRACE ->
        (* Rust's statement rule: a block-like expression in statement
           position ends at its closing brace and never continues into
           a binary/postfix expression. If the closing brace is the last
           thing in the enclosing block, it is the tail expression. *)
        let e = parse_primary ~no_struct:false st in
        if T.equal (peek st) T.RBRACE then tail := Some e
        else begin
          ignore (accept st T.SEMI);
          stmts := Ast.S_expr e :: !stmts;
          go ()
        end
    | _ ->
        let e = try_parse_expr_stmt st in
        if T.equal (peek st) T.RBRACE then tail := Some e
        else begin
          (if is_block_expr e then ignore (accept st T.SEMI)
           else expect st T.SEMI);
          stmts := Ast.S_expr e :: !stmts;
          go ()
        end
  in
  (match st.recover with
  | None -> go ()
  | Some c ->
      (* Statement-level panic mode: on a syntax error inside this
         block, record the diagnostic, skip to the next statement
         boundary, stand in an [E_error] statement for the skipped
         region and resume. [sync_stmt] always consumes at least one
         token unless already at ['}']/[EOF], so this terminates. *)
      let rec go_recover () =
        match go () with
        | () -> ()
        | exception Diag.Parse_error d ->
            Diag.emit c d;
            let err_mark = st.idx in
            st.errors_left <- st.errors_left - 1;
            if st.errors_left <= 0 then give_up st c else sync_stmt st;
            stmts :=
              Ast.S_expr
                { Ast.e = Ast.E_error; espan = span_from st err_mark }
              :: !stmts;
            if
              not (T.equal (peek st) T.RBRACE || T.equal (peek st) T.EOF)
            then go_recover ()
      in
      go_recover ());
  (if T.equal (peek st) T.RBRACE then advance st
   else
     match st.recover with
     | Some c when T.equal (peek st) T.EOF ->
         Diag.emit c
           (Diag.error ~code:Diag.Parse_error_code ~span:(peek_span st)
              "unclosed block: expected '}' before end of file")
     | _ -> expect st T.RBRACE);
  { Ast.stmts = List.rev !stmts; tail = !tail; bspan = span_from st start }

and try_parse_expr_stmt st = parse_expr st

(* ------------------------------------------------------------------ *)
(* Items                                                               *)
(* ------------------------------------------------------------------ *)

and parse_fn_params st =
  expect st T.LPAREN;
  let params = ref [] in
  let parse_param () =
    match peek st with
    | T.KW_SELF ->
        advance st;
        params := Ast.Param_self None :: !params
    | T.AMP -> (
        advance st;
        (match peek st with T.LIFETIME _ -> advance st | _ -> ());
        let m = if accept st T.KW_MUT then Ast.Mut else Ast.Imm in
        match peek st with
        | T.KW_SELF ->
            advance st;
            params := Ast.Param_self (Some m) :: !params
        | t -> err st "expected 'self' in receiver, found '%s'" (T.to_string t))
    | T.KW_MUT ->
        advance st;
        let name = expect_ident st in
        expect st T.COLON;
        let ty = parse_ty st in
        params := Ast.Param (Ast.Mut, name, ty) :: !params
    | T.UNDERSCORE ->
        advance st;
        expect st T.COLON;
        let ty = parse_ty st in
        params := Ast.Param (Ast.Imm, "_", ty) :: !params
    | T.IDENT name ->
        advance st;
        expect st T.COLON;
        let ty = parse_ty st in
        params := Ast.Param (Ast.Imm, name, ty) :: !params
    | t -> err st "expected parameter, found '%s'" (T.to_string t)
  in
  if not (T.equal (peek st) T.RPAREN) then begin
    parse_param ();
    while accept st T.COMMA do
      if not (T.equal (peek st) T.RPAREN) then parse_param ()
    done
  end;
  expect st T.RPAREN;
  List.rev !params

and skip_where_clause st =
  if accept st T.KW_WHERE then begin
    (* consume until '{' or ';' at depth 0 *)
    let depth = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      match peek st with
      | T.LT ->
          incr depth;
          advance st
      | T.GT when !depth > 0 ->
          decr depth;
          advance st
      | T.LBRACE | T.SEMI when !depth = 0 -> continue_ := false
      | T.EOF -> continue_ := false
      | _ -> advance st
    done
  end

and parse_fn ~public ~unsafe_ st : Ast.fn_def =
  let start = st.idx in
  expect st T.KW_FN;
  let fn_name = expect_ident st in
  let fn_generics = parse_generic_params st in
  let fn_params = parse_fn_params st in
  let fn_ret = if accept st T.ARROW then Some (parse_ty st) else None in
  skip_where_clause st;
  let fn_body =
    if T.equal (peek st) T.LBRACE then Some (parse_block st)
    else begin
      expect st T.SEMI;
      None
    end
  in
  {
    Ast.fn_name;
    fn_unsafe = unsafe_;
    fn_public = public;
    fn_generics;
    fn_params;
    fn_ret;
    fn_body;
    fn_span = span_from st start;
  }

and parse_struct ~public:_ st : Ast.struct_def =
  let start = st.idx in
  expect st T.KW_STRUCT;
  let s_name = expect_ident st in
  let s_generics = parse_generic_params st in
  skip_where_clause st;
  let s_fields = ref [] in
  if accept st T.SEMI then ()  (* unit struct *)
  else begin
    expect st T.LBRACE;
    let parse_field () =
      let field_public = accept st T.KW_PUB in
      let field_name = expect_ident st in
      expect st T.COLON;
      let field_ty = parse_ty st in
      s_fields := { Ast.field_name; field_ty; field_public } :: !s_fields
    in
    if not (T.equal (peek st) T.RBRACE) then begin
      parse_field ();
      while accept st T.COMMA do
        if not (T.equal (peek st) T.RBRACE) then parse_field ()
      done
    end;
    expect st T.RBRACE
  end;
  {
    Ast.s_name;
    s_generics;
    s_fields = List.rev !s_fields;
    s_span = span_from st start;
  }

and parse_enum st : Ast.enum_def =
  let start = st.idx in
  expect st T.KW_ENUM;
  let e_name = expect_ident st in
  let e_generics = parse_generic_params st in
  skip_where_clause st;
  expect st T.LBRACE;
  let variants = ref [] in
  let parse_variant () =
    let v_name = expect_ident st in
    let v_args =
      if accept st T.LPAREN then begin
        let tys = ref [] in
        if not (T.equal (peek st) T.RPAREN) then begin
          tys := [ parse_ty st ];
          while accept st T.COMMA do
            if not (T.equal (peek st) T.RPAREN) then tys := parse_ty st :: !tys
          done
        end;
        expect st T.RPAREN;
        List.rev !tys
      end
      else []
    in
    variants := { Ast.v_name; v_args } :: !variants
  in
  if not (T.equal (peek st) T.RBRACE) then begin
    parse_variant ();
    while accept st T.COMMA do
      if not (T.equal (peek st) T.RBRACE) then parse_variant ()
    done
  end;
  expect st T.RBRACE;
  {
    Ast.e_name;
    e_generics;
    e_variants = List.rev !variants;
    e_span = span_from st start;
  }

and parse_impl ~unsafe_ st : Ast.impl_block =
  let start = st.idx in
  expect st T.KW_IMPL;
  let _generics = parse_generic_params st in
  (* Either `impl Ty { ... }` or `impl Trait for Ty { ... }` *)
  let first_ty = parse_ty st in
  let impl_trait, impl_self_ty =
    if accept st T.KW_FOR then begin
      let self_ty = parse_ty st in
      let trait_path =
        match first_ty.Ast.t with
        | Ast.Ty_path (p, _) -> p
        | _ -> Diag.fail ~span:first_ty.Ast.tspan "trait name expected before 'for'"
      in
      (Some trait_path, self_ty)
    end
    else (None, first_ty)
  in
  skip_where_clause st;
  expect st T.LBRACE;
  let items = ref [] in
  while not (T.equal (peek st) T.RBRACE) do
    let public = accept st T.KW_PUB in
    let unsafe_fn = accept st T.KW_UNSAFE in
    items := parse_fn ~public ~unsafe_:unsafe_fn st :: !items
  done;
  expect st T.RBRACE;
  {
    Ast.impl_unsafe = unsafe_;
    impl_trait;
    impl_self_ty;
    impl_items = List.rev !items;
    impl_span = span_from st start;
  }

and parse_trait ~unsafe_ st : Ast.trait_def =
  let start = st.idx in
  expect st T.KW_TRAIT;
  let tr_name = expect_ident st in
  let _generics = parse_generic_params st in
  (* supertraits `: Send + Sync` *)
  if accept st T.COLON then begin
    let continue_ = ref true in
    while !continue_ do
      ignore (parse_simple_path st);
      ignore (parse_generic_args st);
      if not (accept st T.PLUS) then continue_ := false
    done
  end;
  skip_where_clause st;
  expect st T.LBRACE;
  let items = ref [] in
  while not (T.equal (peek st) T.RBRACE) do
    let public = accept st T.KW_PUB in
    let unsafe_fn = accept st T.KW_UNSAFE in
    items := parse_fn ~public ~unsafe_:unsafe_fn st :: !items
  done;
  expect st T.RBRACE;
  {
    Ast.tr_name;
    tr_unsafe = unsafe_;
    tr_items = List.rev !items;
    tr_span = span_from st start;
  }

and parse_static st : Ast.static_def =
  let start = st.idx in
  (match peek st with
  | T.KW_STATIC | T.KW_CONST -> advance st
  | t -> err st "expected 'static' or 'const', found '%s'" (T.to_string t));
  let st_mut = accept st T.KW_MUT in
  let st_name = expect_ident st in
  expect st T.COLON;
  let st_ty = parse_ty st in
  expect st T.EQ;
  let st_init = try_parse_expr_stmt st in
  expect st T.SEMI;
  { Ast.st_name; st_mut; st_ty; st_init; st_span = span_from st start }

and parse_item st : Ast.item =
  let public = accept st T.KW_PUB in
  let unsafe_ = accept st T.KW_UNSAFE in
  match peek st with
  | T.KW_FN -> Ast.I_fn (parse_fn ~public ~unsafe_ st)
  | T.KW_STRUCT -> Ast.I_struct (parse_struct ~public st)
  | T.KW_ENUM -> Ast.I_enum (parse_enum st)
  | T.KW_IMPL -> Ast.I_impl (parse_impl ~unsafe_ st)
  | T.KW_TRAIT -> Ast.I_trait (parse_trait ~unsafe_ st)
  | T.KW_STATIC | T.KW_CONST -> Ast.I_static (parse_static st)
  | T.KW_USE ->
      advance st;
      let p = parse_simple_path st in
      (* `use a::b::{c, d}` or `use a::*` — consume the remainder *)
      if accept st T.COLONCOLON then begin
        match peek st with
        | T.LBRACE ->
            advance st;
            let depth = ref 1 in
            while !depth > 0 do
              (match peek st with
              | T.LBRACE -> incr depth
              | T.RBRACE -> decr depth
              | T.EOF -> depth := 0
              | _ -> ());
              advance st
            done
        | T.STAR -> advance st
        | _ -> ignore (parse_simple_path st)
      end;
      (match peek st with
      | T.KW_AS ->
          advance st;
          ignore (expect_ident st)
      | _ -> ());
      expect st T.SEMI;
      Ast.I_use p
  | T.KW_MOD ->
      advance st;
      let name = expect_ident st in
      expect st T.LBRACE;
      let items = ref [] in
      while not (T.equal (peek st) T.RBRACE) do
        items := parse_item st :: !items
      done;
      expect st T.RBRACE;
      Ast.I_mod (name, List.rev !items)
  | t -> err st "expected item, found '%s'" (T.to_string t)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let parse_crate ~file src : Ast.crate =
  Support.Trace.with_span ~cat:"frontend" ~args:[ ("file", file) ]
    "frontend.parse" (fun () ->
      let buf =
        Support.Trace.with_span ~cat:"frontend" ~args:[ ("file", file) ]
          "frontend.lex" (fun () -> Lexer.lex ~file src)
      in
      let st = make buf in
      let items = ref [] in
      while not (T.equal (peek st) T.EOF) do
        items := parse_item st :: !items
      done;
      { Ast.items = List.rev !items; crate_file = file })

let parse_crate_recovering ~file src : Ast.crate * Diag.t list =
  Support.Trace.with_span ~cat:"frontend" ~args:[ ("file", file) ]
    "frontend.parse" (fun () ->
  let c = Diag.collector () in
  let buf =
    Support.Trace.with_span ~cat:"frontend" ~args:[ ("file", file) ]
      "frontend.lex" (fun () -> Lexer.lex ~recover:c ~file src)
  in
  let st = make ~recover:c buf in
  let items = ref [] in
  while not (T.equal (peek st) T.EOF) do
    let idx0 = st.idx in
    match parse_item st with
    | it -> items := it :: !items
    | exception Diag.Parse_error d ->
        Diag.emit c d;
        let err_mark = st.idx in
        st.errors_left <- st.errors_left - 1;
        if st.errors_left <= 0 then give_up st c
        else begin
          (* guarantee progress even when the item failed on its very
             first token, then resynchronize at the next item boundary *)
          if st.idx = idx0 then advance st;
          sync_item st
        end;
        items := Ast.I_error (span_from st err_mark) :: !items
  done;
  ({ Ast.items = List.rev !items; crate_file = file }, Diag.diags c))

let parse_expr_string ~file src : Ast.expr =
  let buf = Lexer.lex ~file src in
  let st = make buf in
  let e = try_parse_expr_stmt st in
  if not (T.equal (peek st) T.EOF) then
    err st "trailing tokens after expression";
  e
