(* Lexer unit tests and tokenization properties. *)

module T = Rustudy.Lexer
module Tok = Rustudy.Token

let tokens src =
  List.map (fun (s : T.spanned) -> s.T.tok) (T.tokenize ~file:"t.rs" src)

let tok = Alcotest.testable (fun ppf t -> Fmt.string ppf (Tok.to_string t)) Tok.equal

let check_tokens name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list tok)) name (expected @ [ Tok.EOF ]) (tokens src))

let basic =
  [
    check_tokens "keywords and idents" "fn main unsafe impl"
      [ Tok.KW_FN; Tok.IDENT "main"; Tok.KW_UNSAFE; Tok.KW_IMPL ];
    check_tokens "integer suffixes" "0u8 100usize 42"
      [ Tok.INT (0, "u8"); Tok.INT (100, "usize"); Tok.INT (42, "") ];
    check_tokens "hex literals" "0xC0u8 0xFF"
      [ Tok.INT (192, "u8"); Tok.INT (255, "") ];
    check_tokens "underscore separators" "1_000_000" [ Tok.INT (1000000, "") ];
    check_tokens "float" "3.25" [ Tok.FLOAT 3.25 ];
    check_tokens "string escapes" {|"a\nb"|} [ Tok.STRING "a\nb" ];
    check_tokens "char literal" "'x'" [ Tok.CHAR 'x' ];
    check_tokens "lifetime vs char" "'a 'b'"
      [ Tok.LIFETIME "a"; Tok.CHAR 'b' ];
    check_tokens "two-char operators" ":: -> => == != <= >= && || .. ..="
      [
        Tok.COLONCOLON; Tok.ARROW; Tok.FATARROW; Tok.EQEQ; Tok.NE; Tok.LE;
        Tok.GE; Tok.AMPAMP; Tok.PIPEPIPE; Tok.DOTDOT; Tok.DOTDOTEQ;
      ];
    check_tokens "no shift-right token (generics)" "Vec<Vec<u8>>"
      [
        Tok.IDENT "Vec"; Tok.LT; Tok.IDENT "Vec"; Tok.LT; Tok.IDENT "u8";
        Tok.GT; Tok.GT;
      ];
    check_tokens "compound assignment" "x += 1; y -= 2"
      [
        Tok.IDENT "x"; Tok.PLUSEQ; Tok.INT (1, ""); Tok.SEMI; Tok.IDENT "y";
        Tok.MINUSEQ; Tok.INT (2, "");
      ];
    check_tokens "line comment skipped" "a // comment\nb"
      [ Tok.IDENT "a"; Tok.IDENT "b" ];
    check_tokens "nested block comment" "a /* x /* y */ z */ b"
      [ Tok.IDENT "a"; Tok.IDENT "b" ];
    check_tokens "attribute skipped" "#[derive(Debug)] struct"
      [ Tok.KW_STRUCT ];
    check_tokens "inner attribute skipped" "#![allow(dead_code)] fn"
      [ Tok.KW_FN ];
  ]

let errors =
  [
    Alcotest.test_case "unterminated string" `Quick (fun () ->
        Alcotest.check_raises "raises" (Failure "expected")
          (fun () ->
            try ignore (tokens {|"abc|})
            with Rustudy.Parse_error _ -> raise (Failure "expected")));
    Alcotest.test_case "unterminated comment" `Quick (fun () ->
        Alcotest.check_raises "raises" (Failure "expected")
          (fun () ->
            try ignore (tokens "/* never closed")
            with Rustudy.Parse_error _ -> raise (Failure "expected")));
  ]

let spans =
  [
    Alcotest.test_case "token spans are ordered and non-dummy" `Quick
      (fun () ->
        let toks = T.tokenize ~file:"t.rs" "fn f() { 1 + 2 }" in
        let rec check_ordered = function
          | (a : T.spanned) :: (b : T.spanned) :: rest ->
              Alcotest.(check bool)
                "ordered" true
                (Support.Span.start_offset a.T.span
                <= Support.Span.start_offset b.T.span);
              check_ordered (b :: rest)
          | _ -> ()
        in
        check_ordered toks);
  ]

let suite = basic @ errors @ spans
