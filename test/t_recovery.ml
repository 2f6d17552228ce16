(* Frontend error recovery and analysis-fuel degradation: malformed
   input must produce diagnostics plus a partial AST — never an
   exception — and a fuel-starved fixpoint must degrade to an
   "incomplete" result instead of diverging. *)

module Ast = Rustudy.Ast
module Diag = Rustudy.Diag

let parse_rec src = Rustudy.parse_recovering ~file:"rec.rs" src

let item_names (crate : Ast.crate) = List.map Ast.item_name crate.Ast.items

let case name f = Alcotest.test_case name `Quick f

(* ---------------- lexer recovery ----------------------------------- *)

let recovers name src ~code =
  case name (fun () ->
      let _, diags = parse_rec src in
      Alcotest.(check bool) "has diagnostics" true (diags <> []);
      Alcotest.(check bool)
        ("some diagnostic has code " ^ Diag.code_name code)
        true
        (List.exists (fun d -> d.Diag.code = code) diags))

let lexer_recovery =
  [
    recovers "unterminated string" "fn f() { let s = \"abc" ~code:Diag.Lex_unterminated_string;
    recovers "unterminated block comment" "fn f() { } /* never closed" ~code:Diag.Lex_unterminated_comment;
    recovers "bad escape" {|fn f() { let s = "a\qb"; }|} ~code:Diag.Lex_bad_escape;
    recovers "invalid hex literal" "fn f() { let x = 0x; }" ~code:Diag.Lex_bad_literal;
    recovers "invalid character" "fn f() { let x = 1; } $ fn g() { }" ~code:Diag.Lex_invalid_char;
    recovers "unterminated char literal" "fn f() { let c = '+; }" ~code:Diag.Lex_unterminated_char;
    recovers "unterminated attribute" "#[derive(Debug fn f() { }" ~code:Diag.Lex_unterminated_attribute;
    case "bad byte between items keeps both items" (fun () ->
        let crate, diags = parse_rec "fn f() { } \001 fn g() { }" in
        Alcotest.(check (list string)) "items" [ "f"; "g" ] (item_names crate);
        Alcotest.(check int) "one diagnostic" 1 (List.length diags));
  ]

(* ---------------- parser recovery ---------------------------------- *)

let parser_recovery =
  [
    case "bad item is isolated, neighbours survive" (fun () ->
        let crate, diags =
          parse_rec "fn good() -> i32 { 1 }\nfn bad( { }\nfn also() { }"
        in
        Alcotest.(check (list string))
          "items" [ "good"; "<error>"; "also" ] (item_names crate);
        Alcotest.(check bool) "has diagnostics" true (diags <> []));
    case "bad statement becomes E_error, rest of block survives" (fun () ->
        let crate, diags =
          parse_rec "fn f() { let x = 1; x + ; let y = 2; y }"
        in
        Alcotest.(check (list string)) "items" [ "f" ] (item_names crate);
        Alcotest.(check bool) "has diagnostics" true (diags <> []);
        let has_error_node =
          Ast.fold_crate
            (fun acc (e : Ast.expr) -> acc || e.Ast.e = Ast.E_error)
            false crate
        in
        Alcotest.(check bool) "E_error present" true has_error_node);
    case "truncated item at EOF" (fun () ->
        let crate, diags = parse_rec "fn f() { let x = 1" in
        Alcotest.(check (list string)) "items" [ "f" ] (item_names crate);
        Alcotest.(check bool) "has diagnostics" true (diags <> []));
    case "unbalanced delimiters" (fun () ->
        let crate, diags = parse_rec "fn f() { ((( }\nfn g() { }" in
        Alcotest.(check bool) "g survives" true
          (List.mem "g" (item_names crate));
        Alcotest.(check bool) "has diagnostics" true (diags <> []));
    case "garbage-only input yields error items, no exception" (fun () ->
        let crate, diags = parse_rec ") ) } ] , ; -> => :: junk" in
        Alcotest.(check bool) "has diagnostics" true (diags <> []);
        Alcotest.(check bool) "only error items" true
          (List.for_all
             (fun i -> match i with Ast.I_error _ -> true | _ -> false)
             crate.Ast.items));
    case "empty input is clean" (fun () ->
        let crate, diags = parse_rec "" in
        Alcotest.(check int) "no items" 0 (List.length crate.Ast.items);
        Alcotest.(check int) "no diagnostics" 0 (List.length diags));
    case "clean source has zero diagnostics and the same AST size" (fun () ->
        let src = "fn f() -> i32 { let x = 1; x + 1 }\nstruct S { a: i32 }" in
        let crate, diags = parse_rec src in
        let strict = Rustudy.parse ~file:"rec.rs" src in
        Alcotest.(check int) "no diagnostics" 0 (List.length diags);
        Alcotest.(check (list string))
          "same items" (item_names strict) (item_names crate));
    case "recovering diags non-empty iff strict parse raises" (fun () ->
        List.iter
          (fun src ->
            let _, diags = parse_rec src in
            let raised =
              match Rustudy.parse ~file:"rec.rs" src with
              | _ -> false
              | exception Rustudy.Parse_error _ -> true
            in
            Alcotest.(check bool)
              ("agree on: " ^ src) raised (diags <> []))
          [
            "fn f() { 1 }";
            "fn f() { 1";
            "fn f( { }";
            "struct S { a: i32 }";
            "fn f() { let s = \"abc";
          ]);
  ]

(* ---------------- recovered programs still analyze ------------------ *)

let pipeline_on_partial =
  [
    case "detectors run on the healthy half of a broken file" (fun () ->
        (* the healthy function contains a real double-lock *)
        let src =
          "fn broken( { }\n\
           fn bug(m: Arc<Mutex<u32>>) { let a = m.lock().unwrap(); let b = \
           m.lock().unwrap(); }"
        in
        match Rustudy.check_result ~file:"partial.rs" src with
        | Error msg -> Alcotest.fail ("pipeline failed: " ^ msg)
        | Ok (findings, diags) ->
            Alcotest.(check bool) "degraded" true (diags <> []);
            Alcotest.(check bool)
              "double-lock still found in healthy part" true
              (List.exists
                 (fun (f : Rustudy.Finding.finding) ->
                   f.Rustudy.Finding.kind = Rustudy.Finding.Double_lock)
                 findings));
    case "raising load_ctx refuses an entry cached as degraded" (fun () ->
        let src = "fn f() { let x = 1" in
        (match Rustudy.Cache.load_ctx_recovering ~file:"degraded-cache.rs" src with
        | Error e -> Alcotest.fail (Printexc.to_string e)
        | Ok ctx ->
            Alcotest.(check bool)
              "context carries diags" true
              (Rustudy.Cache.diags ctx <> []));
        match Rustudy.load_ctx ~file:"degraded-cache.rs" src with
        | _ -> Alcotest.fail "expected Parse_error from strict load"
        | exception Rustudy.Parse_error _ -> ());
  ]

(* ---------------- analysis fuel ------------------------------------ *)

let body_of src =
  match Rustudy.Mir.body_list (Rustudy.load ~file:"fuel.rs" src) with
  | b :: _ -> b
  | [] -> Alcotest.fail "no body"

let fuel =
  let src = "fn f() { let x = 1; let p = &x; let q = p; let r = q; r; }" in
  [
    case "points-to completes under the default budget" (fun () ->
        let r = Analysis.Pointsto.analyze (body_of src) in
        Alcotest.(check bool) "complete" true (Analysis.Pointsto.complete r));
    case "points-to degrades to incomplete when starved" (fun () ->
        Rustudy.Fuel.with_domain_budget 1 (fun () ->
            let r = Analysis.Pointsto.analyze (body_of src) in
            Alcotest.(check bool) "incomplete" false
              (Analysis.Pointsto.complete r)));
    case "storage dataflow degrades to unconverged when starved" (fun () ->
        (* needs several basic blocks so one unit of fuel cannot drain
           the worklist *)
        let body =
          body_of "fn f(c: bool) { let mut x = 1; while c { x = x + 1; } x; }"
        in
        let full = Analysis.Storage.analyze body in
        Alcotest.(check bool) "converged normally" true
          full.Analysis.Dataflow.IntSetFlow.converged;
        Rustudy.Fuel.with_domain_budget 1 (fun () ->
            let starved = Analysis.Storage.analyze body in
            Alcotest.(check bool) "unconverged" false
              starved.Analysis.Dataflow.IntSetFlow.converged));
    case "starved context reports Analysis_incomplete warnings" (fun () ->
        Rustudy.Fuel.with_domain_budget 1 (fun () ->
            match
              Rustudy.Cache.load_ctx_recovering ~file:"fuel-starved.rs"
                "fn f() { let x = 1; let p = &x; *p; }"
            with
            | Error e -> Alcotest.fail (Printexc.to_string e)
            | Ok ctx ->
                let _ = Rustudy.detect_ctx ctx in
                Alcotest.(check bool)
                  "has W0401" true
                  (List.exists
                     (fun d -> d.Diag.code = Diag.Analysis_incomplete)
                     (Rustudy.Cache.diags ctx))));
  ]

let suite = lexer_recovery @ parser_recovery @ pipeline_on_partial @ fuel
