(* Spans as flat values: the journal codec round-trips them exactly,
   and each one is a single heap block.

   A span is what every AST node and MIR statement keeps alive until
   exit, so its layout is pinned here rather than left to drift. *)

module Span = Support.Span
module L = Rustudy.Lexer
module Classify = Rustudy.Classify

let case name f = Alcotest.test_case name `Quick f

let src = "fn f() {\n    let x = 1;\n    x\n}\n"
let buf = L.lex ~file:"codec.rs" src

let one_line = L.span_of_offsets buf 13 23 (* [let x = 1;] *)
let multi_line = L.span_of_offsets buf 0 (String.length src - 1)

let pos_triple (p : Span.pos) = (p.Span.line, p.Span.col, p.Span.offset)

let check_same name (a : Span.t) (b : Span.t) =
  Alcotest.(check string) (name ^ " file") (Span.file a) (Span.file b);
  Alcotest.(check (triple int int int))
    (name ^ " start") (pos_triple (Span.start_pos a)) (pos_triple (Span.start_pos b));
  Alcotest.(check (triple int int int))
    (name ^ " end") (pos_triple (Span.end_pos a)) (pos_triple (Span.end_pos b));
  Alcotest.(check bool) (name ^ " dummy") (Span.is_dummy a) (Span.is_dummy b);
  Alcotest.(check string) (name ^ " pp") (Span.to_string a) (Span.to_string b)

let codec_round_trip =
  case "span codec round-trips dummy, one-line and multi-line spans"
    (fun () ->
      Alcotest.(check (triple int int int))
        "one-line span starts at 2:5" (2, 5, 13)
        (pos_triple (Span.start_pos one_line));
      Alcotest.(check (triple int int int))
        "multi-line span ends at 4:2" (4, 2, String.length src - 1)
        (pos_triple (Span.end_pos multi_line));
      List.iter
        (fun (name, sp) ->
          let fields = Classify.span_fields sp in
          match Classify.take_span (fields @ [ "rest" ]) with
          | Some (sp', [ "rest" ]) ->
              check_same name sp sp';
              Alcotest.(check (list string))
                (name ^ " fields") fields (Classify.span_fields sp')
          | Some _ -> Alcotest.failf "%s: take_span left the wrong rest" name
          | None -> Alcotest.failf "%s: take_span rejected its own fields" name)
        [ ("dummy", Span.dummy); ("one-line", one_line); ("multi-line", multi_line) ])

(* One block: every field but the file is an immediate, so the span's
   reachable size is its own block plus the (shared) file name. *)
let one_block (sp : Span.t) =
  let o = Obj.repr sp in
  let file_words = Obj.reachable_words (Obj.repr (Span.file sp)) in
  Obj.is_block o
  && Obj.reachable_words o = Obj.size o + 1 + file_words
  && Obj.size o <= 5

let spans_are_one_block =
  case "every span is one block of at most six words" (fun () ->
      Alcotest.(check bool) "dummy" true (one_block Span.dummy);
      List.iter
        (fun (e : Rustudy.Corpus.entry) ->
          let b = L.lex ~file:e.Rustudy.Corpus.id e.Rustudy.Corpus.source in
          for i = 0 to b.L.n_toks - 1 do
            let sp = L.token_span b i in
            if not (one_block sp) then
              Alcotest.failf "%s: token %d's span %s takes %d words"
                e.Rustudy.Corpus.id i (Span.to_string sp)
                (Obj.reachable_words (Obj.repr sp))
          done)
        Rustudy.Corpus.all_bugs;
      Alcotest.(check bool) "union" true
        (one_block (Span.union one_line multi_line)))

let suite = [ codec_round_trip; spans_are_one_block ]
