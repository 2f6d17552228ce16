(* Frontend offset-span fidelity and bounded-recovery cost.

   The flat-buffer lexer records byte offsets only and derives
   line/column on demand from a per-file line-start table; these tests
   pin that derivation against an independent eager computation, and
   pin the cost model of panic-mode recovery on the seeded mutant
   suite. *)

module L = Rustudy.Lexer
module Diag = Support.Diag

(* Independent line/col computation, straight from the source text: a
   position at a newline byte belongs to the line that newline
   terminates (the legacy eager-tracking convention). *)
let naive_pos src off =
  let line = ref 1 and start = ref 0 in
  for i = 0 to off - 1 do
    if String.get src i = '\n' then begin
      incr line;
      start := i + 1
    end
  done;
  (!line, off - !start + 1)

let check_span_at src file (sp : Support.Span.t) =
  let check_pos (p : Support.Span.pos) =
    let line, col = naive_pos src p.Support.Span.offset in
    if p.Support.Span.line <> line || p.Support.Span.col <> col then
      Alcotest.failf "%s: offset %d derived %d:%d, expected %d:%d" file
        p.Support.Span.offset p.Support.Span.line p.Support.Span.col line col
  in
  check_pos (Support.Span.start_pos sp);
  check_pos (Support.Span.end_pos sp)

(* Every token span of every corpus file, offset-derived vs eager. *)
let differential_token_spans =
  Alcotest.test_case "token spans: offset-derived = eager line/col" `Quick
    (fun () ->
      List.iter
        (fun (e : Rustudy.Corpus.entry) ->
          let src = e.Rustudy.Corpus.source in
          List.iter
            (fun (s : L.spanned) -> check_span_at src e.Rustudy.Corpus.id s.L.span)
            (L.tokenize ~file:e.Rustudy.Corpus.id src))
        Rustudy.Corpus.all_bugs)

(* Non-monotone offset queries exercise the binary-search path, not
   just the line-hint fast path the parser's access pattern hits. *)
let random_access_offsets =
  Alcotest.test_case "pos_of_offset: random access = eager line/col" `Quick
    (fun () ->
      let rand = Random.State.make [| 0x5EED |] in
      List.iter
        (fun (e : Rustudy.Corpus.entry) ->
          let src = e.Rustudy.Corpus.source in
          let buf = L.lex ~file:e.Rustudy.Corpus.id src in
          let n = String.length src in
          for _ = 1 to 50 do
            let off = Random.State.int rand (n + 1) in
            let p = L.pos_of_offset buf off in
            let line, col = naive_pos src off in
            if p.Support.Span.line <> line || p.Support.Span.col <> col then
              Alcotest.failf "%s: offset %d -> %d:%d, expected %d:%d"
                e.Rustudy.Corpus.id off p.Support.Span.line p.Support.Span.col
                line col
          done)
        Rustudy.Corpus.all_bugs)

let line_starts_table =
  Alcotest.test_case "line_starts_of agrees with a char scan" `Quick
    (fun () ->
      List.iter
        (fun src ->
          let expected =
            0
            :: List.filter_map
                 (fun i -> if String.get src i = '\n' then Some (i + 1) else None)
                 (List.init (String.length src) Fun.id)
          in
          Alcotest.(check (list int))
            "line starts" expected
            (Array.to_list (L.line_starts_of src)))
        [ ""; "a"; "\n"; "a\nb"; "a\nb\n"; "\n\n\n"; "one line no newline" ])

(* ------------------------------------------------------------------ *)
(* Bounded recovery                                                    *)
(* ------------------------------------------------------------------ *)

let mutant_suite () =
  List.concat_map
    (fun (e : Rustudy.Corpus.entry) ->
      List.map
        (fun (m, src) -> (e.Rustudy.Corpus.id ^ "-" ^ m, src))
        (Rustudy.Fault.mutations ~seed:0x5EED e.Rustudy.Corpus.source))
    Rustudy.Corpus.all_bugs

let wall f =
  let once () =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  ignore (once ());
  min (once ()) (min (once ()) (once ()))

(* Recovery cost bound: parsing the seeded 1020-mutant suite costs at
   most a small constant per byte over strict parsing of the pristine
   corpus. The threshold is deliberately generous (the measured ratio
   is ~1x; the pre-flat-buffer frontend sat around 2x) so the test
   only fires on a genuine cost-model regression — e.g. recovery
   re-lexing the file per error — not on scheduler noise. *)
let recovery_cost_bound =
  Alcotest.test_case "mutant recovery costs O(clean) per byte" `Quick
    (fun () ->
      let clean =
        List.map
          (fun (e : Rustudy.Corpus.entry) ->
            (e.Rustudy.Corpus.id, e.Rustudy.Corpus.source))
          Rustudy.Corpus.all_bugs
      in
      let mutants = mutant_suite () in
      let bytes l =
        float_of_int
          (List.fold_left (fun a (_, s) -> a + String.length s) 0 l)
      in
      let clean_s =
        wall (fun () ->
            List.iter
              (fun (id, src) -> ignore (Rustudy.parse ~file:id src))
              clean)
      in
      let mutated_s =
        wall (fun () ->
            List.iter
              (fun (id, src) -> ignore (Rustudy.parse_recovering ~file:id src))
              mutants)
      in
      let per_byte_ratio =
        mutated_s /. bytes mutants /. (clean_s /. bytes clean)
      in
      if per_byte_ratio > 10.0 then
        Alcotest.failf
          "recovering a mutant byte costs %.1fx a clean byte (bound: 10x)"
          per_byte_ratio)

(* Seeded determinism: the mutant suite parses to the same diagnostics
   on every run, so the cost bound above is measured on a fixed
   workload. *)
let mutant_determinism =
  Alcotest.test_case "mutant suite diagnostics are deterministic" `Quick
    (fun () ->
      let digest l =
        List.map
          (fun (id, src) ->
            let _, diags = Rustudy.parse_recovering ~file:id src in
            (id, List.length diags, List.map Diag.to_string diags))
          l
      in
      let m = mutant_suite () in
      Alcotest.(check bool) "two passes agree" true (digest m = digest m))

(* The error budget caps recovery on pathological input: one terminal
   "giving up" diagnostic, then a straight jump to EOF instead of
   resynchronizing thousands of times. *)
let error_budget_cap =
  Alcotest.test_case "error budget caps pathological recovery" `Quick
    (fun () ->
      let adversarial =
        String.concat "" (List.init 5_000 (fun _ -> "fn ;\n"))
      in
      let _, diags = Rustudy.parse_recovering ~file:"adv.rs" adversarial in
      let parse_errors =
        List.filter (fun d -> d.Diag.code = Diag.Parse_error_code) diags
      in
      let give_ups =
        List.filter
          (fun d ->
            let m = Diag.to_string d in
            (* the terminal diagnostic, emitted exactly once *)
            String.length m >= 22
            && Str.string_match (Str.regexp ".*too many syntax errors") m 0)
          diags
      in
      Alcotest.(check int) "one giving-up diagnostic" 1 (List.length give_ups);
      if List.length parse_errors > 130 then
        Alcotest.failf "budget did not cap diagnostics: %d parse errors"
          (List.length parse_errors))

let suite =
  [
    differential_token_spans;
    random_access_offsets;
    line_starts_table;
    recovery_cost_bound;
    mutant_determinism;
    error_budget_cap;
  ]
