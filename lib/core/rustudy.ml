(** Rustudy: reproduction of "Understanding Memory and Thread Safety
    Practices and Issues in Real-World Rust Programs" (PLDI 2020).

    This facade is the library's public API. The typical flow:

    {[
      let program = Rustudy.load ~file:"queue.rs" source in
      let findings = Rustudy.detect program in
      List.iter (fun f -> print_endline (Rustudy.Finding.to_string f)) findings
    ]}

    or, for the full empirical study over the bundled corpus:

    {[
      print_endline (Rustudy.study_report ())
    ]} *)

module Span = Support.Span
module Diag = Support.Diag
module Ast = Syntax.Ast
module Parser = Syntax.Parser
module Lexer = Syntax.Lexer
module Token = Syntax.Token
module Ty = Sema.Ty
module Env = Sema.Env
module Typeck = Sema.Typeck
module Mir = Ir.Mir
module Lower = Ir.Lower
module Cache = Analysis.Cache
module Summary = Analysis.Summary
module Domain_pool = Support.Domain_pool
module Fuel = Support.Fuel
module Fault = Support.Fault
module Deadline = Support.Deadline
module Retry = Support.Retry
module Supervisor = Support.Supervisor
module Journal = Support.Journal
module Metrics = Support.Metrics
module Trace = Support.Trace
module Flight = Support.Flight
module Finding = Detectors.Report
module Detect = Detectors.All
module Unsafe_scan = Detectors.Unsafe_scan
module Lock_scope = Detectors.Lock_scope
module Encapsulation = Detectors.Encapsulation
module Lifetimes = Detectors.Lifetimes
module Corpus = Corpus
module Classify = Study.Classify
module Tables = Study.Tables
module Figures = Study.Figures
module Detector_eval = Study.Detector_eval
module Machine = Interp.Machine
module Oracle = Interp.Oracle
module Oracle_eval = Study.Oracle_eval

exception Parse_error = Support.Diag.Parse_error

(** Parse RustLite source text into an AST. *)
let parse ~file source : Ast.crate = Parser.parse_crate ~file source

(** Parse with error recovery: malformed regions become diagnostics
    plus error nodes in the (partial) AST. Never raises. *)
let parse_recovering ~file source : Ast.crate * Diag.t list =
  Parser.parse_crate_recovering ~file source

(** Parse and lower source text to a MIR program, ready for analysis.
    [tmp_lifetime] selects Rust's extended temporary-lifetime rule
    (default) or the statement-local ablation. *)
let load ?config ~file source : Mir.program =
  Ir.Lower.program_of_source ?config ~file source

(** Like {!load}, but through the process-wide program cache: the same
    [(file, config)] key is parsed and lowered at most once, and the
    returned context shares every per-body analysis across detectors. *)
let load_ctx ?config ~file source : Cache.t =
  Cache.load_ctx ?config ~file source

(** Run every bug detector (memory, blocking, non-blocking). *)
let detect (program : Mir.program) : Finding.finding list =
  Detectors.All.bugs_ctx (Cache.create program)

(** [detect] against a shared analysis context. *)
let detect_ctx (ctx : Cache.t) : Finding.finding list =
  Detectors.All.bugs_ctx ctx

(** Model of what the Rust compiler statically rejects
    (use-after-move, conflicting borrows). *)
let compiler_checks (program : Mir.program) : Finding.finding list =
  Detectors.All.compiler_checks_ctx (Cache.create program)

(** Scan a crate for unsafe usages (section 4 of the paper). *)
let scan_unsafe (crate : Ast.crate) : Unsafe_scan.stats =
  Unsafe_scan.scan crate

(** One-call pipeline: parse, lower, detect. *)
let check ?config ~file source : Finding.finding list =
  detect (load ?config ~file source)

(** Fault-tolerant {!check}: the frontend recovers from malformed
    regions (the findings then cover only the healthy parts) and any
    other pipeline failure is captured as [Error]. Never raises. The
    diagnostics list is empty iff the source was fully healthy. *)
let check_result ?cache ?config ~file source :
    (Finding.finding list * Diag.t list, string) result =
  match Cache.load_ctx_recovering ?cache ?config ~file source with
  | Error e -> Error (Printexc.to_string e)
  | Ok ctx -> (
      match detect_ctx ctx with
      | exception e -> Error (Printexc.to_string e)
      | findings -> Ok (findings, Cache.diags ctx))

(** Analyze the bundled corpus once. [domains] sizes the worker pool
    ([1] forces the sequential path); results are in corpus order
    either way. *)
let analyze_corpus ?domains () : Classify.analysis list =
  Study.Classify.analyze_all ?domains ()

(** Fault-tolerant corpus sweep: one {!Classify.outcome} per entry, in
    corpus order; a crashing entry is confined to its own slot. Never
    raises. *)
let analyze_corpus_results ?domains () :
    (Corpus.entry * Classify.outcome) list =
  Study.Classify.analyze_all_results ?domains ()

let assemble_report ?domains analyses =
  String.concat "\n"
    [
      Study.Tables.table1 analyses;
      Study.Tables.table2 analyses;
      Study.Tables.table3 analyses;
      Study.Tables.table4 analyses;
      Study.Tables.fix_strategies analyses;
      Study.Tables.unsafe_stats ();
      Study.Figures.figure1 ();
      Study.Figures.figure2 ();
      Study.Detector_eval.render (Study.Detector_eval.run ?domains ());
      Study.Oracle_eval.render (Study.Oracle_eval.run ?domains ());
    ]

(** The full study report: every table and figure of the paper. *)
let study_report ?domains () : string =
  assemble_report ?domains (analyze_corpus ?domains ())

(** Fault-tolerant {!study_report}: the tables cover every entry that
    produced an analysis (clean or degraded) and the per-entry outcomes
    come back alongside the report so callers can summarize degraded
    entries ({!Classify.degraded_summary}) and pick an exit code. Never
    raises. *)
let study_report_results ?domains () :
    string * (Corpus.entry * Classify.outcome) list =
  let results = analyze_corpus_results ?domains () in
  let analyses =
    List.filter_map (fun (_, o) -> Classify.outcome_analysis o) results
  in
  (assemble_report ?domains analyses, results)

(** Supervised corpus sweep: deadline-governed, retrying, quarantining,
    optionally checkpointed/resumed ({!Classify.analyze_entries_supervised}
    over the whole bundled corpus). *)
let analyze_corpus_supervised ?config ?checkpoint ?resume () :
    (Corpus.entry * Classify.outcome) list * Supervisor.stats * int =
  Study.Classify.analyze_entries_supervised ?config ?checkpoint ?resume
    Corpus.all_bugs

(** {!study_report_results} under supervision: the report covers every
    entry that produced an analysis; quarantined/skipped entries are
    surfaced through the outcomes and the supervisor stats. *)
let study_report_supervised ?domains ?config ?checkpoint ?resume () :
    string * (Corpus.entry * Classify.outcome) list * Supervisor.stats * int =
  let results, stats, replayed =
    analyze_corpus_supervised ?config ?checkpoint ?resume ()
  in
  let analyses =
    List.filter_map (fun (_, o) -> Classify.outcome_analysis o) results
  in
  (assemble_report ?domains analyses, results, stats, replayed)
