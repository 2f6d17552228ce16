(** The benchmark's in-process half, driven by [perfbench/run.py].

    Subcommands:
    - [setup]: load the corpus and force its values, print [ready].
    - [gen-check SEED DIR]: write the labeled [check_scale] programs
      and [DIR/labels.json].
    - [serve-plan SEED COUNT OUT]: write the [serve_mixed] request
      sequence with every request's expected offline outcome.
    - [sweep SEED SECONDS TRACE OUT]: the [corpus_sweep] passes.
    - [check-traced DIR SECONDS OUT]: the traced [check_scale] run.
    - [serve-traced PLAN OUT]: the in-process half of the traced
      [serve_mixed] run.

    The traced subcommands time each layer from outside: they call
    the layers' public functions in the order the real pipeline does,
    each call wrapped in a {!Spans} span. They also run the real
    pipeline untraced on the same inputs, check that both produce the
    same bytes, and report the difference in wall time. *)

module S = Spans
module J = Server.Sjson
module Cache = Rustudy.Cache

(* ---------------- small helpers ------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let num x = J.Num x
let int n = J.Num (float_of_int n)
let str s = J.Str s
let ms_of_ns ns = ns /. 1e6
let digest s = Digest.to_hex (Digest.string s)

let member k j =
  match J.member k j with Some v -> v | None -> failwith ("missing " ^ k)

let to_str = function J.Str s -> s | _ -> failwith "expected a string"
let to_int = function J.Num f -> int_of_float f | _ -> failwith "expected a number"
let to_list = function J.List l -> l | _ -> failwith "expected a list"

(* Allocation and collection counters around a measured stretch. *)
type gc_mark = { minor_words : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major = s.Gc.major_collections }

let gc_fields ~ops (a : gc_mark) (b : gc_mark) =
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    ("runtime.major_collections", num (float_of_int (b.major - a.major) /. ops));
    ( "runtime.top_heap_mb",
      num (float_of_int (top * (Sys.word_size / 8)) /. 1048576.) );
    ("runtime.minor_words_per_entry", num ((b.minor_words -. a.minor_words) /. ops));
  ]

let fresh_caches () =
  Cache.clear_programs ();
  Cache.clear_summaries ()

(* ---------------- the layers, called from outside ------------------- *)

(* Every runtime-bug detector, in [Detectors.All.bugs_ctx] order. *)
let detectors : (string * (Cache.t -> Detectors.Report.finding list)) list =
  [
    ("uaf", fun c -> Detectors.Uaf.run_ctx c);
    ("double_free", Detectors.Double_free.run_ctx);
    ("invalid_free", Detectors.Invalid_free.run_ctx);
    ("uninit", Detectors.Uninit.run_ctx);
    ("null_deref", Detectors.Null_deref.run_ctx);
    ("buffer", Detectors.Buffer.run_ctx);
    ("double_lock", fun c -> Detectors.Double_lock.run_ctx c);
    ("lock_order", Detectors.Lock_order.run_ctx);
    ("condvar", Detectors.Condvar.run_ctx);
    ("channel", Detectors.Channel.run_ctx);
    ("once", Detectors.Once.run_ctx);
    ("sync_misuse", Detectors.Sync_misuse.run_ctx);
    ("atomicity", Detectors.Atomicity.run_ctx);
    ("atomicity_sessions", Detectors.Atomicity.run_with_sessions_ctx);
    ("refcell", Detectors.Refcell.run_ctx);
  ]

let detector_names = List.map fst detectors
let detector_spans = List.map (fun (name, run) -> ("detectors." ^ name, run)) detectors

(* Work counts gathered alongside the spans. *)
type counts = {
  mutable tokens : int;
  mutable recovery_diags : int;
  mutable bodies : int;
  mutable mir_stmts : int;
  mutable findings : int;
  mutable memo_hits : int;
}

let counts =
  { tokens = 0; recovery_diags = 0; bodies = 0; mir_stmts = 0; findings = 0; memo_hits = 0 }

let count_ir prog =
  List.iter
    (fun (b : Rustudy.Mir.body) ->
      counts.bodies <- counts.bodies + 1;
      Array.iter
        (fun (blk : Rustudy.Mir.block) ->
          counts.mir_stmts <- counts.mir_stmts + List.length blk.Rustudy.Mir.stmts)
        b.Rustudy.Mir.blocks)
    (Rustudy.Mir.body_list prog)

(* The per-body analyses and the call graph that the detectors compute
   for every body anyway, through the context's memo accessors, so the
   detectors that follow reuse them. Liveness ([Cache.storage]) is
   computed lazily, for the bodies a detector needs, so it is timed
   standalone in [aux] instead. *)
let analyses ~id ctx =
  let bodies = Rustudy.Mir.body_list (Cache.program ctx) in
  S.span ~id "analysis.alias" (fun () ->
      List.iter (fun b -> ignore (Cache.aliases ctx b)) bodies);
  S.span ~id "analysis.pointsto" (fun () ->
      List.iter (fun b -> ignore (Cache.pointsto ctx b)) bodies);
  S.span ~id "analysis.callgraph" (fun () -> ignore (Cache.callgraph ctx));
  S.span ~id "analysis.scc" (fun () -> ignore (Rustudy.Summary.condensation ctx))

let run_detectors ~id ctx =
  let fs =
    List.concat_map
      (fun (span, run) -> S.span ~id span (fun () -> run ctx))
      detector_spans
  in
  counts.findings <- counts.findings + List.length fs;
  fs

let after_detectors ctx =
  counts.memo_hits <- counts.memo_hits + (Cache.stats ctx).Cache.hits

(* Layer work the pipeline does inside another layer, timed by a
   standalone call on the same input, outside the operation's root
   span: the lexer (run again inside the parser), liveness over every
   body (on a fresh context; the detectors compute it lazily), the
   content digest (run inside the summary engine when the store is
   engaged) and the replay use-after-free summary fixpoint. *)
let aux ~id ~file src ctx =
  S.span ~id "syntax.lex" (fun () ->
      let b = Rustudy.Lexer.lex ~recover:(Rustudy.Diag.collector ()) ~file src in
      counts.tokens <- counts.tokens + b.Rustudy.Lexer.n_toks);
  let bodies = Rustudy.Mir.body_list (Cache.program ctx) in
  let fresh = Cache.create (Cache.program ctx) in
  S.span ~id "analysis.storage" (fun () ->
      List.iter (fun b -> ignore (Cache.storage fresh b)) bodies);
  if List.length bodies >= Rustudy.Summary.store_min_bodies () then
    S.span ~id "analysis.digest" (fun () ->
        List.iter (fun b -> ignore (Rustudy.Summary.body_digest b)) bodies);
  S.span ~id "analysis.uaf_summaries" (fun () ->
      ignore (Detectors.Uaf.compute_summaries ctx))

(* ---------------- setup --------------------------------------------- *)

let setup () =
  let n =
    List.fold_left
      (fun acc (e : Rustudy.Corpus.entry) -> acc + String.length e.Rustudy.Corpus.source)
      0 Rustudy.Corpus.all_bugs
  in
  let t = List.length Rustudy.Corpus.Detector_targets.all in
  Printf.printf "ready %d %d %d\n%!" (List.length Rustudy.Corpus.all_bugs) t n

(* ---------------- check_scale inputs -------------------------------- *)

let gen_check seed dir =
  let progs = Gen.check_set ~seed in
  let labels =
    List.map
      (fun (p : Gen.program) ->
        let file = Filename.concat dir (p.Gen.name ^ ".rs") in
        write_file file p.Gen.source;
        J.Obj
          [
            ("name", str p.Gen.name);
            ("file", str file);
            ("shape", str (Gen.shape_name p.Gen.spec.Gen.shape));
            ("functions", int p.Gen.spec.Gen.n);
            ("label", str (Gen.label_name p.Gen.spec.Gen.label));
            ("tag", match Gen.label_tag p.Gen.spec.Gen.label with Some t -> str t | None -> J.Null);
            ("site", str p.Gen.site);
          ])
      progs
  in
  write_file (Filename.concat dir "labels.json") (J.to_string (J.List labels))

(* ---------------- traced check_scale -------------------------------- *)

(* [rustudy check FILE], as [Server.Handlers.check] runs it without
   [--keep-going], one layer call at a time. *)
let check_decomposed ~file src =
  let ctx, out =
    S.span ~id:file "op" (fun () ->
        let crate =
          S.span ~id:file "syntax.parse" (fun () -> Rustudy.Parser.parse_crate ~file src)
        in
        let env = S.span ~id:file "sema.typeck" (fun () -> Rustudy.Env.of_crate crate) in
        let prog = S.span ~id:file "ir.lower" (fun () -> Rustudy.Lower.lower_crate env) in
        let ctx = Cache.create prog in
        analyses ~id:file ctx;
        let findings = run_detectors ~id:file ctx in
        let out =
          S.span ~id:file "render" (fun () ->
              match findings with
              | [] -> "no issues found\n"
              | fs ->
                  String.concat ""
                    (List.map (fun f -> Rustudy.Finding.to_string f ^ "\n") fs))
        in
        (ctx, out))
  in
  count_ir (Cache.program ctx);
  after_detectors ctx;
  aux ~id:file ~file src ctx;
  out

(* Result fields shared by every traced subcommand: the layer table
   (self ms per operation), residue and overhead. *)
let layer_fields ~ops ~untraced_ns =
  let per_op name = ms_of_ns (S.self_ns name) /. ops in
  let op_whole = S.whole_ns "op" in
  let layers =
    Hashtbl.fold (fun name (t : S.total) acc -> (name, t) :: acc) S.totals []
    |> List.sort compare
    |> List.map (fun (name, (t : S.total)) ->
           ( name,
             J.Obj
               [
                 ("self_ms_per_op", num (ms_of_ns (float_of_int t.S.self_ns) /. ops));
                 ("calls", int t.S.calls);
               ] ))
  in
  let lex_s = S.self_ns "syntax.lex" /. 1e9 in
  ( [
      ("syntax.lex_ms", num (per_op "syntax.lex"));
      ("syntax.parse_ms", num (per_op "syntax.parse"));
      ( "syntax.tokens_per_s",
        num (if lex_s > 0. then float_of_int counts.tokens /. lex_s else 0.) );
      ("syntax.recovery_diags", num (float_of_int counts.recovery_diags /. ops));
      ("sema.typeck_ms", num (per_op "sema.typeck"));
      ("ir.lower_ms", num (per_op "ir.lower"));
      ("ir.bodies", num (float_of_int counts.bodies /. ops));
      ("ir.mir_stmts", num (float_of_int counts.mir_stmts /. ops));
      ("analysis.alias_ms", num (per_op "analysis.alias"));
      ("analysis.pointsto_ms", num (per_op "analysis.pointsto"));
      ("analysis.storage_ms", num (per_op "analysis.storage"));
      ("analysis.callgraph_ms", num (per_op "analysis.callgraph"));
      ("analysis.scc_ms", num (per_op "analysis.scc"));
      ("analysis.digest_ms", num (per_op "analysis.digest"));
      ("analysis.uaf_summaries_ms", num (per_op "analysis.uaf_summaries"));
      ("analysis.memo_hits", num (float_of_int counts.memo_hits /. ops));
    ]
    @ List.map
        (fun d -> ("detectors." ^ d ^ "_ms", num (per_op ("detectors." ^ d))))
        detector_names
    @ [
        ("detectors.findings", num (float_of_int counts.findings /. ops));
        ("study.classify_ms", num (per_op "study.classify"));
        ("study.tables_ms", num (per_op "study.tables"));
        ("study.detector_eval_ms", num (per_op "study.detector_eval"));
        ("interp.oracle_ms", num (per_op "interp.oracle"));
        ( "trace.residue_share",
          num (if op_whole > 0. then S.self_ns "op" /. op_whole else 0.) );
        ( "trace.overhead_share",
          num (if untraced_ns > 0. then (op_whole -. untraced_ns) /. untraced_ns else 0.) );
      ],
    layers )

let store_ratio (h0, m0) (h1, m1) =
  let h = h1 - h0 and m = m1 - m0 in
  [
    ( "analysis.summary_store_hit_ratio",
      num (if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)) );
    ("analysis.summary_store_lookups", int (h + m));
  ]

let program_ratio (h0, m0) (h1, m1) =
  let h = h1 - h0 and m = m1 - m0 in
  ( "analysis.program_cache_hit_ratio",
    num (if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)) )

let check_traced dir seconds out_path =
  let labels = to_list (J.parse (read_file (Filename.concat dir "labels.json"))) in
  let files =
    List.map (fun l -> (to_str (member "file" l), read_file (to_str (member "file" l)))) labels
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let untraced_ns = ref 0. and ops = ref 0 and mismatches = ref [] in
  let outs = Hashtbl.create 32 in
  let store0 = Cache.summary_cache_counts () in
  let prog0 = Cache.program_cache_counts () in
  let g0 = gc_mark () in
  let round = ref 0 in
  (* whole rounds over the set, at least one; untraced and traced
     alternate which goes first from round to round *)
  while !round = 0 || Unix.gettimeofday () < deadline do
    List.iter
      (fun (file, src) ->
        let untraced () =
          fresh_caches ();
          Gc.compact ();
          let t0 = S.now () in
          let o = Server.Handlers.check ~file ~source:src () in
          untraced_ns := !untraced_ns +. float_of_int (S.now () - t0);
          o
        in
        let traced () =
          fresh_caches ();
          Gc.compact ();
          S.on := true;
          let o = check_decomposed ~file src in
          S.on := false;
          o
        in
        let u, t =
          if !round mod 2 = 0 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t)
        in
        incr ops;
        if u.Server.Proto.out <> t then mismatches := file :: !mismatches;
        if not (Hashtbl.mem outs file) then Hashtbl.replace outs file u)
      files;
    incr round
  done;
  let g1 = gc_mark () in
  let ops_f = float_of_int !ops in
  let metrics, layers = layer_fields ~ops:ops_f ~untraced_ns:!untraced_ns in
  let spans_path = out_path ^ ".spans.jsonl" in
  S.write spans_path;
  let result =
    J.Obj
      [
        ( "metrics",
          J.Obj
            (metrics
            @ store_ratio store0 (Cache.summary_cache_counts ())
            @ [ program_ratio prog0 (Cache.program_cache_counts ()) ]
            @ gc_fields ~ops:(2. *. ops_f) g0 g1) );
        ("layers", J.Obj layers);
        ("ops", int !ops);
        ("rounds", int !round);
        ("untraced_ms_per_op", num (ms_of_ns !untraced_ns /. ops_f));
        ("mismatches", J.List (List.map str !mismatches));
        ( "outputs",
          J.List
            (List.map
               (fun (file, _) ->
                 let o = Hashtbl.find outs file in
                 J.Obj
                   [
                     ("file", str file);
                     ("out", str o.Server.Proto.out);
                     ("err", str o.Server.Proto.err);
                     ("exit", int o.Server.Proto.exit_code);
                   ])
               files) );
        ("spans", str spans_path);
        ("spans_kept", int !S.n);
        ("spans_not_kept", int !S.dropped);
      ]
  in
  write_file out_path (J.to_string result)

(* ---------------- corpus_sweep -------------------------------------- *)

let corpus_entries () =
  List.map
    (fun (e : Rustudy.Corpus.entry) -> (e.Rustudy.Corpus.id, e.Rustudy.Corpus.source))
    Rustudy.Corpus.all_bugs

(* The oracle sweep's mutant targets, as [Oracle_eval] derives them. *)
let mutant_targets () =
  List.concat_map
    (fun (e : Rustudy.Corpus.entry) ->
      let tag (name, src) = (e.Rustudy.Corpus.id ^ "+" ^ name, src) in
      List.map tag (Rustudy.Fault.mutations ~seed:0x5EED e.Rustudy.Corpus.source)
      @ List.map tag (Rustudy.Fault.trap_mutations ~seed:0x5EED e.Rustudy.Corpus.source))
    Rustudy.Corpus.all_bugs

(* Load through the recovering frontend, one layer call at a time, as
   [Cache.load_ctx_recovering ~cache:false] does. *)
let load_decomposed ~id ~file src =
  let crate, diags =
    S.span ~id "syntax.parse" (fun () -> Rustudy.Parser.parse_crate_recovering ~file src)
  in
  counts.recovery_diags <- counts.recovery_diags + List.length diags;
  let env = S.span ~id "sema.typeck" (fun () -> Rustudy.Env.of_crate crate) in
  let prog = S.span ~id "ir.lower" (fun () -> Rustudy.Lower.lower_crate env) in
  let ctx = Cache.create ~diags prog in
  count_ir prog;
  analyses ~id ctx;
  ctx

(* One operation under its root span, then the standalone layer calls
   on the same input ([aux]), outside the root. *)
let op ~id ~file src f =
  let r, ctx = S.span ~id "op" f in
  Option.iter (aux ~id ~file src) ctx;
  r

(* [Study.Classify.analyze_entry_result_plain], decomposed. *)
let classify_decomposed (entry : Rustudy.Corpus.entry) =
  let id = entry.Rustudy.Corpus.id in
  let file = id ^ ".rs" in
  op ~id ~file entry.Rustudy.Corpus.source (fun () ->
      match load_decomposed ~id ~file entry.Rustudy.Corpus.source with
      | exception _ -> (None, None)
      | ctx -> (
          match run_detectors ~id ctx with
          | exception _ -> (None, Some ctx)
          | findings ->
              after_detectors ctx;
              let a =
                S.span ~id "study.classify" (fun () ->
                    let program = Cache.program ctx in
                    let effect_unsafe, effect_interior =
                      Rustudy.Classify.effect_location program entry findings
                    in
                    {
                      Rustudy.Classify.entry;
                      program;
                      findings;
                      effect_unsafe;
                      effect_interior;
                      primitive = Rustudy.Classify.detect_primitive program;
                      sharing = Rustudy.Classify.detect_sharing program;
                    })
              in
              (Some a, Some ctx)))

type verdicts = (bool * Rustudy.Oracle.verdict) list

(* [Study.Oracle_eval.run], decomposed: per target the same budget
   scope, the recovering load, the detectors and the interpreter. *)
let oracle_decomposed ~seed ~mutants : Rustudy.Oracle_eval.result =
  let corpus = corpus_entries () in
  let mutant_list = if mutants then mutant_targets () else [] in
  let targets = corpus @ mutant_list in
  let one (id, source) : (verdicts, string) result =
    let finally () =
      Rustudy.Deadline.reset ();
      Rustudy.Fuel.reset_domain ()
    in
    Fun.protect ~finally (fun () ->
        Rustudy.Fuel.with_domain_budget Rustudy.Fuel.default_budget (fun () ->
            op ~id ~file:(id ^ ".rs") source (fun () ->
                match load_decomposed ~id ~file:(id ^ ".rs") source with
                | exception e -> (Error (Printexc.to_string e), None)
                | ctx -> (
                    try
                      let findings = run_detectors ~id ctx in
                      after_detectors ctx;
                      let o =
                        S.span ~id "interp.oracle" (fun () ->
                            Rustudy.Oracle.run ~seed (Cache.program ctx))
                      in
                      ( Ok
                          (List.map
                             (fun (c, v) ->
                               let kind = Rustudy.Oracle_eval.kind_of_class c in
                               ( List.exists
                                   (fun (f : Rustudy.Finding.finding) ->
                                     f.Rustudy.Finding.kind = kind)
                                   findings,
                                 v ))
                             o.Rustudy.Oracle.verdicts),
                        Some ctx )
                    with e -> (Error (Printexc.to_string e), Some ctx)))))
  in
  let verdicts = List.map one targets in
  let zero =
    { Rustudy.Oracle_eval.agree_pos = 0; agree_neg = 0; static_only = 0; dynamic_only = 0; inconclusive = 0 }
  in
  let rows = List.map (fun c -> (c, ref zero)) Rustudy.Machine.all_classes in
  let degraded = ref [] in
  List.iter2
    (fun (id, _) v ->
      match v with
      | Error _ -> degraded := id :: !degraded
      | Ok per_class ->
          List.iter2
            (fun (_, (r : Rustudy.Oracle_eval.row ref)) (fired, verdict) ->
              let x = !r in
              r :=
                match (verdict : Rustudy.Oracle.verdict) with
                | Rustudy.Oracle.Trap _ when fired -> { x with agree_pos = x.agree_pos + 1 }
                | Rustudy.Oracle.Trap _ -> { x with dynamic_only = x.dynamic_only + 1 }
                | Rustudy.Oracle.Clean when fired -> { x with static_only = x.static_only + 1 }
                | Rustudy.Oracle.Clean -> { x with agree_neg = x.agree_neg + 1 }
                | Rustudy.Oracle.Inconclusive _ -> { x with inconclusive = x.inconclusive + 1 })
            rows per_class)
    targets verdicts;
  {
    Rustudy.Oracle_eval.rows =
      List.map (fun (c, r) -> (Rustudy.Machine.class_name c, !r)) rows;
    programs = List.length corpus;
    mutants = List.length mutant_list;
    degraded = List.rev !degraded;
    escaped = 0;
  }

(* One pass of the study pipeline, as [Rustudy.study_report_results]
   and [Oracle_eval.run ~mutants:true] run it, one layer call at a
   time. Returns the report and the mutant sweep's result. *)
let pass_decomposed ~seed =
  fresh_caches ();
  let analyses = List.filter_map classify_decomposed Rustudy.Corpus.all_bugs in
  let pass_op name f = S.span ~id:"pass" "op" (fun () -> S.span name f) in
  let tables =
    pass_op "study.tables" (fun () ->
        Rustudy.Tables.
          [
            table1 analyses;
            table2 analyses;
            table3 analyses;
            table4 analyses;
            fix_strategies analyses;
            unsafe_stats ();
          ]
        @ Rustudy.Figures.[ figure1 (); figure2 () ])
  in
  let dev =
    pass_op "study.detector_eval" (fun () ->
        Rustudy.Detector_eval.render (Rustudy.Detector_eval.run ~domains:1 ()))
  in
  let oracle =
    Rustudy.Oracle_eval.render
      (oracle_decomposed ~seed:Rustudy.Oracle.default_seed ~mutants:false)
  in
  let report = String.concat "\n" (tables @ [ dev; oracle ]) in
  (report, oracle_decomposed ~seed ~mutants:true)

(* The untraced pass: the real pipeline. *)
let pass_real ~seed =
  fresh_caches ();
  let report, results = Rustudy.study_report_results ~domains:1 () in
  let mut = Rustudy.Oracle_eval.run ~domains:1 ~mutants:true ~seed () in
  (report, results, mut)

(* §7: the detector evaluation block of the report must read UAF 4
   bugs + 3 false positives and double-lock 6 + 0. *)
let section7_ok report =
  let marker = "Detector evaluation" in
  let rec find i =
    if i + String.length marker > String.length report then None
    else if String.sub report i (String.length marker) = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some i ->
      let block = String.sub report i (String.length report - i) in
      let rows =
        String.split_on_char '\n' block
        |> List.map (fun l -> String.split_on_char ' ' l |> List.filter (( <> ) ""))
      in
      List.mem [ "use-after-free"; "4"; "3" ] rows && List.mem [ "double-lock"; "6"; "0" ] rows

let sweep seed seconds trace out_path =
  let entries =
    List.length Rustudy.Corpus.all_bugs + List.length (mutant_targets ())
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let passes = ref [] and failed = ref 0 and attempted = ref 0 in
  let first_report = ref None and checks = ref [] in
  let fail what = incr failed; checks := what :: !checks in
  let store0 = Cache.summary_cache_counts () and prog0 = Cache.program_cache_counts () in
  let untraced_ns = ref 0. and traced_passes = ref 0 in
  let decisive = ref 0. and inconclusive = ref 0. in
  let g0 = gc_mark () in
  let check_report report =
    (match !first_report with
    | None -> first_report := Some report
    | Some r -> if r <> report then fail "report differs between passes");
    if not (section7_ok report) then fail "section 7 counts differ from 4+3 / 6+0"
  in
  let check_mutants (m : Rustudy.Oracle_eval.result) =
    attempted := !attempted + m.programs + m.mutants;
    failed := !failed + m.escaped + List.length m.degraded;
    if m.escaped > 0 then checks := "oracle: escaped exceptions" :: !checks;
    if m.degraded <> [] then checks := "oracle: targets failed to load" :: !checks;
    let dec, inc =
      List.fold_left
        (fun (d, i) (_, (r : Rustudy.Oracle_eval.row)) ->
          ( d + r.agree_pos + r.agree_neg + r.static_only + r.dynamic_only,
            i + r.inconclusive ))
        (0, 0) m.rows
    in
    decisive := float_of_int dec /. float_of_int (dec + inc);
    inconclusive := float_of_int inc
  in
  let real () =
    Gc.compact ();
    let t0 = S.now () in
    let report, results, mut = pass_real ~seed in
    let dt = float_of_int (S.now () - t0) in
    untraced_ns := !untraced_ns +. dt;
    passes := (dt /. 1e9) :: !passes;
    attempted := !attempted + List.length results + 1;
    List.iter
      (fun (_, o) ->
        match Rustudy.Classify.outcome_analysis o with
        | Some _ -> ()
        | None -> fail "study: entry failed")
      results;
    check_report report;
    check_mutants mut;
    (report, mut)
  in
  let traced () =
    Gc.compact ();
    S.on := true;
    let report, mut = pass_decomposed ~seed in
    S.on := false;
    incr traced_passes;
    (report, mut)
  in
  (* with tracing, real and decomposed passes alternate (and alternate
     which goes first); both must print the same bytes *)
  let k = ref 0 in
  while !k = 0 || Unix.gettimeofday () < deadline do
    (if trace then begin
       let (r1, m1), (r2, m2) =
         if !k mod 2 = 0 then
           let a = real () in
           (a, traced ())
         else
           let b = traced () in
           (real (), b)
       in
       if r1 <> r2 then fail "decomposed report differs from the real one";
       if Rustudy.Oracle_eval.render m1 <> Rustudy.Oracle_eval.render m2 then
         fail "decomposed mutant sweep differs from the real one"
     end
     else ignore (real ()));
    incr k
  done;
  let g1 = gc_mark () in
  let walls = List.rev !passes in
  let n_passes = List.length walls in
  let base =
    [
      ("entries_per_pass", int entries);
      ("pass_s", J.List (List.map num walls));
      ("attempted", int !attempted);
      ("failed", int !failed);
      ("checks_failed", J.List (List.map str (List.rev !checks)));
      ("report_md5", str (digest (Option.value !first_report ~default:"")));
    ]
  in
  let extra =
    if not trace then []
    else begin
      let ops = float_of_int !traced_passes in
      let metrics, layers =
        layer_fields ~ops ~untraced_ns:(!untraced_ns *. ops /. float_of_int n_passes)
      in
      let spans_path = out_path ^ ".spans.jsonl" in
      S.write spans_path;
      [
        ( "metrics",
          J.Obj
            (metrics
            @ store_ratio store0 (Cache.summary_cache_counts ())
            @ [
                program_ratio prog0 (Cache.program_cache_counts ());
                ("interp.decisive_ratio", num !decisive);
                ("interp.inconclusive", num !inconclusive);
              ]
            @ gc_fields ~ops:(float_of_int (entries * (n_passes + !traced_passes))) g0 g1) );
        ("layers", J.Obj layers);
        ("traced_passes", int !traced_passes);
        ("spans", str spans_path);
        ("spans_kept", int !S.n);
        ("spans_not_kept", int !S.dropped);
      ]
    end
  in
  write_file out_path (J.to_string (J.Obj (base @ extra)))

(* ---------------- serve_mixed --------------------------------------- *)

(* The request sequence. Kinds and their shares: [admin] inline stats
   ops (5%); [large] the six 100–300-function generated files in turn,
   each resubmitted with a one-function edit (summary-store reads for
   the unedited functions) (2%); [budget] corpus sources carrying
   [deadline_ms], which bypass the program cache (15%); [new] corpus
   sources under a new name (28%); [repeat] an earlier unbudgeted
   (file, source) pair resubmitted (the rest). Every non-admin request
   carries the outcome an in-process [Server.Handlers.check] of the
   same input gives, budget included. *)
let budget_ms = 10_000

let serve_plan seed count out_path =
  let r = Rustudy.Fault.rng (seed lxor 0x5E4E) in
  let sources =
    Array.of_list
      (List.map (fun (e : Rustudy.Corpus.entry) -> (e.Rustudy.Corpus.id, e.Rustudy.Corpus.source))
         Rustudy.Corpus.all_bugs
      @ List.map
          (fun (t : Rustudy.Corpus.Detector_targets.target) ->
            (t.Rustudy.Corpus.Detector_targets.t_id, t.Rustudy.Corpus.Detector_targets.t_source))
          Rustudy.Corpus.Detector_targets.all)
  in
  let larges = Gen.served_larges ~seed in
  let large_edits = Array.make (Array.length larges) 0 and next_large = ref 0 in
  let submitted = ref [||] and n_sub = ref 0 in
  let remember fs =
    if !n_sub = Array.length !submitted then begin
      let b = Array.make (max 64 (2 * !n_sub)) fs in
      Array.blit !submitted 0 b 0 !n_sub;
      submitted := b
    end;
    !submitted.(!n_sub) <- fs;
    incr n_sub
  in
  let expect ?deadline_ms ~file source =
    let run () = Server.Handlers.check ~file ~source ~keep_going:true () in
    let o =
      match deadline_ms with
      | Some ms -> Rustudy.Deadline.with_deadline_ms ms run
      | None -> run ()
    in
    [
      ("out", str o.Server.Proto.out);
      ("err", str o.Server.Proto.err);
      ("exit", int o.Server.Proto.exit_code);
    ]
  in
  let req i =
    let x = Rustudy.Fault.next_int r 100 in
    let fresh_name id = Printf.sprintf "req%05d/%s.rs" i id in
    let check kind ?deadline_ms file source =
      J.Obj
        ([ ("kind", str kind); ("file", str file); ("source", str source) ]
        @ (match deadline_ms with Some ms -> [ ("deadline_ms", int ms) ] | None -> [])
        @ expect ?deadline_ms ~file source)
    in
    if x < 5 then J.Obj [ ("kind", str "admin") ]
    else if x < 7 then begin
      let j = !next_large mod Array.length larges in
      incr next_large;
      large_edits.(j) <- large_edits.(j) + 1;
      let p = Gen.generate ~variant:(9 + (large_edits.(j) mod 240)) larges.(j) in
      check "large" (Printf.sprintf "large%d/%s.rs" j p.Gen.name) p.Gen.source
    end
    else if x < 22 then
      let id, src = sources.(Rustudy.Fault.next_int r (Array.length sources)) in
      check "budget" ~deadline_ms:budget_ms (fresh_name id) src
    else if x < 50 || !n_sub = 0 then begin
      let id, src = sources.(Rustudy.Fault.next_int r (Array.length sources)) in
      let file = fresh_name id in
      remember (file, src);
      check "new" file src
    end
    else
      let file, src = !submitted.(Rustudy.Fault.next_int r !n_sub) in
      check "repeat" file src
  in
  fresh_caches ();
  let reqs = List.init count req in
  write_file out_path (J.to_string (J.List reqs))

(* The in-process half of the traced serve run: the plan replayed in
   order through [Server.Handlers.check], as the daemon's workers run
   it, from empty caches; untraced and traced replays alternate. For
   the large generated files the summary-engine layers are also timed
   standalone, outside the root spans. *)
let serve_traced plan_path out_path =
  let plan =
    to_list (J.parse (read_file plan_path))
    |> List.filter (fun j -> to_str (member "kind" j) <> "admin")
    |> List.map (fun j ->
           ( to_str (member "kind" j),
             to_str (member "file" j),
             to_str (member "source" j),
             Option.map to_int (J.member "deadline_ms" j),
             to_str (member "out" j) ))
  in
  let ops = float_of_int (List.length plan) in
  let mismatches = ref 0 in
  let replay traced =
    fresh_caches ();
    Gc.compact ();
    let store0 = Cache.summary_cache_counts () and prog0 = Cache.program_cache_counts () in
    let g0 = gc_mark () in
    let wall = ref 0. in
    S.on := traced;
    List.iter
      (fun (kind, file, source, deadline_ms, expected) ->
        let t0 = S.now () in
        let o =
          S.span ~id:file "op" (fun () ->
              S.span ~id:file "server.handler" (fun () ->
                  let run () = Server.Handlers.check ~file ~source ~keep_going:true () in
                  match deadline_ms with
                  | Some ms -> Rustudy.Deadline.with_deadline_ms ms run
                  | None -> run ()))
        in
        wall := !wall +. float_of_int (S.now () - t0);
        if o.Server.Proto.out <> expected then incr mismatches;
        if traced && kind = "large" then
          match Cache.load_ctx_recovering ~cache:false ~file source with
          | Ok ctx ->
              S.span ~id:file "analysis.scc" (fun () ->
                  ignore (Rustudy.Summary.condensation ctx));
              aux ~id:file ~file source ctx
          | Error _ -> ())
      plan;
    S.on := false;
    let g1 = gc_mark () in
    let fields =
      store_ratio store0 (Cache.summary_cache_counts ())
      @ [ program_ratio prog0 (Cache.program_cache_counts ()) ]
      @ gc_fields ~ops g0 g1
    in
    (* memo reuse inside the contexts the program cache kept *)
    let hits = ref 0 and seen = Hashtbl.create 64 in
    List.iter
      (fun (_, file, source, deadline_ms, _) ->
        if deadline_ms = None && not (Hashtbl.mem seen (file, source)) then begin
          Hashtbl.replace seen (file, source) ();
          if Cache.mem_program ~file source then
            match Cache.load_ctx_recovering ~file source with
            | Ok ctx -> hits := !hits + (Cache.stats ctx).Cache.hits
            | Error _ -> ()
        end)
      plan;
    (!wall, ("analysis.memo_hits", num (float_of_int !hits /. ops)) :: fields)
  in
  let u1, _ = replay false in
  let t1, fields = replay true in
  let t2, _ = replay true in
  let u2, _ = replay false in
  let untraced = u1 +. u2 and traced = t1 +. t2 in
  let per_op name = ms_of_ns (S.self_ns name) /. (2. *. ops) in
  let lex_s = S.self_ns "syntax.lex" /. 1e9 in
  let spans_path = out_path ^ ".spans.jsonl" in
  S.write spans_path;
  write_file out_path
    (J.to_string
       (J.Obj
          [
            ( "metrics",
              J.Obj
                (fields
                @ [
                    ("server.handler_ms", num (per_op "server.handler"));
                    ("syntax.lex_ms", num (per_op "syntax.lex"));
                    ( "syntax.tokens_per_s",
                      num (if lex_s > 0. then float_of_int counts.tokens /. lex_s else 0.) );
                    ("analysis.scc_ms", num (per_op "analysis.scc"));
                    ("analysis.storage_ms", num (per_op "analysis.storage"));
                    ("analysis.digest_ms", num (per_op "analysis.digest"));
                    ("analysis.uaf_summaries_ms", num (per_op "analysis.uaf_summaries"));
                    ("trace.residue_share", num (S.self_ns "op" /. S.whole_ns "op"));
                    ("trace.overhead_share", num ((traced -. untraced) /. untraced));
                  ]) );
            ("requests", int (List.length plan));
            ("mismatches", int !mismatches);
            ("untraced_ms_per_op", num (ms_of_ns untraced /. (2. *. ops)));
            ("spans", str spans_path);
            ("spans_kept", int !S.n);
            ("spans_not_kept", int !S.dropped);
          ]))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "setup" ] -> setup ()
  | [ "gen-check"; seed; dir ] -> gen_check (int_of_string seed) dir
  | [ "serve-plan"; seed; count; out ] ->
      serve_plan (int_of_string seed) (int_of_string count) out
  | [ "sweep"; seed; seconds; trace; out ] ->
      sweep (int_of_string seed) (float_of_string seconds) (trace = "1") out
  | [ "check-traced"; dir; seconds; out ] -> check_traced dir (float_of_string seconds) out
  | [ "serve-traced"; plan; out ] -> serve_traced plan out
  | _ ->
      prerr_endline
        "usage: probe setup | gen-check SEED DIR | serve-plan SEED COUNT OUT\n\
        \       | sweep SEED SECONDS TRACE OUT | check-traced DIR SECONDS OUT\n\
        \       | serve-traced PLAN OUT";
      exit 2
