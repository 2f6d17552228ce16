(* Benchmark harness: one Bechamel test per paper table/figure, the two
   headline detectors, the §4.1 safe-vs-unsafe microbenchmarks, the
   three design-choice ablations from DESIGN.md, and the analysis-cache
   corpus timings (cached vs uncached, sequential vs parallel).

   Run with: dune exec bench/main.exe [-- FLAGS]
   --json            additionally writes BENCH_results.json in the cwd
   --replicate N     also time sequential vs parallel over N corpus
                     copies (distinct file keys; >= 2 domains, chunked)
   --compare FILE    print a per-benchmark speedup table against the
                     ns_per_run section of a previous --json output and
                     exit non-zero on a >25%% regression in a gated row
                     (the prefixes in [gated_prefixes]: detectors/,
                     frontend/, server/, interproc/ and oracle/)
   --quick           smoke mode for dune runtest: tiny quota, detector
                     group + one cached corpus pass only *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Shared fixtures (built once, outside the timed regions)             *)
(* ------------------------------------------------------------------ *)

let analyses = lazy (Rustudy.analyze_corpus ())

(* One evaluation shared by the recall summary and anything else that
   needs the *result* (the timed bench below necessarily re-runs it). *)
let eval_result = lazy (Rustudy.Detector_eval.run ())

let corpus_programs =
  lazy
    (List.map
       (fun (e : Corpus.entry) ->
         Rustudy.load ~file:(e.Corpus.id ^ ".rs") e.Corpus.source)
       Corpus.all_bugs)

let double_lock_sources =
  lazy
    (List.filter_map
       (fun (e : Corpus.entry) ->
         if List.mem Rustudy.Finding.Double_lock e.Corpus.expected then
           Some e.Corpus.source
         else None)
       Corpus.Blocking_bugs.all)

let representative_entry = lazy (List.hd Corpus.Mem_bugs.all)

(* Every corpus entry corrupted by every deterministic mutator: the
   fault-injection workload (same seed as the test suite). *)
let fault_seed = 0x5EED

let mutated_corpus =
  lazy
    (List.concat_map
       (fun (e : Corpus.entry) ->
         List.map
           (fun (mname, src) -> (e.Corpus.id ^ "-" ^ mname, src))
           (Rustudy.Fault.mutations ~seed:fault_seed e.Corpus.source))
       Corpus.all_bugs)

let clean_corpus =
  lazy
    (List.map
       (fun (e : Corpus.entry) -> (e.Corpus.id, e.Corpus.source))
       Corpus.all_bugs)

(* ------------------------------------------------------------------ *)
(* Table and figure regeneration benches                               *)
(* ------------------------------------------------------------------ *)

let table_tests =
  [
    Test.make ~name:"table1" (Staged.stage (fun () ->
        Rustudy.Tables.table1 (Lazy.force analyses)));
    Test.make ~name:"table2" (Staged.stage (fun () ->
        Rustudy.Tables.table2 (Lazy.force analyses)));
    Test.make ~name:"table3" (Staged.stage (fun () ->
        Rustudy.Tables.table3 (Lazy.force analyses)));
    Test.make ~name:"table4" (Staged.stage (fun () ->
        Rustudy.Tables.table4 (Lazy.force analyses)));
    Test.make ~name:"fixes" (Staged.stage (fun () ->
        Rustudy.Tables.fix_strategies (Lazy.force analyses)));
    Test.make ~name:"unsafe_scan" (Staged.stage (fun () ->
        Rustudy.Tables.unsafe_stats ()));
    Test.make ~name:"figure1" (Staged.stage (fun () -> Rustudy.Figures.figure1 ()));
    Test.make ~name:"figure2" (Staged.stage (fun () -> Rustudy.Figures.figure2 ()));
  ]

(* The full classification pipeline on one studied bug: parse, lower,
   detect, classify. *)
let pipeline_tests =
  [
    Test.make ~name:"classify_one_entry" (Staged.stage (fun () ->
        Rustudy.Classify.analyze_entry (Lazy.force representative_entry)));
  ]

(* ------------------------------------------------------------------ *)
(* Detector benches (§7)                                               *)
(* ------------------------------------------------------------------ *)

let detector_tests =
  [
    Test.make ~name:"detector_uaf" (Staged.stage (fun () ->
        List.concat_map Rustudy.detect_use_after_free (Lazy.force corpus_programs)));
    Test.make ~name:"detector_dlock" (Staged.stage (fun () ->
        List.concat_map Rustudy.detect_double_lock (Lazy.force corpus_programs)));
    Test.make ~name:"detector_eval" (Staged.stage (fun () ->
        Rustudy.Detector_eval.run ~domains:1 ()));
  ]

(* ------------------------------------------------------------------ *)
(* §4.1 microbenchmarks: safe vs unsafe access                         *)
(* ------------------------------------------------------------------ *)

(* opaque length so the bounds check cannot be hoisted or elided *)
let n = Sys.opaque_identity 65536
let arr = Array.init n (fun i -> i land 0xff)
let src_bytes = Bytes.make n 'x'
let dst_bytes = Bytes.make n '\000'

(* Bounds-checked access (Array.get): the analogue of safe indexing. *)
let safe_index_sum () =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + arr.(i)
  done;
  !s

(* Unchecked access (Array.unsafe_get): the analogue of get_unchecked. *)
let unsafe_index_sum () =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + Array.unsafe_get arr i
  done;
  !s

(* Per-element copy with bounds checks: safe slice copying. *)
let checked_copy () =
  for i = 0 to n - 1 do
    Bytes.set dst_bytes i (Bytes.get src_bytes i)
  done

(* Block copy: the analogue of ptr::copy_nonoverlapping. *)
let memcpy_copy () = Bytes.blit src_bytes 0 dst_bytes 0 n

let micro_tests =
  [
    Test.make ~name:"safe_vs_unsafe_checked_index" (Staged.stage safe_index_sum);
    Test.make ~name:"safe_vs_unsafe_unchecked_index" (Staged.stage unsafe_index_sum);
    Test.make ~name:"safe_vs_unsafe_checked_copy" (Staged.stage checked_copy);
    Test.make ~name:"safe_vs_unsafe_memcpy" (Staged.stage memcpy_copy);
  ]

(* ------------------------------------------------------------------ *)
(* Interprocedural scaling corpus (seeded synthetic programs)          *)
(* ------------------------------------------------------------------ *)

let scale_seed = 0x5CA1E

(* lowered programs memoised per (shape, size): generation and lowering
   stay outside every timed region *)
let scale_tbl : (string * int, Rustudy.Mir.program) Hashtbl.t =
  Hashtbl.create 8

let scale_program shape n : Rustudy.Mir.program =
  let key = (Scale_gen.shape_name shape, n) in
  match Hashtbl.find_opt scale_tbl key with
  | Some p -> p
  | None ->
      let src = Scale_gen.program ~seed:scale_seed ~shape ~n in
      let p =
        Rustudy.load ~file:(Printf.sprintf "scale_%s_%d.rs" (fst key) n) src
      in
      Hashtbl.add scale_tbl key p;
      p

(* One interprocedural pass: both summary-carrying detectors over a
   fresh analysis context (the per-ctx summary-table memo must not
   carry over between timed runs). *)
let interproc_pass ~mode program =
  let ctx = Rustudy.Cache.create program in
  ignore (Detectors.Double_lock.run_ctx ~mode ctx);
  ignore (Detectors.Uaf.run_ctx ~mode ctx)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)
(* ------------------------------------------------------------------ *)

let lower_and_detect config src =
  Rustudy.detect_double_lock (Rustudy.load ~config ~file:"a.rs" src)

let ablation_tests =
  [
    Test.make ~name:"ablation_tmp_extended" (Staged.stage (fun () ->
        List.concat_map
          (lower_and_detect Ir.Lower.default_config)
          (Lazy.force double_lock_sources)));
    Test.make ~name:"ablation_tmp_statement" (Staged.stage (fun () ->
        List.concat_map
          (lower_and_detect { Ir.Lower.tmp_lifetime = Ir.Lower.Statement_local })
          (Lazy.force double_lock_sources)));
    (* measured on the 1k-function synthetic chain, not the tiny corpus
       programs: there the summary computation was a rounding error and
       on/off sat within measurement noise, which made the row claim
       the interprocedural layer was free *)
    Test.make ~name:"ablation_interproc_on" (Staged.stage (fun () ->
        Detectors.Double_lock.run_ctx ~interprocedural:true
          (Rustudy.Cache.create (scale_program Scale_gen.Chain 1000))));
    Test.make ~name:"ablation_interproc_off" (Staged.stage (fun () ->
        Detectors.Double_lock.run_ctx ~interprocedural:false
          (Rustudy.Cache.create (scale_program Scale_gen.Chain 1000))));
    Test.make ~name:"ablation_extern_assume_on" (Staged.stage (fun () ->
        List.concat_map
          (Detectors.Uaf.run ~assume_extern_derefs:true)
          (Lazy.force corpus_programs)));
    Test.make ~name:"ablation_extern_assume_off" (Staged.stage (fun () ->
        List.concat_map
          (Detectors.Uaf.run ~assume_extern_derefs:false)
          (Lazy.force corpus_programs)));
  ]

(* ------------------------------------------------------------------ *)
(* Observability overhead: detector passes with tracing + metrics on    *)
(* ------------------------------------------------------------------ *)

let uaf_pass () =
  List.concat_map Rustudy.detect_use_after_free (Lazy.force corpus_programs)

let observability_tests =
  [
    Test.make ~name:"uaf_obs_off" (Staged.stage uaf_pass);
    Test.make ~name:"uaf_obs_on"
      (Staged.stage (fun () ->
           Rustudy.Metrics.enable ();
           Rustudy.Trace.enable ();
           Fun.protect
             ~finally:(fun () ->
               Rustudy.Trace.disable ();
               Rustudy.Metrics.disable ())
             uaf_pass));
  ]

(* ------------------------------------------------------------------ *)
(* Degraded-corpus benches: recovery overhead on malformed input       *)
(* ------------------------------------------------------------------ *)

(* Frontend-only timings: raw lexing throughput, the recovering parser
   on pristine sources (its overhead vs the strict parser) and on the
   fault-injected corpus (the cost of panic-mode recovery itself). *)
let lex_clean_pass () =
  List.iter
    (fun (id, src) -> ignore (Rustudy.Lexer.lex ~file:(id ^ ".rs") src))
    (Lazy.force clean_corpus)

let parse_strict_clean_pass () =
  List.iter
    (fun (id, src) -> ignore (Rustudy.parse ~file:(id ^ ".rs") src))
    (Lazy.force clean_corpus)

let parse_recovering_clean_pass () =
  List.iter
    (fun (id, src) -> ignore (Rustudy.parse_recovering ~file:(id ^ ".rs") src))
    (Lazy.force clean_corpus)

let parse_recovering_mutated_pass () =
  List.iter
    (fun (id, src) -> ignore (Rustudy.parse_recovering ~file:(id ^ ".rs") src))
    (Lazy.force mutated_corpus)

let frontend_tests =
  [
    Test.make ~name:"lex_clean" (Staged.stage lex_clean_pass);
    Test.make ~name:"parse_strict_clean" (Staged.stage parse_strict_clean_pass);
    Test.make ~name:"parse_recovering_clean"
      (Staged.stage parse_recovering_clean_pass);
    Test.make ~name:"parse_recovering_mutated"
      (Staged.stage parse_recovering_mutated_pass);
  ]

(* ------------------------------------------------------------------ *)
(* Ablation recall summary (printed alongside the timings)             *)
(* ------------------------------------------------------------------ *)

let recall_summary () =
  let dl_sources = Lazy.force double_lock_sources in
  let count config =
    List.length
      (List.filter (fun src -> lower_and_detect config src <> []) dl_sources)
  in
  let extended = count Ir.Lower.default_config in
  let statement =
    count { Ir.Lower.tmp_lifetime = Ir.Lower.Statement_local }
  in
  let interproc_on =
    List.length
      (List.filter
         (fun p -> Detectors.Double_lock.run ~interprocedural:true p <> [])
         (Lazy.force corpus_programs))
  in
  let interproc_off =
    List.length
      (List.filter
         (fun p -> Detectors.Double_lock.run ~interprocedural:false p <> [])
         (Lazy.force corpus_programs))
  in
  let eval_on = Lazy.force eval_result in
  Printf.printf
    "ablation recall: temporary-lifetime extended=%d/%d statement-local=%d/%d\n"
    extended (List.length dl_sources) statement (List.length dl_sources);
  Printf.printf
    "ablation recall: double-lock interprocedural=%d programs, intraprocedural-only=%d programs\n"
    interproc_on interproc_off;
  Printf.printf
    "detector eval (with extern-deref assumption): UAF %d bugs / %d FPs; double-lock %d bugs / %d FPs\n"
    eval_on.Study.Detector_eval.uaf_bugs
    eval_on.Study.Detector_eval.uaf_false_positives
    eval_on.Study.Detector_eval.dl_bugs
    eval_on.Study.Detector_eval.dl_false_positives

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

(* Runs a bechamel group, prints the estimates, and returns them as
   (name, ns/run) rows so --json can serialise every group. *)
let run_group ?(quota = 0.5) name tests : (string * float) list =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "== %s ==\n" name;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.filter_map
    (fun (test_name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] ->
          if ns > 1_000_000.0 then
            Printf.printf "  %-36s %10.3f ms/run\n" test_name (ns /. 1e6)
          else if ns > 1_000.0 then
            Printf.printf "  %-36s %10.3f us/run\n" test_name (ns /. 1e3)
          else Printf.printf "  %-36s %10.1f ns/run\n" test_name ns;
          Some (test_name, ns)
      | _ ->
          Printf.printf "  %-36s (no estimate)\n" test_name;
          None)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Corpus timings: cached vs uncached, sequential vs parallel          *)
(* ------------------------------------------------------------------ *)

(* Wall time of one call, best of [reps]. *)
let wall ?(reps = 3) f =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  List.fold_left min (once ()) (List.init (reps - 1) (fun _ -> once ()))

(* Quick-mode rows for the frontend group. Gating the smoke run on a
   50 ms bechamel quota proved flaky — one scheduler hiccup threw an
   OLS estimate off by 6x — so the quick run gates on best-of-5 wall
   passes instead, which hold within a few percent run to run. Must be
   called before the other quick phases so the heap is still quiet. *)
let quick_frontend_rows () =
  let rows =
    List.map
      (fun (name, pass) -> ("frontend/" ^ name, wall ~reps:5 pass *. 1e9))
      [
        ("lex_clean", lex_clean_pass);
        ("parse_strict_clean", parse_strict_clean_pass);
        ("parse_recovering_clean", parse_recovering_clean_pass);
        ("parse_recovering_mutated", parse_recovering_mutated_pass);
      ]
  in
  Printf.printf "== frontend (quick, best-of-5 wall) ==\n";
  List.iter
    (fun (name, ns) -> Printf.printf "  %-36s %10.3f ms/pass\n" name (ns /. 1e6))
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Dynamic oracle: interpreter throughput + differential sweep         *)
(* ------------------------------------------------------------------ *)

(* A fuel-bounded tight loop: every run executes exactly [fuel] MIR
   steps, so wall/steps is raw interpreter throughput with no
   program-dependent early exit. *)
let oracle_loop_program =
  lazy
    (Rustudy.load ~file:"oracle_loop.rs"
       "fn main() { let mut i = 0; loop { i = i + 1; } }")

let oracle_interp_fuel = 100_000

let oracle_interp_pass () =
  Rustudy.Oracle.run ~fuel:oracle_interp_fuel ~deadline_ms:60_000 ~schedules:1
    (Lazy.force oracle_loop_program)

(* The differential confusion counters (detectors vs oracle over the
   corpus and every seeded fault mutant) that land in the JSON. *)
let oracle_counters = lazy (Rustudy.Oracle_eval.run ~mutants:true ())

let oracle_total f (r : Rustudy.Oracle_eval.result) =
  List.fold_left (fun acc (_, row) -> acc + f row) 0 r.Rustudy.Oracle_eval.rows

(* Wall-based rows like the quick frontend ones: the sweep is one
   deterministic pass, a bechamel quota would mostly re-measure it. *)
let oracle_rows () =
  let interp_ns = wall ~reps:5 (fun () -> oracle_interp_pass ()) *. 1e9 in
  let steps = (oracle_interp_pass ()).Rustudy.Oracle.steps in
  let sweep_ns =
    wall ~reps:3 (fun () -> Rustudy.Oracle_eval.run ~domains:1 ()) *. 1e9
  in
  Printf.printf "== oracle (budgeted interpreter, best-of-N wall) ==\n";
  Printf.printf "  %-36s %10.3f ms/run  (%.2f Msteps/s)\n" "oracle/interp_loop"
    (interp_ns /. 1e6)
    (float_of_int steps /. interp_ns *. 1e3);
  Printf.printf "  %-36s %10.3f ms/pass\n" "oracle/corpus_sweep"
    (sweep_ns /. 1e6);
  [ ("oracle/interp_loop", interp_ns); ("oracle/corpus_sweep", sweep_ns) ]

let print_oracle_counters () =
  let r = Lazy.force oracle_counters in
  Printf.printf
    "oracle differential: %d programs + %d mutants (%d degraded, %d escaped); \
     agree+=%d agree-=%d static-only=%d dynamic-only=%d inconclusive=%d\n"
    r.Rustudy.Oracle_eval.programs r.Rustudy.Oracle_eval.mutants
    (List.length r.Rustudy.Oracle_eval.degraded)
    r.Rustudy.Oracle_eval.escaped
    (oracle_total (fun w -> w.Rustudy.Oracle_eval.agree_pos) r)
    (oracle_total (fun w -> w.Rustudy.Oracle_eval.agree_neg) r)
    (oracle_total (fun w -> w.Rustudy.Oracle_eval.static_only) r)
    (oracle_total (fun w -> w.Rustudy.Oracle_eval.dynamic_only) r)
    (oracle_total (fun w -> w.Rustudy.Oracle_eval.inconclusive) r)

(* Interprocedural scaling rows (summary engine vs legacy replay), wall
   best-of-N like the quick frontend rows: the big programs make a
   bechamel quota per row needlessly slow, and the wall passes hold
   within a few percent. Row names: interproc/<shape>_<n>_<mode>, in
   ns per pass, each pass on a fresh context. [summary_cold] is the
   summary engine: summaries live only in their context, so there is no
   warm variant. *)
let interproc_rows ~shapes ~sizes () =
  let rows =
    List.concat_map
      (fun shape ->
        List.concat_map
          (fun n ->
            let p = scale_program shape n in
            (* one rep for the big programs: replay on the 10k chain is
               the slow case these rows exist to demonstrate *)
            let reps =
              (* tiny rows are a few ms and wobble on a loaded host;
                 more samples keep them clear of the 25% gate *)
              if n >= 10_000 then 1 else if n <= 100 then 7 else 3
            in
            let row mode_label f =
              ( Printf.sprintf "interproc/%s_%d_%s" (Scale_gen.shape_name shape)
                  n mode_label,
                wall ~reps f *. 1e9 )
            in
            [
              row "replay" (fun () ->
                  interproc_pass ~mode:Rustudy.Summary.Replay p);
              row "summary_cold" (fun () ->
                  interproc_pass ~mode:Rustudy.Summary.Summary p);
            ])
          sizes)
      shapes
  in
  Printf.printf "== interproc (scaling, best-of-N wall) ==\n";
  List.iter
    (fun (name, ns) ->
      Printf.printf "  %-36s %10.3f ms/pass\n" name (ns /. 1e6))
    rows;
  rows

(* The acceptance gates of the summary layer, checked on the full run:
   at >= 1000 functions the engine must be no slower than replay on
   every shape, >= 3x faster on the 10k chain, and its per-function
   cost must stay within 2x from 1k to 10k (i.e. the bottom-up
   schedule scales near-linearly). The 100-function ratios are printed
   but not gated. Returns false (and prints why) on a violation. *)
let interproc_asserts (rows : (string * float) list) : bool =
  let get name = List.assoc_opt ("interproc/" ^ name) rows in
  let ok = ref true in
  List.iter
    (fun shape ->
      List.iter
        (fun n ->
          let base = Printf.sprintf "%s_%d" (Scale_gen.shape_name shape) n in
          match (get (base ^ "_replay"), get (base ^ "_summary_cold")) with
          | Some replay, Some summary ->
              let gated = n >= 1000 in
              Printf.printf
                "  interproc gate: %s summary %.2fx faster than replay%s\n"
                base (replay /. summary)
                (if gated then "" else " (not gated)");
              if gated && summary > replay then begin
                Printf.printf
                  "  FAILED: summary engine slower than replay on %s\n" base;
                ok := false
              end
          | _ -> ())
        [ 100; 1000; 10_000 ])
    [ Scale_gen.Chain; Scale_gen.Diamond; Scale_gen.Scc ];
  (match (get "chain_10000_replay", get "chain_10000_summary_cold") with
  | Some replay, Some summary ->
      let speedup = replay /. summary in
      Printf.printf "  interproc gate: summary %.2fx faster than replay @10k\n"
        speedup;
      if speedup < 3.0 then begin
        Printf.printf
          "  FAILED: summary engine < 3x faster than replay on the 10k chain\n";
        ok := false
      end
  | _ -> ());
  (match (get "chain_1000_summary_cold", get "chain_10000_summary_cold") with
  | Some t1k, Some t10k ->
      let ratio = t10k /. 10_000.0 /. (t1k /. 1_000.0) in
      Printf.printf "  interproc gate: per-function cost 1k->10k = %.2fx\n"
        ratio;
      if ratio > 2.0 then begin
        Printf.printf
          "  FAILED: per-function summary cost grew > 2x from 1k to 10k\n";
        ok := false
      end
  | _ -> ());
  !ok

(* Satellite gate on the repointed ablation rows: on the scaling corpus
   the interprocedural layer has a real, measurable cost, so on/off
   within noise means the row is measuring the wrong thing again. *)
let ablation_divergence_assert (rows : (string * float) list) : bool =
  match
    ( List.assoc_opt "ablations/ablation_interproc_on" rows,
      List.assoc_opt "ablations/ablation_interproc_off" rows )
  with
  | Some on, Some off ->
      let ratio = on /. off in
      Printf.printf
        "  ablation gate: interproc on/off = %.2fx on the 1k chain\n" ratio;
      if ratio < 1.15 then
        Printf.printf
          "  FAILED: ablation_interproc_{on,off} within noise (%.2fx) on the \
           scaling corpus\n"
          ratio;
      ratio >= 1.15
  | _ -> true

(* The pre-cache corpus pass: re-lower every entry from source and let
   every detector recompute its own analyses (each legacy [run] builds
   a private context, so nothing is shared across detectors). *)
let uncached_corpus_pass () =
  List.iter
    (fun (e : Corpus.entry) ->
      let p = Rustudy.load ~file:(e.Corpus.id ^ ".rs") e.Corpus.source in
      ignore (Detectors.Uaf.run p);
      ignore (Detectors.Double_free.run p);
      ignore (Detectors.Invalid_free.run p);
      ignore (Detectors.Uninit.run p);
      ignore (Detectors.Null_deref.run p);
      ignore (Detectors.Buffer.run p);
      ignore (Detectors.Double_lock.run p);
      ignore (Detectors.Lock_order.run p);
      ignore (Detectors.Condvar.run p);
      ignore (Detectors.Channel.run p);
      ignore (Detectors.Once.run p);
      ignore (Detectors.Sync_misuse.run p);
      ignore (Detectors.Atomicity.run p);
      ignore (Detectors.Atomicity.run_with_sessions p);
      ignore (Detectors.Refcell.run p))
    Corpus.all_bugs

(* The cached corpus pass: every entry goes through the program cache
   and one shared analysis context per entry. *)
let cached_corpus_pass () =
  List.iter
    (fun (e : Corpus.entry) ->
      let ctx = Rustudy.load_ctx ~file:(e.Corpus.id ^ ".rs") e.Corpus.source in
      ignore (Rustudy.detect_ctx ctx))
    Corpus.all_bugs

type corpus_timings = {
  uncached_s : float;
  cached_cold_s : float;  (** empty program cache: lower + analyze once *)
  cached_warm_s : float;  (** program cache hit: shared contexts reused *)
  sequential_s : float;
  parallel_s : float;
  parallel_domains : int;
  parallel_identical : bool;
  parallel_skipped : bool;
      (** single-core host: a "parallel" sweep would just measure pool
          overhead, so the pass is skipped and the JSON rows say
          "skipped_single_core" instead of a meaningless speedup *)
  recovery_clean_s : float;
      (** fault-tolerant pipeline over the pristine corpus, cold cache *)
  recovery_mutated_s : float;
      (** fault-tolerant pipeline over every fault-injected mutant *)
  mutant_count : int;
  mutant_clean : int;  (** mutants that still parse and analyze cleanly *)
  mutant_degraded : int;  (** mutants recovered with diagnostics *)
  mutant_failed : int;  (** mutants captured as a per-entry failure *)
}

(* Full fault-tolerant pipeline (recover, lower, detect) over a list
   of named sources; the program cache is cleared first so every run
   pays the same cold-path cost. *)
let recovering_pass sources () =
  Rustudy.Cache.clear_programs ();
  List.iter
    (fun (id, src) ->
      ignore (Rustudy.check_result ~file:(id ^ ".rs") src))
    sources

let corpus_bench () : corpus_timings =
  let uncached_s = wall uncached_corpus_pass in
  let cached_cold_s =
    wall (fun () ->
        Rustudy.Cache.clear_programs ();
        cached_corpus_pass ())
  in
  let cached_warm_s = wall cached_corpus_pass in
  let domains = Rustudy.Domain_pool.default_domains () in
  Rustudy.Cache.clear_programs ();
  let seq = ref [] in
  let sequential_s =
    wall ~reps:1 (fun () -> seq := Rustudy.analyze_corpus ~domains:1 ())
  in
  let parallel_skipped = Domain.recommended_domain_count () = 1 in
  let parallel_s, parallel_identical =
    if parallel_skipped then (sequential_s, true)
    else begin
      Rustudy.Cache.clear_programs ();
      let par = ref [] in
      let parallel_s =
        wall ~reps:1 (fun () -> par := Rustudy.analyze_corpus ~domains ())
      in
      let parallel_identical =
        List.length !seq = List.length !par
        && List.for_all2
             (fun (a : Rustudy.Classify.analysis)
                  (b : Rustudy.Classify.analysis) ->
               a.Rustudy.Classify.entry.Corpus.id
               = b.Rustudy.Classify.entry.Corpus.id
               && List.map Rustudy.Finding.to_string a.Rustudy.Classify.findings
                  = List.map Rustudy.Finding.to_string b.Rustudy.Classify.findings)
             !seq !par
      in
      (parallel_s, parallel_identical)
    end
  in
  let clean = Lazy.force clean_corpus in
  let mutants = Lazy.force mutated_corpus in
  let recovery_clean_s = wall (recovering_pass clean) in
  let recovery_mutated_s = wall (recovering_pass mutants) in
  let mutant_clean = ref 0 and mutant_degraded = ref 0 and mutant_failed = ref 0 in
  List.iter
    (fun (id, src) ->
      match Rustudy.check_result ~file:(id ^ ".rs") src with
      | Ok (_, []) -> incr mutant_clean
      | Ok (_, _ :: _) -> incr mutant_degraded
      | Error _ -> incr mutant_failed)
    mutants;
  {
    uncached_s;
    cached_cold_s;
    cached_warm_s;
    sequential_s;
    parallel_s;
    parallel_domains = domains;
    parallel_identical;
    parallel_skipped;
    recovery_clean_s;
    recovery_mutated_s;
    mutant_count = List.length mutants;
    mutant_clean = !mutant_clean;
    mutant_degraded = !mutant_degraded;
    mutant_failed = !mutant_failed;
  }

let print_corpus_timings (c : corpus_timings) =
  Printf.printf "== corpus (analysis cache + domain pool) ==\n";
  Printf.printf "  %-36s %10.3f ms\n" "uncached (per-detector analyses)"
    (c.uncached_s *. 1e3);
  Printf.printf "  %-36s %10.3f ms  (%.2fx vs uncached)\n"
    "cached, cold program cache" (c.cached_cold_s *. 1e3)
    (c.uncached_s /. c.cached_cold_s);
  Printf.printf "  %-36s %10.3f ms  (%.2fx vs uncached)\n"
    "cached, warm program cache" (c.cached_warm_s *. 1e3)
    (c.uncached_s /. c.cached_warm_s);
  Printf.printf "  %-36s %10.3f ms\n" "analyze_corpus sequential"
    (c.sequential_s *. 1e3);
  if c.parallel_skipped then
    Printf.printf "  %-36s %10s\n" "analyze_corpus parallel"
      "skipped (single core)"
  else
    Printf.printf "  %-36s %10.3f ms  (%.2fx, %d domains, identical=%b)\n"
      "analyze_corpus parallel" (c.parallel_s *. 1e3)
      (c.sequential_s /. c.parallel_s)
      c.parallel_domains c.parallel_identical;
  Printf.printf "== degraded corpus (fault injection) ==\n";
  Printf.printf "  %-36s %10.3f ms\n" "recovering pipeline, clean corpus"
    (c.recovery_clean_s *. 1e3);
  Printf.printf "  %-36s %10.3f ms  (%.2fx vs clean)\n"
    (Printf.sprintf "recovering pipeline, %d mutants" c.mutant_count)
    (c.recovery_mutated_s *. 1e3)
    (c.recovery_mutated_s /. c.recovery_clean_s);
  Printf.printf "  %-36s clean=%d degraded=%d failed=%d (raised=0 by construction)\n"
    "mutant outcomes" c.mutant_clean c.mutant_degraded c.mutant_failed

(* ------------------------------------------------------------------ *)
(* Frontend throughput (tokens/sec, MB/sec)                            *)
(* ------------------------------------------------------------------ *)

type frontend_stats = {
  fe_clean_files : int;
  fe_clean_bytes : int;
  fe_clean_tokens : int;
  fe_mutated_files : int;
  fe_mutated_bytes : int;
  fe_mutated_tokens : int;
  fe_lex_clean_s : float;
  fe_lex_mutated_s : float;
  fe_parse_strict_clean_s : float;
  fe_parse_recovering_mutated_s : float;
}

(* Parse-only wall timings plus corpus size/token totals, so the
   recovery overhead can be reported both raw and normalized: the
   mutant corpus is ~15x the clean corpus by construction (6 mutants
   per entry, near-full-size each), so the raw mutated/clean ratio is
   dominated by input size, not by recovery cost. The per-byte and
   per-token ratios below factor that out. *)
let frontend_bench () : frontend_stats =
  let clean = Lazy.force clean_corpus in
  let mutants = Lazy.force mutated_corpus in
  let totals corpus =
    List.fold_left
      (fun (b, t) (id, src) ->
        let c = Rustudy.Diag.collector () in
        let buf = Rustudy.Lexer.lex ~recover:c ~file:(id ^ ".rs") src in
        (b + String.length src, t + buf.Rustudy.Lexer.n_toks))
      (0, 0) corpus
  in
  let clean_bytes, clean_tokens = totals clean in
  let mutated_bytes, mutated_tokens = totals mutants in
  let lex_pass corpus () =
    List.iter
      (fun (id, src) ->
        let c = Rustudy.Diag.collector () in
        ignore (Rustudy.Lexer.lex ~recover:c ~file:(id ^ ".rs") src))
      corpus
  in
  let fe_lex_clean_s = wall (lex_pass clean) in
  let fe_lex_mutated_s = wall (lex_pass mutants) in
  let fe_parse_strict_clean_s =
    wall (fun () ->
        List.iter
          (fun (id, src) -> ignore (Rustudy.parse ~file:(id ^ ".rs") src))
          clean)
  in
  let fe_parse_recovering_mutated_s =
    wall (fun () ->
        List.iter
          (fun (id, src) ->
            ignore (Rustudy.parse_recovering ~file:(id ^ ".rs") src))
          mutants)
  in
  {
    fe_clean_files = List.length clean;
    fe_clean_bytes = clean_bytes;
    fe_clean_tokens = clean_tokens;
    fe_mutated_files = List.length mutants;
    fe_mutated_bytes = mutated_bytes;
    fe_mutated_tokens = mutated_tokens;
    fe_lex_clean_s;
    fe_lex_mutated_s;
    fe_parse_strict_clean_s;
    fe_parse_recovering_mutated_s;
  }

let fe_ratio_per_byte (fe : frontend_stats) =
  fe.fe_parse_recovering_mutated_s
  /. float_of_int fe.fe_mutated_bytes
  /. (fe.fe_parse_strict_clean_s /. float_of_int fe.fe_clean_bytes)

let fe_ratio_per_token (fe : frontend_stats) =
  fe.fe_parse_recovering_mutated_s
  /. float_of_int fe.fe_mutated_tokens
  /. (fe.fe_parse_strict_clean_s /. float_of_int fe.fe_clean_tokens)

let print_frontend (fe : frontend_stats) =
  Printf.printf "== frontend throughput ==\n";
  Printf.printf "  %-36s %d files, %d bytes, %d tokens\n" "clean corpus"
    fe.fe_clean_files fe.fe_clean_bytes fe.fe_clean_tokens;
  Printf.printf "  %-36s %d files, %d bytes, %d tokens\n" "mutated corpus"
    fe.fe_mutated_files fe.fe_mutated_bytes fe.fe_mutated_tokens;
  Printf.printf "  %-36s %10.3f ms  (%.1f MB/s, %.2f Mtok/s)\n" "lex clean"
    (fe.fe_lex_clean_s *. 1e3)
    (float_of_int fe.fe_clean_bytes /. 1e6 /. fe.fe_lex_clean_s)
    (float_of_int fe.fe_clean_tokens /. 1e6 /. fe.fe_lex_clean_s);
  Printf.printf "  %-36s %10.3f ms  (%.1f MB/s, %.2f Mtok/s)\n" "lex mutated"
    (fe.fe_lex_mutated_s *. 1e3)
    (float_of_int fe.fe_mutated_bytes /. 1e6 /. fe.fe_lex_mutated_s)
    (float_of_int fe.fe_mutated_tokens /. 1e6 /. fe.fe_lex_mutated_s);
  Printf.printf "  %-36s %10.3f ms\n" "parse strict, clean"
    (fe.fe_parse_strict_clean_s *. 1e3);
  Printf.printf "  %-36s %10.3f ms  (%.1fx raw)\n"
    (Printf.sprintf "parse recovering, %d mutants" fe.fe_mutated_files)
    (fe.fe_parse_recovering_mutated_s *. 1e3)
    (fe.fe_parse_recovering_mutated_s /. fe.fe_parse_strict_clean_s);
  Printf.printf
    "  %-36s %.2fx per byte, %.2fx per token (mutant corpus is %.1fx the \
     clean corpus)\n"
    "recovery overhead, normalized" (fe_ratio_per_byte fe)
    (fe_ratio_per_token fe)
    (float_of_int fe.fe_mutated_bytes /. float_of_int fe.fe_clean_bytes)

(* ------------------------------------------------------------------ *)
(* Supervisor timings and counters                                     *)
(* ------------------------------------------------------------------ *)

type supervisor_timings = {
  sup_clean_s : float;  (** supervised sweep over the pristine corpus *)
  sup_stats : Rustudy.Supervisor.stats;
  sup_replayed : int;
  sup_adversarial_s : float;
      (** instant-deadline slice: every entry times out, is retried and
          quarantined (backoff sleeps injected away) *)
  sup_adversarial_stats : Rustudy.Supervisor.stats;
}

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* The adversarial run: an already-expired per-entry deadline over a
   small corpus slice, so every attempt times out deterministically and
   the retry/quarantine machinery is what gets timed. *)
let adversarial_sweep () =
  let slice = take 8 Corpus.all_bugs in
  let config =
    {
      Rustudy.Supervisor.default_config with
      Rustudy.Supervisor.per_entry_deadline_ms = Some 0;
      retry = { Rustudy.Retry.default with Rustudy.Retry.max_attempts = 2 };
      sleep = (fun _ -> ());
      watchdog_interval_ms = 0;
    }
  in
  Study.Classify.analyze_entries_supervised ~config slice

let supervisor_bench () : supervisor_timings =
  Rustudy.Cache.clear_programs ();
  let t0 = Unix.gettimeofday () in
  let _, sup_stats, sup_replayed = Rustudy.analyze_corpus_supervised () in
  let sup_clean_s = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let _, sup_adversarial_stats, _ = adversarial_sweep () in
  let sup_adversarial_s = Unix.gettimeofday () -. t1 in
  {
    sup_clean_s;
    sup_stats;
    sup_replayed;
    sup_adversarial_s;
    sup_adversarial_stats;
  }

let print_supervisor (s : supervisor_timings) =
  let line name (st : Rustudy.Supervisor.stats) secs =
    Printf.printf
      "  %-36s %10.3f ms  (%d/%d completed, %d retries, %d timeouts, %d \
       quarantined, %d skipped)\n"
      name (secs *. 1e3) st.Rustudy.Supervisor.completed
      st.Rustudy.Supervisor.total st.Rustudy.Supervisor.retried
      st.Rustudy.Supervisor.timeouts st.Rustudy.Supervisor.quarantined
      st.Rustudy.Supervisor.skipped
  in
  Printf.printf "== supervisor (deadline/retry/quarantine) ==\n";
  line "supervised sweep, clean corpus" s.sup_stats s.sup_clean_s;
  line "instant-deadline slice" s.sup_adversarial_stats s.sup_adversarial_s

(* ------------------------------------------------------------------ *)
(* Analysis server: round-trip latency and load-shedding counters      *)
(* ------------------------------------------------------------------ *)

type server_timings = {
  srv_clients : int;
  srv_requests : int;  (** healthy phase: total round trips measured *)
  srv_p50_ns : float;  (** flight recorder on (the production default) *)
  srv_p99_ns : float;
  srv_flight_off_p50_ns : float;
      (** same phase with the recorder off: the delta is the always-on
          cost the recorder must keep negligible *)
  srv_stats_rtt_ns : float;  (** p50 of inline [stats] admin round trips *)
  srv_adv_requests : int;  (** adversarial phase: requests fired *)
  srv_shed : int;
  srv_retried : int;
  srv_timeouts : int;
}

let bench_source =
  "fn f(m: Arc<Mutex<u32>>) { let a = m.lock().unwrap(); let b = \
   m.lock().unwrap(); }"

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Phase A: an in-process daemon at its default tuning, hammered by
   concurrent clients issuing healthy check requests — the numbers are
   full round trips (frame encode, dispatch, analysis, frame decode),
   reported as p50/p99 so tail behaviour is gated, not just the
   median. *)
let server_latency_phase ?(flight = true) () =
  let clients = 4 and per_client = 64 in
  if flight then Support.Flight.enable () else Support.Flight.disable ();
  let sock = Filename.temp_file "rustudy_bench_lat" ".sock" in
  let d =
    Server.Daemon.start (Server.Daemon.default_config ~socket_path:sock)
  in
  let lat = Array.make (clients * per_client) 0.0 in
  let client k =
    let c = Server.Client.connect_retry sock in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        for i = 0 to per_client - 1 do
          let t0 = Unix.gettimeofday () in
          ignore
            (Server.Client.rpc c
               (Server.Client.check ~id:i ~keep_going:true
                  ~source:bench_source ~file:"bench.rs" ()));
          lat.((k * per_client) + i) <- Unix.gettimeofday () -. t0
        done)
  in
  let ts = List.init clients (fun k -> Thread.create client k) in
  List.iter Thread.join ts;
  Server.Daemon.stop d;
  (try Sys.remove sock with Sys_error _ -> ());
  Support.Flight.enable ();
  Array.sort compare lat;
  let n = Array.length lat in
  let pct p = lat.(min (n - 1) (int_of_float (float_of_int n *. p))) *. 1e9 in
  (clients, n, pct 0.50, pct 0.99)

(* Phase A': the inline admin path — [stats] round trips never touch
   the worker pool, so their latency is pure accept-path dispatch. *)
let server_stats_phase () =
  let rounds = 256 in
  let sock = Filename.temp_file "rustudy_bench_adm" ".sock" in
  let d =
    Server.Daemon.start (Server.Daemon.default_config ~socket_path:sock)
  in
  let lat = Array.make rounds 0.0 in
  let c = Server.Client.connect_retry sock in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      for i = 0 to rounds - 1 do
        let t0 = Unix.gettimeofday () in
        ignore (Server.Client.rpc c (Server.Client.stats ~id:i));
        lat.(i) <- Unix.gettimeofday () -. t0
      done);
  Server.Daemon.stop d;
  (try Sys.remove sock with Sys_error _ -> ());
  Array.sort compare lat;
  lat.(rounds / 2) *. 1e9

(* Phase B: a deliberately starved daemon (one worker, a two-slot
   queue, two attempts) under injected faults — first attempts of
   flaky requests raise, slow requests hold the only worker so the
   burst overflows the queue, instant deadlines time out. What is
   measured is that the shedding/retry/timeout machinery engages, and
   the counters land in the JSON next to the latency rows. *)
let server_adversarial_phase () =
  let sock = Filename.temp_file "rustudy_bench_adv" ".sock" in
  let hook (req : Server.Proto.request) ~attempt =
    match req.Server.Proto.cmd with
    | Server.Proto.Check { file; _ } when starts_with "flaky-" file ->
        if attempt = 1 then failwith "injected first-attempt failure"
    | Server.Proto.Check { file; _ } when starts_with "slow-" file ->
        Thread.delay 0.05
    | _ -> ()
  in
  let d =
    Server.Daemon.start
      {
        (Server.Daemon.default_config ~socket_path:sock) with
        Server.Daemon.workers = 1;
        queue_cap = 2;
        retries = 2;
        before_handle = Some hook;
      }
  in
  let fire file deadline_ms =
    let c = Server.Client.connect_retry sock in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        ignore
          (Server.Client.rpc c
             (Server.Client.check ~id:1 ?deadline_ms ~keep_going:true
                ~source:bench_source ~file ())))
  in
  (* 8 concurrent slow requests vs 1 worker and 2 queue slots: the
     overflow is shed with W0501 *)
  let burst =
    List.init 8 (fun i ->
        Thread.create (fun () -> fire (Printf.sprintf "slow-%d.rs" i) None) ())
  in
  List.iter Thread.join burst;
  for i = 1 to 4 do
    fire (Printf.sprintf "flaky-%d.rs" i) None
  done;
  for i = 1 to 4 do
    fire (Printf.sprintf "late-%d.rs" i) (Some 0)
  done;
  let s = Server.Daemon.stats d in
  Server.Daemon.stop d;
  (try Sys.remove sock with Sys_error _ -> ());
  (16, s.Server.Daemon.shed, s.Server.Daemon.retried,
   s.Server.Daemon.timeouts)

let server_bench () : server_timings =
  let srv_clients, srv_requests, srv_p50_ns, srv_p99_ns =
    server_latency_phase ()
  in
  let _, _, srv_flight_off_p50_ns, _ = server_latency_phase ~flight:false () in
  let srv_stats_rtt_ns = server_stats_phase () in
  let srv_adv_requests, srv_shed, srv_retried, srv_timeouts =
    server_adversarial_phase ()
  in
  {
    srv_clients;
    srv_requests;
    srv_p50_ns;
    srv_p99_ns;
    srv_flight_off_p50_ns;
    srv_stats_rtt_ns;
    srv_adv_requests;
    srv_shed;
    srv_retried;
    srv_timeouts;
  }

let server_rows (s : server_timings) =
  [
    ("server/check_p50", s.srv_p50_ns);
    ("server/check_p99", s.srv_p99_ns);
    ("server/check_p50_flight_off", s.srv_flight_off_p50_ns);
    ("server/stats_rtt", s.srv_stats_rtt_ns);
  ]

let print_server (s : server_timings) =
  Printf.printf "== server (in-process daemon round trips) ==\n";
  Printf.printf "  %-36s %10.1f us\n"
    (Printf.sprintf "check p50 (%d clients, %d reqs)" s.srv_clients
       s.srv_requests)
    (s.srv_p50_ns /. 1e3);
  Printf.printf "  %-36s %10.1f us\n" "check p99" (s.srv_p99_ns /. 1e3);
  Printf.printf "  %-36s %10.1f us (%+.1f%% vs flight off)\n"
    "check p50, flight recorder off"
    (s.srv_flight_off_p50_ns /. 1e3)
    ((s.srv_p50_ns -. s.srv_flight_off_p50_ns)
    /. Float.max 1.0 s.srv_flight_off_p50_ns
    *. 100.0);
  Printf.printf "  %-36s %10.1f us\n" "stats admin rtt p50"
    (s.srv_stats_rtt_ns /. 1e3);
  Printf.printf
    "  adversarial: %d requests -> %d shed, %d retried, %d timeouts\n"
    s.srv_adv_requests s.srv_shed s.srv_retried s.srv_timeouts

(* ------------------------------------------------------------------ *)
(* Replicated corpus: parallel speedup on an input big enough to       *)
(* amortize domain spawn (--replicate N)                               *)
(* ------------------------------------------------------------------ *)

type replicate_timings = {
  rep_n : int;
  rep_items : int;
  rep_sequential_s : float;
  rep_parallel_s : float;
  rep_domains : int;
  rep_identical : bool;
}

(* N copies of every corpus entry, each under a distinct file key so
   nothing is shared between replicas; every item goes through the
   full uncached pipeline (parse, lower, all detectors). The parallel
   pass uses chunked scheduling with at least two domains; findings
   must be byte-identical to the sequential pass. *)
let replicate_bench n : replicate_timings =
  let items =
    List.concat_map
      (fun k ->
        List.map
          (fun (e : Corpus.entry) ->
            (Printf.sprintf "%s~r%d" e.Corpus.id k, e.Corpus.source))
          Corpus.all_bugs)
      (List.init n (fun k -> k))
  in
  let pass ~domains () =
    Rustudy.Domain_pool.map ~domains
      ~f:(fun (id, src) ->
        List.map Rustudy.Finding.to_string
          (Rustudy.check ~file:(id ^ ".rs") src))
      items
  in
  let domains = max 2 (Rustudy.Domain_pool.default_domains ()) in
  let seq = ref [] and par = ref [] in
  let rep_sequential_s = wall ~reps:1 (fun () -> seq := pass ~domains:1 ()) in
  let rep_parallel_s = wall ~reps:1 (fun () -> par := pass ~domains ()) in
  {
    rep_n = n;
    rep_items = List.length items;
    rep_sequential_s;
    rep_parallel_s;
    rep_domains = domains;
    rep_identical = !seq = !par;
  }

let print_replicate (r : replicate_timings) =
  Printf.printf "== replicated corpus (--replicate %d: %d items) ==\n" r.rep_n
    r.rep_items;
  Printf.printf "  %-36s %10.3f ms\n" "sequential (1 domain)"
    (r.rep_sequential_s *. 1e3);
  Printf.printf "  %-36s %10.3f ms  (%.2fx, %d domains, identical=%b)\n"
    "parallel (chunked)" (r.rep_parallel_s *. 1e3)
    (r.rep_sequential_s /. r.rep_parallel_s)
    r.rep_domains r.rep_identical

(* ------------------------------------------------------------------ *)
(* Baseline comparison (--compare BASELINE.json)                       *)
(* ------------------------------------------------------------------ *)

(* Minimal parser for one flat object this binary writes: one
   `"name": value` pair per line between the opening and closing
   braces of the section named [section]. Values come back as raw
   strings. *)
let read_json_section path section : (string * string) list =
  let marker = "\"" ^ section ^ "\":" in
  let ml = String.length marker in
  let ic = open_in path in
  let rows = ref [] and in_ns = ref false in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if String.length line >= ml && String.sub line 0 ml = marker then
         in_ns := true
       else if !in_ns then
         if line = "}," || line = "}" then raise Exit
         else
           match String.rindex_opt line ':' with
           | Some ci ->
               let name = String.trim (String.sub line 0 ci) in
               let name =
                 if String.length name >= 2 && name.[0] = '"' then
                   String.sub name 1 (String.length name - 2)
                 else name
               in
               let v =
                 String.trim
                   (String.sub line (ci + 1) (String.length line - ci - 1))
               in
               let v =
                 if v <> "" && v.[String.length v - 1] = ',' then
                   String.sub v 0 (String.length v - 1)
                 else v
               in
               if name <> "" then rows := (name, v) :: !rows
           | None -> ()
     done
   with End_of_file | Exit -> ());
  close_in ic;
  List.rev !rows

let read_baseline path : (string * float) list =
  List.filter_map
    (fun (name, v) ->
      Option.map (fun f -> (name, f)) (float_of_string_opt v))
    (read_json_section path "ns_per_run")

(* The run parameters a baseline was produced under. Comparing against
   a baseline recorded with different parameters is apples-to-oranges;
   [compare_against] warns (it does not fail) on any mismatch. *)
let bench_version = 2

let current_meta ~replicate () : (string * string) list =
  [
    ("bench_version", string_of_int bench_version);
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("domains", string_of_int (Rustudy.Domain_pool.default_domains ()));
    ("replicate", string_of_int replicate);
    ("fuel_default", string_of_int (Rustudy.Fuel.get ()));
    ( "deadline_default_ms",
      string_of_int (Rustudy.Deadline.get_default_ms ()) );
  ]

let warn_meta_mismatch path ~replicate =
  match read_json_section path "meta" with
  | [] ->
      Printf.printf
        "  note: baseline has no \"meta\" block (pre-v%d bench output); \
         run parameters not checked\n"
        bench_version
  | base ->
      List.iter
        (fun (k, cur) ->
          match List.assoc_opt k base with
          | None ->
              Printf.printf "  WARNING: baseline meta is missing %S\n" k
          | Some bv when bv <> cur ->
              Printf.printf
                "  WARNING: meta mismatch on %s: baseline=%s current=%s \
                 (timings are not directly comparable)\n"
                k bv cur
          | Some _ -> ())
        (current_meta ~replicate ())

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Gated groups: a >25% slowdown in any of these fails the comparison.
   Other groups are informational only. *)
let gated_prefixes =
  [ "detectors/"; "frontend/"; "server/"; "interproc/"; "oracle/" ]

(* Prints the per-benchmark speedup table vs [path] and returns false
   when any gated entry regressed by more than 25%. Rows with no
   baseline entry (e.g. a group added after the baseline was recorded)
   are reported as new and never gate. *)
let compare_against ~replicate path (rows : (string * float) list) : bool =
  let baseline = read_baseline path in
  Printf.printf "\n== compare vs %s ==\n" path;
  warn_meta_mismatch path ~replicate;
  Printf.printf "  %-36s %14s %14s %9s\n" "benchmark" "baseline ns/run"
    "current ns/run" "speedup";
  let regressed = ref [] in
  let unbaselined = ref [] in
  List.iter
    (fun (name, cur) ->
      match List.assoc_opt name baseline with
      | None -> unbaselined := name :: !unbaselined
      | Some base ->
          let gated = List.exists (fun p -> has_prefix p name) gated_prefixes in
          let bad = gated && cur > base *. 1.25 in
          if bad then regressed := name :: !regressed;
          Printf.printf "  %-36s %14.1f %14.1f %8.2fx%s\n" name base cur
            (base /. cur)
            (if bad then "  << REGRESSION" else ""))
    rows;
  (match List.rev !unbaselined with
  | [] -> ()
  | l ->
      Printf.printf
        "  new since baseline (not gated until the baseline is \
         regenerated): %s\n"
        (String.concat ", " l));
  (match List.rev !regressed with
  | [] ->
      Printf.printf "  no %s regression > 25%%\n"
        (String.concat " or " (List.map (fun p -> p ^ "*") gated_prefixes))
  | l ->
      Printf.printf "  REGRESSED by > 25%%: %s\n" (String.concat ", " l));
  !regressed = []

(* ------------------------------------------------------------------ *)
(* JSON output (rendered by hand, keys escaped by Support.Sjson)       *)
(* ------------------------------------------------------------------ *)

let write_json path (rows : (string * float) list) (c : corpus_timings)
    ?replicate ~frontend ~supervisor ~server ~oracle ~ratio_index ~ratio_copy
    () =
  let oc = open_out path in
  let field k v =
    Printf.fprintf oc "    \"%s\": %s" (Support.Sjson.escape k) v
  in
  output_string oc "{\n  \"meta\": {\n";
  let meta =
    current_meta
      ~replicate:(match replicate with Some r -> r.rep_n | None -> 0)
      ()
  in
  List.iteri
    (fun i (name, v) ->
      if i > 0 then output_string oc ",\n";
      field name v)
    meta;
  output_string oc "\n  },\n  \"ns_per_run\": {\n";
  List.iteri
    (fun i (name, ns) ->
      if i > 0 then output_string oc ",\n";
      field name (Printf.sprintf "%.1f" ns))
    rows;
  output_string oc "\n  },\n  \"corpus_seconds\": {\n";
  (* on a single-core host the parallel rows carry the marker string
     "skipped_single_core" rather than a meaningless ~1x speedup; the
     baseline reader only keeps rows that parse as floats, so marker
     rows are exempt from --compare gating by construction *)
  let skipped = "\"skipped_single_core\"" in
  let cf =
    [
      ("uncached", Printf.sprintf "%.6f" c.uncached_s);
      ("cached_cold", Printf.sprintf "%.6f" c.cached_cold_s);
      ("cached_warm", Printf.sprintf "%.6f" c.cached_warm_s);
      ("sequential", Printf.sprintf "%.6f" c.sequential_s);
      ( "parallel",
        if c.parallel_skipped then skipped
        else Printf.sprintf "%.6f" c.parallel_s );
    ]
  in
  List.iteri
    (fun i (name, v) ->
      if i > 0 then output_string oc ",\n";
      field name v)
    cf;
  output_string oc ",\n";
  field "parallel_domains" (string_of_int c.parallel_domains);
  output_string oc ",\n";
  field "parallel_identical"
    (if c.parallel_skipped then skipped
     else string_of_bool c.parallel_identical);
  output_string oc ",\n";
  field "cached_speedup" (Printf.sprintf "%.3f" (c.uncached_s /. c.cached_warm_s));
  output_string oc ",\n";
  field "parallel_speedup"
    (if c.parallel_skipped then skipped
     else Printf.sprintf "%.3f" (c.sequential_s /. c.parallel_s));
  output_string oc "\n  },\n  \"degraded_corpus\": {\n";
  let df =
    [
      ("recovery_clean_s", Printf.sprintf "%.6f" c.recovery_clean_s);
      ("recovery_mutated_s", Printf.sprintf "%.6f" c.recovery_mutated_s);
      ( "mutated_over_clean",
        Printf.sprintf "%.3f" (c.recovery_mutated_s /. c.recovery_clean_s) );
      ("mutant_count", string_of_int c.mutant_count);
      ("mutant_clean", string_of_int c.mutant_clean);
      ("mutant_degraded", string_of_int c.mutant_degraded);
      ("mutant_failed", string_of_int c.mutant_failed);
    ]
  in
  List.iteri
    (fun i (name, v) ->
      if i > 0 then output_string oc ",\n";
      field name v)
    df;
  output_string oc "\n  },\n";
  (let fe = frontend in
   output_string oc "  \"frontend\": {\n";
   let ff =
     [
       ("clean_files", string_of_int fe.fe_clean_files);
       ("clean_bytes", string_of_int fe.fe_clean_bytes);
       ("clean_tokens", string_of_int fe.fe_clean_tokens);
       ("mutated_files", string_of_int fe.fe_mutated_files);
       ("mutated_bytes", string_of_int fe.fe_mutated_bytes);
       ("mutated_tokens", string_of_int fe.fe_mutated_tokens);
       ("lex_clean_s", Printf.sprintf "%.6f" fe.fe_lex_clean_s);
       ("lex_mutated_s", Printf.sprintf "%.6f" fe.fe_lex_mutated_s);
       ( "lex_clean_tokens_per_sec",
         Printf.sprintf "%.0f"
           (float_of_int fe.fe_clean_tokens /. fe.fe_lex_clean_s) );
       ( "lex_clean_mb_per_sec",
         Printf.sprintf "%.3f"
           (float_of_int fe.fe_clean_bytes /. 1e6 /. fe.fe_lex_clean_s) );
       ( "lex_mutated_tokens_per_sec",
         Printf.sprintf "%.0f"
           (float_of_int fe.fe_mutated_tokens /. fe.fe_lex_mutated_s) );
       ( "lex_mutated_mb_per_sec",
         Printf.sprintf "%.3f"
           (float_of_int fe.fe_mutated_bytes /. 1e6 /. fe.fe_lex_mutated_s) );
       ( "parse_strict_clean_s",
         Printf.sprintf "%.6f" fe.fe_parse_strict_clean_s );
       ( "parse_recovering_mutated_s",
         Printf.sprintf "%.6f" fe.fe_parse_recovering_mutated_s );
       ( "parse_mutated_over_clean",
         Printf.sprintf "%.3f"
           (fe.fe_parse_recovering_mutated_s /. fe.fe_parse_strict_clean_s) );
       ( "parse_mutated_over_clean_per_byte",
         Printf.sprintf "%.3f" (fe_ratio_per_byte fe) );
       ( "parse_mutated_over_clean_per_token",
         Printf.sprintf "%.3f" (fe_ratio_per_token fe) );
     ]
   in
   List.iteri
     (fun i (name, v) ->
       if i > 0 then output_string oc ",\n";
       field name v)
     ff;
   output_string oc "\n  },\n");
  (match replicate with
  | None -> ()
  | Some r ->
      output_string oc "  \"replicate\": {\n";
      let rf =
        [
          ("n", string_of_int r.rep_n);
          ("items", string_of_int r.rep_items);
          ("sequential_s", Printf.sprintf "%.6f" r.rep_sequential_s);
          ("parallel_s", Printf.sprintf "%.6f" r.rep_parallel_s);
          ("domains", string_of_int r.rep_domains);
          ("identical", string_of_bool r.rep_identical);
          ( "speedup",
            Printf.sprintf "%.3f" (r.rep_sequential_s /. r.rep_parallel_s) );
        ]
      in
      List.iteri
        (fun i (name, v) ->
          if i > 0 then output_string oc ",\n";
          field name v)
        rf;
      output_string oc "\n  },\n");
  (let s = supervisor in
   output_string oc "  \"supervisor\": {\n";
   let stat_fields prefix (st : Rustudy.Supervisor.stats) =
     [
       (prefix ^ "total", string_of_int st.Rustudy.Supervisor.total);
       (prefix ^ "completed", string_of_int st.Rustudy.Supervisor.completed);
       (prefix ^ "retried", string_of_int st.Rustudy.Supervisor.retried);
       (prefix ^ "timeouts", string_of_int st.Rustudy.Supervisor.timeouts);
       ( prefix ^ "quarantined",
         string_of_int st.Rustudy.Supervisor.quarantined );
       (prefix ^ "skipped", string_of_int st.Rustudy.Supervisor.skipped);
     ]
   in
   let sf =
     [ ("clean_s", Printf.sprintf "%.6f" s.sup_clean_s) ]
     @ stat_fields "clean_" s.sup_stats
     @ [
         ("clean_replayed", string_of_int s.sup_replayed);
         ("adversarial_s", Printf.sprintf "%.6f" s.sup_adversarial_s);
       ]
     @ stat_fields "adversarial_" s.sup_adversarial_stats
   in
   List.iteri
     (fun i (name, v) ->
       if i > 0 then output_string oc ",\n";
       field name v)
     sf;
   output_string oc "\n  },\n");
  (let s = server in
   output_string oc "  \"server\": {\n";
   let vf =
     [
       ("clients", string_of_int s.srv_clients);
       ("requests", string_of_int s.srv_requests);
       ("check_p50_ns", Printf.sprintf "%.1f" s.srv_p50_ns);
       ("check_p99_ns", Printf.sprintf "%.1f" s.srv_p99_ns);
       ("check_p50_flight_off_ns", Printf.sprintf "%.1f" s.srv_flight_off_p50_ns);
       ("stats_rtt_ns", Printf.sprintf "%.1f" s.srv_stats_rtt_ns);
       ("adversarial_requests", string_of_int s.srv_adv_requests);
       ("shed", string_of_int s.srv_shed);
       ("retried", string_of_int s.srv_retried);
       ("timeouts", string_of_int s.srv_timeouts);
     ]
   in
   List.iteri
     (fun i (name, v) ->
       if i > 0 then output_string oc ",\n";
       field name v)
     vf;
   output_string oc "\n  },\n");
  (let o : Rustudy.Oracle_eval.result = oracle in
   output_string oc "  \"oracle\": {\n";
   let of_ =
     [
       ("programs", string_of_int o.Rustudy.Oracle_eval.programs);
       ("mutants", string_of_int o.Rustudy.Oracle_eval.mutants);
       ("degraded", string_of_int (List.length o.Rustudy.Oracle_eval.degraded));
       ("escaped", string_of_int o.Rustudy.Oracle_eval.escaped);
       ( "agree_pos",
         string_of_int
           (oracle_total (fun w -> w.Rustudy.Oracle_eval.agree_pos) o) );
       ( "agree_neg",
         string_of_int
           (oracle_total (fun w -> w.Rustudy.Oracle_eval.agree_neg) o) );
       ( "static_only",
         string_of_int
           (oracle_total (fun w -> w.Rustudy.Oracle_eval.static_only) o) );
       ( "dynamic_only",
         string_of_int
           (oracle_total (fun w -> w.Rustudy.Oracle_eval.dynamic_only) o) );
       ( "inconclusive",
         string_of_int
           (oracle_total (fun w -> w.Rustudy.Oracle_eval.inconclusive) o) );
     ]
     @ List.concat_map
         (fun (cls, w) ->
           [
             ( cls ^ "_agree_pos",
               string_of_int w.Rustudy.Oracle_eval.agree_pos );
             ( cls ^ "_dynamic_only",
               string_of_int w.Rustudy.Oracle_eval.dynamic_only );
           ])
         o.Rustudy.Oracle_eval.rows
   in
   List.iteri
     (fun i (name, v) ->
       if i > 0 then output_string oc ",\n";
       field name v)
     of_;
   output_string oc "\n  },\n");
  output_string oc "  \"section_4_1\": {\n";
  field "checked_over_unchecked_index" (Printf.sprintf "%.3f" ratio_index);
  output_string oc ",\n";
  field "per_element_over_memcpy_copy" (Printf.sprintf "%.3f" ratio_copy);
  output_string oc "\n  }\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let arg_value flag =
  let rec go = function
    | a :: b :: _ when String.equal a flag -> Some b
    | _ :: tl -> go tl
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let () =
  let json = Array.exists (( = ) "--json") Sys.argv in
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let replicate =
    match arg_value "--replicate" with
    | Some s -> int_of_string s
    | None -> 0
  in
  let compare_file = arg_value "--compare" in
  if quick then begin
    (* smoke mode (wired into dune runtest): exercise the bechamel
       harness on the detector group with a tiny quota plus one cached
       corpus pass, so the bench binary can't bit-rot *)
    let quick_interproc () =
      interproc_rows
        ~shapes:[ Scale_gen.Chain; Scale_gen.Scc ]
        ~sizes:[ 100; 1000 ] ()
    in
    let rows =
      let frontend_rows = quick_frontend_rows () in
      frontend_rows
      @ run_group ~quota:0.05 "detectors" detector_tests
      @ quick_interproc ()
      @ oracle_rows ()
    in
    print_oracle_counters ();
    Rustudy.Cache.clear_programs ();
    cached_corpus_pass ();
    (* the supervisor machinery must not bit-rot either: the
       instant-deadline slice runs in milliseconds (no real sleeps) *)
    let _, qstats, _ = adversarial_sweep () in
    Printf.printf
      "supervisor smoke: %d quarantined, %d retries, %d timeouts\n"
      qstats.Rustudy.Supervisor.quarantined qstats.Rustudy.Supervisor.retried
      qstats.Rustudy.Supervisor.timeouts;
    let ok =
      match compare_file with
      | Some f ->
          (* A loaded host shifts every row 20-30% at once, so a failed
             gate is re-measured before it fails the build: sustained
             real regressions survive the retries, transient load
             almost never does. *)
          let rec attempt retries rows =
            compare_against ~replicate f rows
            || retries > 0
               && begin
                    Printf.printf
                      "gate failed; re-measuring (%d retries left)\n" retries;
                    attempt (retries - 1)
                      (quick_frontend_rows ()
                      @ run_group ~quota:0.05 "detectors" detector_tests
                      @ quick_interproc ()
                      @ oracle_rows ())
                  end
          in
          attempt 2 rows
      | None -> true
    in
    print_endline "quick smoke OK";
    if not ok then exit 1
  end
  else begin
    (* correctness context for the ablations, then the timings *)
    (* Frontend throughput is measured first, on a quiet heap: the later
       corpus/bechamel phases leave a large major heap behind, which
       inflates wall timings of allocation-heavy passes by 2-3x and
       would misreport recovery cost. *)
    let frontend = frontend_bench () in
    print_frontend frontend;
    print_newline ();
    recall_summary ();
    print_newline ();
    let rows =
      run_group "tables-and-figures" (table_tests @ pipeline_tests)
      @ run_group "detectors" detector_tests
      @ run_group "observability" observability_tests
      @ run_group "safe-vs-unsafe (4.1)" micro_tests
      @ run_group "ablations" ablation_tests
      @ run_group "frontend" frontend_tests
      @ interproc_rows
          ~shapes:[ Scale_gen.Chain; Scale_gen.Diamond; Scale_gen.Scc ]
          ~sizes:[ 100; 1000; 10_000 ] ()
      @ oracle_rows ()
    in
    print_oracle_counters ();
    Printf.printf "== interproc gates ==\n";
    let interproc_ok =
      let a = interproc_asserts rows in
      let b = ablation_divergence_assert rows in
      a && b
    in
    let corpus = corpus_bench () in
    print_corpus_timings corpus;
    let supervisor = supervisor_bench () in
    print_supervisor supervisor;
    let server = server_bench () in
    print_server server;
    let rows = rows @ server_rows server in
    let rep = if replicate > 0 then Some (replicate_bench replicate) else None in
    Option.iter print_replicate rep;
    (* the paper's §4.1 claim: report the measured ratios directly *)
    (* best-of-5 to damp scheduler noise on a shared single core *)
    let time_it f =
      let once () =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to 500 do
          ignore (Sys.opaque_identity (f ()))
        done;
        Unix.gettimeofday () -. t0
      in
      List.fold_left min (once ()) (List.init 4 (fun _ -> once ()))
    in
    let checked = time_it safe_index_sum in
    let unchecked = time_it unsafe_index_sum in
    let copy_loop = time_it (fun () -> checked_copy ()) in
    let copy_blit = time_it (fun () -> memcpy_copy ()) in
    let ratio_index = checked /. unchecked in
    let ratio_copy = copy_loop /. copy_blit in
    Printf.printf
      "\nsection 4.1 analogues: bounds-checked/unchecked index ratio = %.2fx; \
       per-element/memcpy copy ratio = %.2fx\n"
      ratio_index ratio_copy;
    if json then begin
      write_json "BENCH_results.json" rows corpus ?replicate:rep ~frontend
        ~supervisor ~server
        ~oracle:(Lazy.force oracle_counters)
        ~ratio_index ~ratio_copy ();
      print_endline "wrote BENCH_results.json"
    end;
    let ok =
      match compare_file with
      | Some f -> compare_against ~replicate f rows
      | None -> true
    in
    if not (ok && interproc_ok) then exit 1
  end
