(* Analysis-cache and parallel-pipeline tests: the shared context must
   never change what the detectors report, only how often the underlying
   analyses run; the domain pool must return the sequential results in
   the sequential order. *)

let case name f = Alcotest.test_case name `Quick f

let finding_strings fs = List.map Rustudy.Finding.to_string fs

let load_entry (e : Corpus.entry) =
  Rustudy.load ~file:(e.Corpus.id ^ ".rs") e.Corpus.source

(* The pre-cache behaviour, reconstructed: every detector of the table
   run on a private context, each recomputing its own analyses,
   concatenated in table order. *)
let uncached_bugs program =
  List.concat_map
    (fun (_, run) -> run (Analysis.Cache.create program))
    Detectors.All.detectors

let cached_equals_uncached =
  case "cached findings = per-detector findings on every corpus entry"
    (fun () ->
      List.iter
        (fun (e : Corpus.entry) ->
          let program = load_entry e in
          Alcotest.(check (list string))
            e.Corpus.id
            (finding_strings (uncached_bugs program))
            (finding_strings
               (Detectors.All.bugs_ctx (Analysis.Cache.create program))))
        Corpus.all_bugs)

let compiler_checks_agree =
  case "cached compiler checks = direct borrowck run" (fun () ->
      List.iter
        (fun (e : Corpus.entry) ->
          let program = load_entry e in
          Alcotest.(check (list string))
            e.Corpus.id
            (finding_strings
               (List.concat_map Detectors.Borrowck.run_body
                  (Ir.Mir.body_list program)))
            (finding_strings
               (Detectors.All.compiler_checks_ctx
                  (Analysis.Cache.create program))))
        Corpus.all_bugs)

(* The acceptance criterion: one [All.bugs_ctx] call computes points-to,
   liveness and alias resolution at most once per body, and the call
   graph at most once per program. *)
let analysis_counts =
  case "one bugs run: each analysis at most once per body" (fun () ->
      (* pointsto now counts runs in the metrics registry *)
      let was_enabled = Support.Metrics.enabled () in
      Support.Metrics.enable ();
      Fun.protect
        ~finally:(fun () ->
          if not was_enabled then Support.Metrics.disable ())
        (fun () ->
          List.iter
            (fun (e : Corpus.entry) ->
              let program = load_entry e in
              let n_bodies = List.length (Ir.Mir.body_list program) in
              let pts0 =
                Support.Metrics.read_counter "rustudy_pointsto_runs_total"
              in
              let sto0 = Analysis.Storage.runs () in
              let ali0 = Analysis.Alias.runs () in
              let cg0 = Analysis.Callgraph.runs () in
              ignore (Detectors.All.bugs_ctx (Analysis.Cache.create program));
              let le what count bound =
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s ran %d times for %d bodies"
                     e.Corpus.id what count bound)
                  true (count <= bound)
              in
              le "points-to"
                (int_of_float
                   (Support.Metrics.read_counter "rustudy_pointsto_runs_total"
                   -. pts0))
                n_bodies;
              le "liveness" (Analysis.Storage.runs () - sto0) n_bodies;
              le "alias" (Analysis.Alias.runs () - ali0) n_bodies;
              le "callgraph" (Analysis.Callgraph.runs () - cg0) 1)
            Corpus.all_bugs))

let cache_stats_hits =
  case "shared context records cache hits" (fun () ->
      (* [&task] lets use-after-free in and [ptr::read] lets double-free
         in: both read this body's points-to, so the second is a hit. *)
      let src =
        {|
fn steal_task() {
    let task = vec![1u8, 2u8, 3u8];
    let stolen = unsafe { ptr::read(&task) };
}
|}
      in
      let ctx = Analysis.Cache.create (Rustudy.load ~file:"steal.rs" src) in
      ignore (Detectors.All.bugs_ctx ctx);
      let s = Analysis.Cache.stats ctx in
      Alcotest.(check bool)
        "at least one memoised analysis" true
        (s.Analysis.Cache.pointsto_memos > 0);
      Alcotest.(check bool)
        "later detectors hit the memo tables" true
        (s.Analysis.Cache.hits > 0))

let program_cache_shares =
  case "program cache: same (file, source) lowers once" (fun () ->
      Analysis.Cache.clear_programs ();
      let e = List.hd Corpus.all_bugs in
      let file = e.Corpus.id ^ ".rs" in
      let ctx1 = Analysis.Cache.load_ctx ~file e.Corpus.source in
      let ctx2 = Analysis.Cache.load_ctx ~file e.Corpus.source in
      Alcotest.(check bool)
        "second load returns the shared context" true
        (Analysis.Cache.program ctx1 == Analysis.Cache.program ctx2))

let parallel_matches_sequential =
  case "parallel analyze_all = sequential analyze_all, same order"
    (fun () ->
      Analysis.Cache.clear_programs ();
      let seq = Study.Classify.analyze_all ~domains:1 () in
      Analysis.Cache.clear_programs ();
      let par = Study.Classify.analyze_all ~domains:4 () in
      Alcotest.(check int)
        "same length" (List.length seq) (List.length par);
      List.iter2
        (fun (a : Study.Classify.analysis) (b : Study.Classify.analysis) ->
          Alcotest.(check string)
            "entry order" a.Study.Classify.entry.Corpus.id
            b.Study.Classify.entry.Corpus.id;
          Alcotest.(check (list string))
            a.Study.Classify.entry.Corpus.id
            (finding_strings a.Study.Classify.findings)
            (finding_strings b.Study.Classify.findings))
        seq par)

let parallel_eval_matches =
  case "parallel detector_eval = sequential detector_eval" (fun () ->
      Analysis.Cache.clear_programs ();
      let seq = Study.Detector_eval.run ~domains:1 () in
      Analysis.Cache.clear_programs ();
      let par = Study.Detector_eval.run ~domains:4 () in
      Alcotest.(check bool) "identical result" true (seq = par))

let domain_pool_order =
  case "domain pool preserves input order under contention" (fun () ->
      let items = List.init 100 (fun i -> i) in
      let expected = List.map (fun i -> i * i) items in
      Alcotest.(check (list int))
        "squares in order" expected
        (Support.Domain_pool.map ~domains:4 ~f:(fun i -> i * i) items))

let domain_pool_exn =
  case "domain pool re-raises the first failing item's exception"
    (fun () ->
      let f i = if i >= 7 then failwith (string_of_int i) else i in
      match Support.Domain_pool.map ~domains:4 ~f (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg -> Alcotest.(check string) "first" "7" msg)

let suite =
  [
    cached_equals_uncached;
    compiler_checks_agree;
    analysis_counts;
    cache_stats_hits;
    program_cache_shares;
    parallel_matches_sequential;
    parallel_eval_matches;
    domain_pool_order;
    domain_pool_exn;
  ]
