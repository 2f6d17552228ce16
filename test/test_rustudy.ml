(* Aggregated test runner: every suite in one alcotest binary. *)

let () =
  Alcotest.run "rustudy"
    [
      ("lexer", T_lexer.suite);
      ("interner", T_interner.suite);
      ("frontend", T_frontend.suite);
      ("parser", T_parser.suite);
      ("sema", T_sema.suite);
      ("mir", T_mir.suite);
      ("analysis", T_analysis.suite);
      ("detectors", T_detectors.suite);
      ("corpus", T_corpus.suite);
      ("study", T_study.suite);
      ("cache", T_cache.suite);
      ("kernels", T_kernels.suite);
      ("suggestions", T_suggestions.suite);
      ("recovery", T_recovery.suite);
      ("fault", T_fault.suite);
      ("supervisor", T_supervisor.suite);
      ("server", T_server.suite);
      ("properties", T_props.suite);
      ("observability", T_observability.suite);
      ("flight", T_flight.suite);
      ("summary", T_summary.suite);
      ("oracle", T_oracle.suite);
      ("sites", T_sites.suite);
      ("span", T_span.suite);
      ("heap", T_heap.suite);
    ]
