(* Test runner: every suite of the library. `dune runtest` executes all of
   them; QCheck properties are registered as alcotest cases. *)

let () =
  Alcotest.run "repro"
    [
      ("support", Test_support.suite);
      ("ir", Test_ir.suite);
      ("validate", Test_validate.suite);
      ("analysis", Test_analysis.suite);
      ("parallel-copy", Test_parallel_copy.suite);
      ("ssa", Test_ssa.suite);
      ("forest+interference", Test_forest.suite);
      ("coalesce", Test_coalesce.suite);
      ("classes", Test_classes.suite);
      ("dce", Test_dce.suite);
      ("simplify", Test_simplify.suite);
      ("baseline", Test_baseline.suite);
      ("sreedhar", Test_sreedhar.suite);
      ("regalloc", Test_regalloc.suite);
      ("frontend", Test_frontend.suite);
      ("interp", Test_interp.suite);
      ("workloads", Test_workloads.suite);
      ("corpus", Test_corpus.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("copy-prop", Test_copy_prop.suite);
      ("pipeline", Test_pipeline.suite);
      ("pass", Test_pass.suite);
      ("check", Test_check.suite);
      ("harness", Test_harness.suite);
      ("engine", Test_engine.suite);
      ("obs", Test_obs.suite);
      ("cache", Test_cache.suite);
      ("serve", Test_serve.suite);
    ]
