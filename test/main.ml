let () =
  Alcotest.run "scallop"
    [
      ("utils", Test_utils.suite);
      ("value", Test_value.suite);
      ("bdd", Test_bdd.suite);
      ("formula-wmc", Test_formula.suite);
      ("topk", Test_topk.suite);
      ("topk-golden", Test_golden_topk.suite);
      ("provenance", Test_provenance.suite);
      ("aggregate", Test_aggregate.suite);
      ("parser", Test_parser.suite);
      ("language", Test_lang.suite);
      ("tensor", Test_tensor.suite);
      ("nn", Test_nn.suite);
      ("data", Test_data.suite);
      ("interp", Test_interp.suite);
      ("columnar", Test_columnar.suite);
      ("opt", Test_opt.suite);
      ("demand", Test_demand.suite);
      ("semantics", Test_semantics.suite);
      ("properties", Test_properties.suite);
      ("apps", Test_apps.suite);
      ("parallel", Test_parallel.suite);
      ("errors", Test_errors.suite);
      ("fuzz", Test_fuzz.suite);
      ("engines", Test_engines.suite);
      ("serialize", Test_serialize.suite);
      ("resilience", Test_resilience.suite);
      ("service", Test_service.suite);
      ("incr", Test_incr.suite);
      ("durability", Test_durability.suite);
      ("replication", Test_replication.suite);
    ]
