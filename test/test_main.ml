let () =
  Alcotest.run "op-pic"
    [
      ("core", Test_core.suite);
      ("obs", Test_obs.suite);
      ("la", Test_la.suite);
      ("mesh", Test_mesh.suite);
      ("backends", Test_backends.suite);
      ("locality", Test_locality.suite);
      ("dist", Test_dist.suite);
      ("codegen", Test_codegen.suite);
      ("manifest", Test_manifest.suite);
      ("check", Test_check.suite);
      ("fempic", Test_fempic.suite);
      ("cabana", Test_cabana.suite);
      ("perf", Test_perf.suite);
      ("snapshot", Test_snapshot.suite);
      ("pushers", Test_pushers.suite);
      ("landau", Test_landau.suite);
      ("resil", Test_resil.suite);
      ("heal", Test_heal.suite);
      ("prof", Test_prof.suite);
      ("watch", Test_watch.suite);
      ("balance", Test_balance.suite);
    ]
