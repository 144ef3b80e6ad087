(* Test runner: one alcotest section per module suite. *)

let () =
  Alcotest.run "mmu-tricks"
    [ ("rng", Test_rng.suite);
      ("addr", Test_addr.suite);
      ("pte", Test_pte.suite);
      ("bat", Test_bat.suite);
      ("segment", Test_segment.suite);
      ("tlb", Test_tlb.suite);
      ("cache", Test_cache.suite);
      ("htab", Test_htab.suite);
      ("perf", Test_perf.suite);
      ("trace", Test_trace.suite);
      ("machine-cost", Test_machine.suite);
      ("memsys", Test_memsys.suite);
      ("mmu", Test_mmu.suite);
      ("shadow", Test_shadow.suite);
      ("profile", Test_profile.suite);
      ("span", Test_span.suite);
      ("physmem", Test_physmem.suite);
      ("pagetable", Test_pagetable.suite);
      ("vsid", Test_vsid.suite);
      ("pagepool", Test_pagepool.suite);
      ("mm", Test_mm.suite);
      ("pipe-vfs", Test_pipe_vfs.suite);
      ("kernel", Test_kernel.suite);
      ("oracle", Test_oracle.suite);
      ("invariants", Test_invariants.suite);
      ("kparams", Test_kparams.suite);
      ("features", Test_features.suite);
      ("workloads", Test_workloads.suite);
      ("sched", Test_sched.suite);
      ("recorder", Test_recorder.suite);
      ("flight", Test_flight.suite);
      ("smp", Test_smp.suite);
      ("core", Test_core.suite);
      ("policy", Test_policy.suite);
      ("harness", Test_harness.suite);
      ("tuning", Test_tuning.suite);
      ("tuner", Test_tuner.suite);
      ("edges", Test_edges.suite);
      ("flat-equiv", Test_flat_equiv.suite);
      ("alloc", Test_alloc.suite);
      ("reproduction", Test_reproduction.suite) ]
