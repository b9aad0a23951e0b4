let () =
  Alcotest.run "base_repro"
    [
      ("substrate", Test_substrate.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("state-transfer", Test_state_transfer.suite);
      ("state-transfer-pipeline", Test_st_pipeline.suite);
      ("partition-tree", Test_partition_tree_prop.suite);
      ("nfs-model", Test_nfs_model.suite);
      ("oodb", Test_oodb.suite);
      ("bft", Test_bft.suite @ Test_replica_mode_props.suite);
      ("client", Test_client.suite);
      ("bft-wire", Test_bft_wire.suite);
      ("digest-memo", Test_digest_memo.suite);
      ("mac-equiv", Test_mac_equiv.suite);
      ("sha256-diff", Test_sha256_diff.suite);
      ("alloc-budget", Test_alloc_budget.suite);
      ("event-heap", Test_event_heap.suite);
      ( "byzantine-input",
        Test_byzantine_input.suite @ Test_fuzz_decode.suite @ Test_byzantine_input.appended );
      ("determinism", Test_determinism.suite);
      ("faultplan", Test_faultplan.suite);
      ("view-change", Test_view_change.suite @ Test_view_change_props.suite);
      ("lint", Test_lint.suite);
      ("batching", Test_batching.suite);
      ("load", Test_load.suite);
      ("stack", Test_stack.suite);
      ("conformance", Test_conformance.suite);
      ("cross-backend-digest", Test_cross_backend_digest.suite);
      ("wrapper-edge", Test_wrapper_edge.suite);
      ("recovery", Test_recovery.suite);
      ("standby", Test_standby.suite);
      ("workload", Test_workload.suite);
      ("sharding", Test_sharding.suite);
      ("cross-shard", Test_xshard.suite);
      ("safety-sweep", Test_safety_sweep.suite);
      ("stress-combo", Test_stress_combo.suite);
      ("basefs", Test_basefs.suite);
      ("fs-contents", Test_fs_contents.suite);
      ("intake", Test_intake_props.suite);
    ]
