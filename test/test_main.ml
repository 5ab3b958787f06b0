(* Test entry point: every module's suite is registered here. *)

let () =
  Alcotest.run "sgl"
    (List.concat [ Test_util.suite; Test_relalg.suite; Test_index.suite; Test_lang.suite; Test_qopt.suite; Test_engine.suite; Test_battle.suite; Test_effects.suite; Test_fuzz.suite; Test_cli.suite; Test_laws.suite; Test_edge.suite; Test_mods.suite; Test_fault.suite; Test_fused.suite; Test_incremental.suite; Test_telemetry.suite; Test_analysis.suite; Test_absint.suite; Test_persist.suite; Test_colstore.suite; Test_obs.suite; Test_rows.suite ])
