(* Tests for the battle case study: the d20 mechanics, the compiled SGL
   program, scenario construction, and — the system's headline integration
   property — bit-identical battles under the naive and indexed engines. *)

open Sgl_relalg
open Sgl_engine
open Sgl_battle

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* d20 mechanics *)

let test_d20_profiles () =
  Alcotest.(check bool) "knights are armored" true
    (D20.knight.D20.armor > D20.archer.D20.armor);
  Alcotest.(check bool) "knights hit harder" true
    (D20.knight.D20.damage_die > D20.archer.D20.damage_die);
  Alcotest.(check bool) "archers shoot farther" true
    (D20.archer.D20.attack_range > D20.knight.D20.attack_range);
  Alcotest.(check bool) "healers do not attack" true (D20.healer.D20.damage_die = 0);
  Alcotest.(check int) "class ids round-trip" 1 (D20.class_id (D20.class_of_id 1))

let test_d20_armor_class () = Alcotest.(check int) "AC" 14 (D20.armor_class 4)

let d20_attack_matches_script_formula =
  (* The OCaml rule and the SGL encoding must be the same function. *)
  QCheck.Test.make ~name:"attack damage = script formula" ~count:500
    QCheck.(pair (pair small_nat small_nat) (int_range 0 8))
    (fun ((roll_hit, roll_damage), target_armor) ->
      let p = D20.knight in
      let ocaml_dmg =
        D20.attack_damage ~attack_bonus:p.D20.attack_bonus ~damage_die:p.D20.damage_die
          ~damage_bonus:p.D20.damage_bonus ~target_armor ~roll_hit ~roll_damage
      in
      (* the arithmetic encoding used in MeleeStrike *)
      let hit = max 0 (min 1 ((roll_hit mod 20) + 2 + p.D20.attack_bonus - (10 + target_armor))) in
      let dmg = max 1 ((roll_damage mod p.D20.damage_die) + 1 + p.D20.damage_bonus - (target_armor / 2)) in
      ocaml_dmg = hit * dmg)

(* ------------------------------------------------------------------ *)
(* The compiled battle program *)

let test_battle_program_compiles () =
  let prog = Scripts.compile () in
  let names = List.map (fun (s : Sgl_lang.Core_ir.script) -> s.Sgl_lang.Core_ir.name) prog.Sgl_lang.Core_ir.scripts in
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " present") true (List.mem required names))
    [ "knight"; "archer"; "healer" ];
  (* roughly ten aggregate queries per unit per tick (Section 6) *)
  Alcotest.(check bool) "at least 12 aggregate instances" true
    (Array.length prog.Sgl_lang.Core_ir.aggregates >= 12)

let test_battle_strategies () =
  (* The instance table must exercise every index family from Section 5.3. *)
  let prog = Scripts.compile () in
  let schema = prog.Sgl_lang.Core_ir.schema in
  let names =
    Array.to_list
      (Array.map
         (fun agg -> Sgl_qopt.Agg_plan.strategy_name (Sgl_qopt.Agg_plan.analyze schema agg))
         prog.Sgl_lang.Core_ir.aggregates)
  in
  let count x = List.length (List.filter (( = ) x) names) in
  Alcotest.(check bool) "divisible indexes" true (count "indexed" >= 5);
  Alcotest.(check bool) "sweep-line argmins" true (count "indexed+sweep" >= 2);
  Alcotest.(check bool) "nothing forced naive" true (count "naive" = 0)

(* ------------------------------------------------------------------ *)
(* Scenario construction *)

let test_scenario_density () =
  let scenario = Scenario.setup ~density:0.01 ~per_side:(Scenario.standard_mix 100) () in
  let n = Array.length scenario.Scenario.units in
  Alcotest.(check int) "two armies" 200 n;
  let cells = scenario.Scenario.width * scenario.Scenario.height in
  let actual = float_of_int n /. float_of_int cells in
  Alcotest.(check bool) "density within 30% of target" true
    (actual > 0.007 && actual < 0.013)

let test_scenario_unique_cells_and_sides () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 60) () in
  let s = scenario.Scenario.schema in
  let seen = Hashtbl.create 128 in
  Array.iter
    (fun u ->
      let p = Unit_types.pos_of s u in
      Alcotest.(check bool) "unique cell" false (Hashtbl.mem seen p);
      Hashtbl.add seen p ();
      let x, _ = p in
      Alcotest.(check bool) "in bounds" true (x >= 0. && x < float_of_int scenario.Scenario.width);
      (* player 0 deploys left of player 1 *)
      let mid = float_of_int scenario.Scenario.width /. 2. in
      if Unit_types.player_of s u = 0 then
        Alcotest.(check bool) "player 0 on the left" true (x < mid)
      else Alcotest.(check bool) "player 1 on the right" true (x > mid -. 1.))
    scenario.Scenario.units

let test_standard_mix () =
  let m = Scenario.standard_mix 100 in
  Alcotest.(check int) "adds up" 100 (Scenario.army_size m);
  Alcotest.(check bool) "knight-heavy" true (m.Scenario.knights >= m.Scenario.archers);
  Alcotest.(check bool) "healers exist" true (m.Scenario.healers > 0)

(* ------------------------------------------------------------------ *)
(* Integration: naive engine = indexed engine, tick by tick *)

let check_engines_agree ~n ~ticks ~density =
  let scenario = Scenario.setup ~density ~per_side:(Scenario.standard_mix (n / 2)) () in
  let sim_n = Scenario.simulation ~evaluator:Simulation.Naive scenario in
  let sim_i = Scenario.simulation ~evaluator:Simulation.Indexed scenario in
  for t = 1 to ticks do
    Simulation.step sim_n;
    Simulation.step sim_i;
    if Test_engine.sorted_units sim_n <> Test_engine.sorted_units sim_i then
      Alcotest.failf "engines diverged at tick %d (n=%d)" t n
  done

let test_engines_agree_small () = check_engines_agree ~n:40 ~ticks:25 ~density:0.02
let test_engines_agree_medium () = check_engines_agree ~n:150 ~ticks:10 ~density:0.01
let test_engines_agree_dense () = check_engines_agree ~n:60 ~ticks:15 ~density:0.08

let engines_agree_property =
  QCheck.Test.make ~name:"engines agree on random army sizes" ~count:8
    QCheck.(int_range 10 60)
    (fun n ->
      check_engines_agree ~n:(2 * n) ~ticks:6 ~density:0.02;
      true)

(* The optimizer must not change behaviour either. *)
let test_optimizer_preserves_behaviour () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 25) () in
  let sim_opt = Scenario.simulation ~optimize:true ~evaluator:Simulation.Indexed scenario in
  let sim_raw = Scenario.simulation ~optimize:false ~evaluator:Simulation.Indexed scenario in
  for t = 1 to 20 do
    Simulation.step sim_opt;
    Simulation.step sim_raw;
    if Test_engine.sorted_units sim_opt <> Test_engine.sorted_units sim_raw then
      Alcotest.failf "optimizer changed behaviour at tick %d" t
  done

(* Battles must actually fight: damage flows, healing happens. *)
let test_battle_is_lively () =
  let scenario = Scenario.setup ~density:0.03 ~per_side:(Scenario.standard_mix 30) () in
  let sim = Scenario.simulation ~evaluator:Simulation.Indexed scenario in
  let s = Simulation.schema sim in
  Simulation.run sim ~ticks:40;
  let wounded =
    Array.exists
      (fun u ->
        Unit_types.health_of s u
        < Value.to_float (Tuple.get u (Schema.find s "max_health")))
      (Simulation.units sim)
  in
  let r = Simulation.report sim in
  Alcotest.(check bool) "someone is wounded" true wounded;
  Alcotest.(check bool) "someone died" true (r.Simulation.deaths > 0)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "battle.d20",
      [
        tc "profiles" `Quick test_d20_profiles;
        tc "armor class" `Quick test_d20_armor_class;
        qtest d20_attack_matches_script_formula;
      ] );
    ( "battle.program",
      [
        tc "compiles with all scripts" `Quick test_battle_program_compiles;
        tc "exercises every index family" `Quick test_battle_strategies;
      ] );
    ( "battle.scenario",
      [
        tc "density" `Quick test_scenario_density;
        tc "unique cells and sides" `Quick test_scenario_unique_cells_and_sides;
        tc "standard mix" `Quick test_standard_mix;
      ] );
    ( "battle.integration",
      [
        tc "engines agree (small, 25 ticks)" `Quick test_engines_agree_small;
        tc "engines agree (medium)" `Quick test_engines_agree_medium;
        tc "engines agree (dense)" `Quick test_engines_agree_dense;
        qtest engines_agree_property;
        tc "optimizer preserves behaviour" `Quick test_optimizer_preserves_behaviour;
        tc "battle is lively" `Quick test_battle_is_lively;
      ] );
  ]
