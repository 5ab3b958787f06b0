(* Edge cases and failure injection across the stack: degenerate inputs,
   pathological geometry, strict bounds, full grids, zero-size worlds. *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt
open Sgl_util

let schema () = Test_lang.schema ()

(* ------------------------------------------------------------------ *)
(* Lexer / parser degenerates *)

let test_empty_sources () =
  Alcotest.(check int) "empty program" 0 (List.length (Parser.parse_string ""));
  Alcotest.(check int) "comments only" 0
    (List.length (Parser.parse_string "# nothing\n// here either\n"))

let test_int_overflow_literal () =
  Alcotest.(check bool) "overflow rejected cleanly" true
    (try
       ignore (Lexer.tokenize "script m(u) { let x = 99999999999999999999999; skip; }");
       false
     with Lexer.Lex_error _ -> true)

let test_deep_nesting () =
  let deep = String.concat "" (List.init 60 (fun _ -> "(")) in
  let close = String.concat "" (List.init 60 (fun _ -> ")")) in
  let t = Parser.parse_term_string (deep ^ "1" ^ close) in
  Alcotest.(check bool) "parses" true (t = Ast.T_int 1)

let test_keyword_key_as_attribute () =
  (* "key" is a keyword but must still work as an attribute and argmin
     result *)
  let src =
    "aggregate A(u) { argmin(e.health; e.key) where e.player <> u.player default -1 } script \
     m(u) { let k = A(u); if u.key = k then { skip; } }"
  in
  ignore (Compile.compile ~schema:(schema ()) src)

(* ------------------------------------------------------------------ *)
(* Pathological geometry: the equivalence must survive it *)

let stacked_units s n =
  (* every unit on the same cell, alternating players *)
  Array.init n (fun i ->
      Test_lang.mk_unit s ~key:i ~player:(i mod 2) ~x:5. ~y:5. ~health:(10 + i) ~range:4.
        ~morale:2 ~cooldown:0)

let test_identical_positions () =
  let s = schema () in
  let prog = Compile.compile ~schema:s Test_lang.figure3_source in
  let units = stacked_units s 30 in
  let prng = Prng.create 3 in
  let rand_for_key ~key i = Prng.script_random prng ~tick:0 ~key i in
  let rand_for u i = rand_for_key ~key:(Tuple.key s u) i in
  let reference =
    Test_qopt.normalize_effects s
      (Combine.combine
         (Interp.run_script ~prog
            ~script:(Option.get (Core_ir.find_script prog "main"))
            ~units ~rand_for))
  in
  let indexed =
    Test_qopt.normalize_effects s
      (let compiled = Exec.compile prog in
       let groups = [ { Exec.script = "main"; members = Array.init 30 (fun i -> i) } ] in
       Combine.Acc.to_relation
         (Test_qopt.run_tick compiled
            ~evaluator:(Test_qopt.indexed_of s prog)
            ~units ~groups ~rand_for:rand_for_key))
  in
  Alcotest.(check bool) "stacked units agree" true (Relation.equal_as_multiset reference indexed)

let strict_bounds_source =
  {|
aggregate StrictCount(u) {
  count(*)
  where e.player <> u.player
    and e.posx > u.posx - 5.0 and e.posx < u.posx + 5.0
    and e.posy > u.posy - 5.0 and e.posy < u.posy + 5.0
}
action Tag(u) { on self { damage <- 1; } }
script main(u) {
  let c = StrictCount(u);
  if c > 0 then { perform Tag(u); }
}
|}

let test_strict_bounds_equivalence () =
  (* strict bounds on the lattice hit the boundary constantly: the interval
     logic must match the scan exactly *)
  Test_qopt.check_equivalence ~src:strict_bounds_source ~script:"main" ~n:80 ~seed:21 ()

let unbounded_source =
  {|
aggregate AllEnemies(u) { count(*) where e.player <> u.player }
action Tag(u) { on self { damage <- 1; } }
script main(u) {
  let c = AllEnemies(u);
  if c > 0 then { perform Tag(u); }
}
|}

let test_no_box_equivalence () =
  (* zero box dimensions: the Div_total partition path *)
  Test_qopt.check_equivalence ~src:unbounded_source ~script:"main" ~n:50 ~seed:22 ()

let half_open_source =
  {|
# only a lower bound: a half-open slab, not a box
aggregate EastOfMe(u) { count(*) where e.posx >= u.posx and e.player <> u.player }
action Tag(u) { on self { damage <- 1; } }
script main(u) {
  let c = EastOfMe(u);
  if c > 3 then { perform Tag(u); }
}
|}

let test_half_open_equivalence () =
  Test_qopt.check_equivalence ~src:half_open_source ~script:"main" ~n:60 ~seed:23 ()

(* ------------------------------------------------------------------ *)
(* Engine degenerates *)

let test_zero_tick_simulation () =
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.02 ~per_side:(Sgl_battle.Scenario.standard_mix 10) ()
  in
  let sim = Sgl_battle.Scenario.simulation ~evaluator:Sgl_engine.Simulation.Indexed scenario in
  Sgl_engine.Simulation.run sim ~ticks:0;
  Alcotest.(check int) "no ticks" 0 (Sgl_engine.Simulation.tick_count sim)

let test_single_unit_battle () =
  (* one knight alone: nothing to fight, nothing to crash *)
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.01
      ~per_side:{ Sgl_battle.Scenario.knights = 1; archers = 0; healers = 0 }
      ()
  in
  let sim = Sgl_battle.Scenario.simulation ~evaluator:Sgl_engine.Simulation.Indexed scenario in
  Sgl_engine.Simulation.run sim ~ticks:10;
  Alcotest.(check int) "both survive" 2 (Array.length (Sgl_engine.Simulation.units sim))

let test_full_grid_resurrection () =
  (* a grid too small for free cells: resurrection must degrade gracefully *)
  let s = Sgl_battle.Unit_types.schema () in
  let units =
    Array.init 4 (fun i ->
        Sgl_battle.Unit_types.make_unit s ~key:i ~player:(i mod 2) ~klass:Sgl_battle.D20.Knight
          ~x:(i mod 2) ~y:(i / 2))
  in
  let prog = Sgl_battle.Scripts.compile () in
  let config =
    {
      Sgl_engine.Simulation.prog;
      script_of = (fun _ -> Some "knight");
      postprocess = Sgl_engine.Postprocess.battle_spec ~schema:s;
      movement =
        Some
          {
            Sgl_engine.Movement.posx = Schema.find s "posx";
            posy = Schema.find s "posy";
            mvx = Schema.find s "movevect_x";
            mvy = Schema.find s "movevect_y";
            speed = 2.;
            speed_attr = None;
            width = 2;
            height = 2;
          };
      death =
        Sgl_engine.Simulation.Resurrect
          { health = Schema.find s "health"; max_health = Schema.find s "max_health" };
      seed = 5;
      optimize = true;
    }
  in
  let sim = Sgl_engine.Simulation.create config ~evaluator:Sgl_engine.Simulation.Indexed ~units in
  Sgl_engine.Simulation.run sim ~ticks:30;
  Alcotest.(check int) "population constant on a full grid" 4
    (Array.length (Sgl_engine.Simulation.units sim))

let test_aggregate_error_reports_name () =
  (* empty selection without default: the error must name the aggregate *)
  let s = schema () in
  let src =
    "aggregate Lonely(u) { min(e.health) where e.player <> u.player } script main(u) { let m = \
     Lonely(u); if m > 0 then { skip; } }"
  in
  let prog = Compile.compile ~schema:s src in
  let units = [| Test_lang.mk_unit s ~key:0 ~player:0 ~x:0. ~y:0. ~health:10 ~range:1. ~morale:0 ~cooldown:0 |] in
  let run () =
    ignore
      (Interp.run_script ~prog
         ~script:(Option.get (Core_ir.find_script prog "main"))
         ~units ~rand_for:(fun _ _ -> 0))
  in
  let contains ~needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names Lonely" true
    (try
       run ();
       false
     with Aggregate.Aggregate_error m -> contains ~needle:"Lonely" m)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "edge.sources",
      [
        tc "empty and comment-only" `Quick test_empty_sources;
        tc "integer overflow literal" `Quick test_int_overflow_literal;
        tc "deep nesting" `Quick test_deep_nesting;
        tc "'key' as attribute" `Quick test_keyword_key_as_attribute;
      ] );
    ( "edge.geometry",
      [
        tc "all units stacked on one cell" `Quick test_identical_positions;
        tc "strict bounds on the lattice" `Quick test_strict_bounds_equivalence;
        tc "no box dimensions" `Quick test_no_box_equivalence;
        tc "half-open slab" `Quick test_half_open_equivalence;
      ] );
    ( "edge.engine",
      [
        tc "zero ticks" `Quick test_zero_tick_simulation;
        tc "single unit per side" `Quick test_single_unit_battle;
        tc "resurrection on a full grid" `Quick test_full_grid_resurrection;
        tc "aggregate error names the aggregate" `Quick test_aggregate_error_reports_name;
      ] );
  ]
