(* The shipped mod scripts (examples/scripts/*.sgl) must compile against
   the battle schema and behave identically under both engines — they are
   the "player-created content" the paper's modding story depends on. *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt
open Sgl_util

let scripts_dir () =
  (* tests run in _build/default/test; sources are two levels up *)
  List.find Sys.file_exists
    [ "../examples/scripts"; "examples/scripts"; "../../examples/scripts" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let mods = [ "patrol"; "kiting_archer"; "shield_wall"; "plague" ]

let compile_mod name =
  let path = Filename.concat (scripts_dir ()) (name ^ ".sgl") in
  Compile.compile ~consts:Sgl_battle.Scripts.constants
    ~schema:(Sgl_battle.Unit_types.schema ())
    (read_file path)

let test_mods_compile () =
  List.iter
    (fun name ->
      let prog = compile_mod name in
      Alcotest.(check bool)
        (name ^ " has an entry script")
        true
        (prog.Core_ir.scripts <> []))
    mods

let test_mods_use_indexes () =
  (* every shipped mod should plan at least one non-naive aggregate *)
  List.iter
    (fun name ->
      let prog = compile_mod name in
      let schema = prog.Core_ir.schema in
      let strategies =
        Array.to_list prog.Core_ir.aggregates
        |> List.map (fun agg -> Agg_plan.strategy_name (Agg_plan.analyze schema agg))
      in
      Alcotest.(check bool) (name ^ " aggregates indexed") true
        (strategies <> [] && List.for_all (fun s -> s <> "naive") strategies))
    mods

let test_mods_engines_agree () =
  let s = Sgl_battle.Unit_types.schema () in
  let units =
    Array.init 50 (fun i ->
        Sgl_battle.Unit_types.make_unit s ~key:i ~player:(i mod 2)
          ~klass:
            (match i mod 3 with
            | 0 -> Sgl_battle.D20.Knight
            | 1 -> Sgl_battle.D20.Archer
            | _ -> Sgl_battle.D20.Healer)
          ~x:(3 + (i * 5 mod 40))
          ~y:(3 + (i * 11 mod 25)))
  in
  List.iter
    (fun name ->
      let prog = compile_mod name in
      let entry = (List.hd prog.Core_ir.scripts).Core_ir.name in
      let prng = Prng.create 31 in
      let rand_for_key ~key i = Prng.script_random prng ~tick:0 ~key i in
      let run ev =
        let compiled = Exec.compile prog in
        let groups =
          [ { Exec.script = entry; members = Array.init (Array.length units) (fun i -> i) } ]
        in
        Combine.Acc.to_relation
          (Test_qopt.run_tick compiled ~evaluator:ev ~units ~groups ~rand_for:rand_for_key)
      in
      let naive = run (Test_qopt.naive_of prog) in
      let indexed = run (Test_qopt.indexed_of s prog) in
      Alcotest.(check bool) (name ^ ": naive = indexed") true
        (Relation.equal_as_multiset
           (Test_qopt.normalize_effects s naive)
           (Test_qopt.normalize_effects s indexed)))
    mods

let test_plague_stacks_damage () =
  (* two overlapping plague bearers: their miasma damage must SUM while
     their wards (inaura) must not stack *)
  let s = Sgl_battle.Unit_types.schema () in
  let units =
    [|
      Sgl_battle.Unit_types.make_unit s ~key:0 ~player:0 ~klass:Sgl_battle.D20.Healer ~x:10 ~y:10;
      Sgl_battle.Unit_types.make_unit s ~key:1 ~player:0 ~klass:Sgl_battle.D20.Healer ~x:12 ~y:10;
      Sgl_battle.Unit_types.make_unit s ~key:2 ~player:1 ~klass:Sgl_battle.D20.Knight ~x:11 ~y:10;
    |]
  in
  let prog = compile_mod "plague" in
  let compiled = Exec.compile prog in
  let groups = [ { Exec.script = "plague_bearer"; members = [| 0; 1 |] } ] in
  let acc =
    Test_qopt.run_tick compiled
      ~evaluator:(Test_qopt.indexed_of s prog)
      ~units ~groups ~rand_for:(fun ~key:_ _ -> 0)
  in
  let damage_ix = Schema.find s "damage" in
  (* slot 2: the knight's position in [units] *)
  (match Combine.Acc.find_opt acc 2 with
  | Some row ->
    Alcotest.(check (float 1e-9)) "miasma stacks" 2. (Value.to_float (Tuple.get row damage_ix))
  | None -> Alcotest.fail "victim untouched")

let suite =
  let tc = Alcotest.test_case in
  [
    ( "mods.scripts",
      [
        tc "all mods compile" `Quick test_mods_compile;
        tc "all mods plan indexes" `Quick test_mods_use_indexes;
        tc "engines agree on every mod" `Quick test_mods_engines_agree;
        tc "plague damage stacks, wards do not" `Quick test_plague_stacks_damage;
      ] );
  ]
