(* The static analyzer: diagnostics plumbing, the collect-all typechecker,
   the effect-race detector, the plan translation validator, the
   performance lints, the driver pipeline over the shipped scripts and the
   seeded-defect fixtures — and the differential pin tying a race-clean
   verdict to bit-identical evaluator outcomes. *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt
open Sgl_analysis
open Sgl_battle

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let battle_schema () = Unit_types.schema ()

let post_reads schema =
  List.sort_uniq compare
    (Schema.find schema "movevect_x" :: Schema.find schema "movevect_y"
    :: Sgl_engine.Postprocess.reads (Sgl_engine.Postprocess.battle_spec ~schema))

let analyze_file ?(no_post_reads = false) path : Diagnostic.t list =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let schema = battle_schema () in
  let post_reads = if no_post_reads then [] else post_reads schema in
  match
    Driver.analyze_source ~consts:Scripts.constants ~post_reads ~schema source
  with
  | Ok diags -> diags
  | Error msg -> Alcotest.failf "%s failed to parse: %s" path msg

let rules_of diags = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) diags
let has_rule rule diags = List.mem rule (rules_of diags)

let example_files =
  [
    "../examples/scripts/kiting_archer.sgl";
    "../examples/scripts/patrol.sgl";
    "../examples/scripts/plague.sgl";
    "../examples/scripts/shield_wall.sgl";
  ]

(* ------------------------------------------------------------------ *)
(* Diagnostics and the rule catalogue *)

let catalogue () =
  let ids = List.map (fun (r : Rules.t) -> r.Rules.id) Rules.all in
  Alcotest.(check int) "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      match Rules.find id with
      | Some r -> Alcotest.(check string) "find returns the rule" id r.Rules.id
      | None -> Alcotest.failf "rule %s missing from catalogue" id)
    [ "T001"; "R001"; "R002"; "R003"; "R004"; "V001"; "V002"; "V003"; "P001"; "P002"; "P003";
      "P004"; "P005"; "N001"; "N002"; "N003" ];
  Alcotest.(check bool) "unknown id reports as error" true
    (Rules.severity "Z999" = Diagnostic.Error);
  (* severities pinned: R003/R004/P001/P004/P005 warn, P002/P003 info, rest error *)
  List.iter
    (fun (id, sev) -> Alcotest.(check bool) id true (Rules.severity id = sev))
    [
      ("T001", Diagnostic.Error);
      ("R001", Diagnostic.Error);
      ("R002", Diagnostic.Error);
      ("R003", Diagnostic.Warn);
      ("R004", Diagnostic.Warn);
      ("V001", Diagnostic.Error);
      ("V002", Diagnostic.Error);
      ("V003", Diagnostic.Error);
      ("P001", Diagnostic.Warn);
      ("P002", Diagnostic.Info);
      ("P003", Diagnostic.Info);
      ("P004", Diagnostic.Warn);
      ("P005", Diagnostic.Warn);
      ("N001", Diagnostic.Warn);
      ("N002", Diagnostic.Warn);
      ("N003", Diagnostic.Warn);
    ];
  (* the INTERNALS catalogue table stays in sync both ways: every rule id
     appears, and every [| X000 |] row names a rule in the catalogue *)
  let ic = open_in_bin "../docs/INTERNALS.md" in
  let internals =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun (r : Rules.t) ->
      Alcotest.(check bool)
        (r.Rules.id ^ " documented in INTERNALS.md")
        true
        (contains ~needle:r.Rules.id internals))
    Rules.all;
  let row_id line =
    match String.split_on_char '|' line with
    | "" :: cell :: _ :: _ ->
      let id = String.trim cell in
      if
        String.length id = 4
        && id.[0] >= 'A'
        && id.[0] <= 'Z'
        && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub id 1 3)
      then Some id
      else None
    | _ -> None
  in
  let rows = List.filter_map row_id (String.split_on_char '\n' internals) in
  Alcotest.(check bool) "INTERNALS.md has a rule table" true (rows <> []);
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " row names a catalogued rule") true (List.mem id ids))
    rows

let rendering () =
  let d =
    Diagnostic.make ~rule:"R001" ~severity:Diagnostic.Error
      ~pos:{ Ast.line = 3; col = 7 } ~context:"medic" "writes \"health\"\nbadly"
  in
  let line = Diagnostic.to_string ~file:"f.sgl" d in
  Alcotest.(check bool) "file:line:col prefix" true (contains ~needle:"f.sgl:3:7:" line);
  Alcotest.(check bool) "severity and rule" true (contains ~needle:"error R001" line);
  Alcotest.(check bool) "context" true (contains ~needle:"[medic]" line);
  let json = Diagnostic.to_json ~file:"f.sgl" [ d ] in
  Alcotest.(check bool) "escapes quotes" true (contains ~needle:"\\\"health\\\"" json);
  Alcotest.(check bool) "escapes newline" true (contains ~needle:"\\n" json);
  Alcotest.(check string) "empty array" "[]\n" (Diagnostic.to_json []);
  (* sort: position first, then severity, then rule *)
  let mk rule sev line = Diagnostic.make ~rule ~severity:sev ~pos:{ Ast.line; col = 1 } "m" in
  let sorted =
    Diagnostic.sort
      [ mk "P004" Diagnostic.Warn 9; mk "T001" Diagnostic.Error 2; mk "R003" Diagnostic.Warn 2 ]
  in
  Alcotest.(check (list string)) "stable order" [ "T001"; "R003"; "P004" ] (rules_of sorted);
  let c = Diagnostic.count sorted in
  Alcotest.(check (list int)) "counts" [ 1; 2; 0 ]
    [ c.Diagnostic.errors; c.Diagnostic.warnings; c.Diagnostic.infos ]

(* ------------------------------------------------------------------ *)
(* Collect-all typechecking *)

let multi_error_source =
  {|
action A(u) {
  on self { health <- 1.0; }
}

script one(u) {
  let x = u.mana;
  perform A(u);
}

script two(u) {
  let y = u.psi;
  if y > 0.0 then { perform A(u); }
}
|}

let collect_all () =
  let schema = battle_schema () in
  let prog = Compile.parse multi_error_source in
  let diags = Typecheck.check_all ~consts:Scripts.constants ~schema prog in
  Alcotest.(check bool) "several diagnostics" true (List.length diags >= 3);
  let messages = List.map (fun (d : Typecheck.diagnostic) -> d.Typecheck.message) diags in
  Alcotest.(check bool) "finds mana" true
    (List.exists (contains ~needle:"mana") messages);
  Alcotest.(check bool) "finds psi" true (List.exists (contains ~needle:"psi") messages);
  Alcotest.(check bool) "finds const write" true
    (List.exists (contains ~needle:"health") messages);
  List.iter
    (fun (d : Typecheck.diagnostic) ->
      Alcotest.(check bool) "every diagnostic is positioned" true (d.Typecheck.pos <> Ast.no_pos))
    diags;
  (* the raising wrapper reports the first collected diagnostic *)
  (match Typecheck.check ~consts:Scripts.constants ~schema prog with
  | () -> Alcotest.fail "check should raise"
  | exception Typecheck.Type_error m ->
    Alcotest.(check string) "check raises the first diagnostic"
      (Typecheck.diagnostic_to_string (List.hd diags))
      m);
  (* a clean program collects nothing *)
  let clean = Compile.parse Scripts.source in
  Alcotest.(check int) "battle scripts collect zero" 0
    (List.length (Typecheck.check_all ~consts:Scripts.constants ~schema clean))

(* ------------------------------------------------------------------ *)
(* Effect races *)

let race_summaries () =
  let schema = battle_schema () in
  let prog = Scripts.compile () in
  let summaries = Effect_race.summarize prog in
  Alcotest.(check bool) "one summary per script" true
    (List.length summaries = List.length prog.Core_ir.scripts);
  let damage = Schema.find schema "damage" in
  let writes_damage =
    List.filter
      (fun (s : Effect_race.summary) ->
        List.exists (fun (w : Effect_race.write) -> w.Effect_race.attr = damage) s.Effect_race.writes)
      summaries
  in
  Alcotest.(check bool) "someone writes damage" true (writes_damage <> [])

(* A const write-write race assembled through the library API: the
   typechecker never sees this program, the race detector must. *)
let const_conflict_program () : Core_ir.program =
  let schema = battle_schema () in
  let armor = Schema.find schema "armor" in
  let clause target = { Core_ir.target; updates = [ (armor, Expr.Const (Value.Int 1)) ] } in
  {
    Core_ir.schema;
    aggregates = [||];
    scripts =
      [
        { Core_ir.name = "sunder"; body = Core_ir.Effects [ clause (Core_ir.All Predicate.always_true) ] };
        { Core_ir.name = "rust"; body = Core_ir.Effects [ clause Core_ir.Self ] };
      ];
  }

let race_const_conflict () =
  let diags = Effect_race.check (const_conflict_program ()) in
  Alcotest.(check bool) "R001 per write site" true
    (List.length (List.filter (fun r -> r = "R001") (rules_of diags)) = 2);
  Alcotest.(check bool) "R002 write-write race" true (has_rule "R002" diags);
  let r2 = List.find (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "R002") diags in
  Alcotest.(check bool) "R002 names both writers" true
    (contains ~needle:"sunder" r2.Diagnostic.message
    && contains ~needle:"rust" r2.Diagnostic.message);
  Alcotest.(check bool) "races are errors" true
    ((Diagnostic.count diags).Diagnostic.errors >= 3)

let race_pending_and_dead () =
  let schema = battle_schema () in
  let damage = Schema.find schema "damage" in
  let inaura = Schema.find schema "inaura" in
  let prog =
    {
      Core_ir.schema;
      aggregates = [||];
      scripts =
        [
          {
            Core_ir.name = "w";
            body =
              Core_ir.If
                ( Expr.Cmp (Expr.Gt, Expr.UAttr damage, Expr.Const (Value.Float 0.)),
                  Core_ir.Effects
                    [
                      {
                        Core_ir.target = Core_ir.Self;
                        updates =
                          [
                            (damage, Expr.Const (Value.Float 1.));
                            (inaura, Expr.Const (Value.Float 1.));
                          ];
                      };
                    ],
                  Core_ir.Skip );
          };
        ];
    }
  in
  let diags = Effect_race.check ~post_reads:[] prog in
  Alcotest.(check bool) "R003 pending read" true (has_rule "R003" diags);
  Alcotest.(check bool) "R004 dead inaura" true (has_rule "R004" diags);
  (* damage is read (by the script itself), so only inaura is dead *)
  let dead = List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.rule = "R004") diags in
  Alcotest.(check int) "exactly one dead effect" 1 (List.length dead);
  Alcotest.(check bool) "the dead one is inaura" true
    (contains ~needle:"inaura" (List.hd dead).Diagnostic.message);
  (* post_reads consume inaura: R004 disappears *)
  let diags' = Effect_race.check ~post_reads:[ inaura ] prog in
  Alcotest.(check bool) "post-read silences R004" false (has_rule "R004" diags')

(* ------------------------------------------------------------------ *)
(* Plan validation *)

let plans_validate () =
  (* every optimizer output over the shipped scripts is shape-correct and
     ⊕-equivalent to its unrewritten translation *)
  let schema = battle_schema () in
  let check_source name source =
    let prog = Compile.compile ~consts:Scripts.constants ~schema source in
    match Plan_check.validate_program prog with
    | [] -> ()
    | ds ->
      Alcotest.failf "%s: validator rejected optimizer output: %s" name
        (String.concat "; " (List.map (fun d -> Diagnostic.to_string d) ds))
  in
  check_source "battle" Scripts.source;
  List.iter
    (fun path ->
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_source path src)
    example_files

let shape_rejects_broken () =
  let schema = battle_schema () in
  let arity = Schema.arity schema in
  let damage = Schema.find schema "damage" in
  let health = Schema.find schema "health" in
  (* reads a register nothing bound *)
  let unbound =
    Plan.Bind
      ( arity,
        Plan.Bind_expr (Expr.UAttr (arity + 5)),
        Plan.Act [ { Core_ir.target = Core_ir.Self; updates = [ (damage, Expr.UAttr arity) ] } ] )
  in
  let ds = Plan_check.validate_shape ~schema ~aggs:[||] ~script:"s" unbound in
  Alcotest.(check bool) "unbound register is V001" true (has_rule "V001" ds);
  (* effect on a const attribute *)
  let const_act =
    Plan.Act
      [ { Core_ir.target = Core_ir.Self; updates = [ (health, Expr.Const (Value.Float 1.)) ] } ]
  in
  let ds = Plan_check.validate_shape ~schema ~aggs:[||] ~script:"s" const_act in
  Alcotest.(check bool) "const effect is V001" true (has_rule "V001" ds);
  Alcotest.(check bool) "message names the attribute" true
    (List.exists (fun (d : Diagnostic.t) -> contains ~needle:"health" d.Diagnostic.message) ds);
  (* out-of-range aggregate instance *)
  let bad_agg = Plan.Bind (arity, Plan.Bind_agg 3, Plan.Nop) in
  let ds = Plan_check.validate_shape ~schema ~aggs:[||] ~script:"s" bad_agg in
  Alcotest.(check bool) "unknown instance is V001" true (has_rule "V001" ds);
  (* a well-formed plan passes *)
  let ok =
    Plan.Bind
      ( arity,
        Plan.Bind_expr (Expr.Const (Value.Float 2.)),
        Plan.Select
          ( Expr.Cmp (Expr.Gt, Expr.UAttr arity, Expr.Const (Value.Float 1.)),
            Plan.Act [ { Core_ir.target = Core_ir.Self; updates = [ (damage, Expr.UAttr arity) ] } ],
            Plan.Nop ) )
  in
  Alcotest.(check int) "clean plan has no findings" 0
    (List.length (Plan_check.validate_shape ~schema ~aggs:[||] ~script:"s" ok))

let rewrite_equivalence () =
  let schema = battle_schema () in
  let damage = Schema.find schema "damage" in
  let act = Plan.Act [ { Core_ir.target = Core_ir.Self; updates = [ (damage, Expr.Const (Value.Float 1.)) ] } ] in
  let cond = Expr.Cmp (Expr.Gt, Expr.UAttr (Schema.find schema "posx"), Expr.Const (Value.Float 0.)) in
  let original = Plan.Select (cond, act, Plan.Nop) in
  (* dropping the guarded act is caught *)
  let ds = Plan_check.validate_rewrite ~script:"s" ~original ~optimized:Plan.Nop () in
  Alcotest.(check (list string)) "dropped act is V002" [ "V002" ] (rules_of ds);
  (* constant-guard discharge is legal, matching the pruning rewrite *)
  let taut = Plan.Select (Expr.Const (Value.Bool true), act, Plan.Nop) in
  Alcotest.(check int) "tautological guard discharges" 0
    (List.length (Plan_check.validate_rewrite ~script:"s" ~original:taut ~optimized:act ()));
  let unsat = Plan.Select (Expr.Const (Value.Bool false), act, Plan.Nop) in
  Alcotest.(check int) "unsatisfiable guard prunes the act" 0
    (List.length (Plan_check.validate_rewrite ~script:"s" ~original:unsat ~optimized:Plan.Nop ()));
  (* but silently *changing* the guard is not equivalent *)
  let other = Plan.Select (Expr.Cmp (Expr.Lt, Expr.UAttr (Schema.find schema "posy"), Expr.Const (Value.Float 0.)), act, Plan.Nop) in
  Alcotest.(check bool) "guard change is V002" true
    (has_rule "V002" (Plan_check.validate_rewrite ~script:"s" ~original ~optimized:other ()))

(* ------------------------------------------------------------------ *)
(* Driver over shipped scripts and seeded fixtures *)

let shipped_scripts_clean () =
  List.iter
    (fun path ->
      let diags = analyze_file path in
      let c = Diagnostic.count diags in
      Alcotest.(check int) (path ^ ": errors") 0 c.Diagnostic.errors;
      Alcotest.(check int) (path ^ ": warnings") 0 c.Diagnostic.warnings)
    example_files;
  let schema = battle_schema () in
  match
    Driver.analyze_source ~consts:Scripts.constants ~post_reads:(post_reads schema) ~schema
      Scripts.source
  with
  | Error m -> Alcotest.failf "battle source: %s" m
  | Ok diags ->
    let c = Diagnostic.count diags in
    Alcotest.(check int) "battle: errors" 0 c.Diagnostic.errors;
    Alcotest.(check int) "battle: warnings" 0 c.Diagnostic.warnings

(* Every fixture is flagged by the rule its file name prefix names
   ([t001_...] expects T001), the same rule scripts/lint-fixtures.sh
   applies; [r004_] fixtures run with no post-processing reads. *)
let fixtures_flagged () =
  let dir = "../examples/lint_fixtures" in
  let fixtures =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sgl")
    |> List.sort compare
  in
  Alcotest.(check bool) "fixtures present" true (fixtures <> []);
  List.iter
    (fun file ->
      let prefix = match String.index_opt file '_' with Some i -> String.sub file 0 i | None -> file in
      let rule = String.uppercase_ascii prefix in
      let path = Filename.concat dir file in
      let diags = analyze_file ~no_post_reads:(prefix = "r004") path in
      if not (has_rule rule diags) then
        Alcotest.failf "%s: expected %s, got [%s]" path rule (String.concat "; " (rules_of diags)))
    fixtures

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trip: parse . print = identity up to Core IR *)

let core_fingerprint ~schema ~consts (prog : Ast.program) : string =
  let core = Compile.compile_ast ~consts ~schema prog in
  let buf = Buffer.create 1024 in
  Array.iter
    (fun agg -> Buffer.add_string buf (Fmt.str "%a@." Aggregate.pp agg))
    core.Core_ir.aggregates;
  List.iter
    (fun (s : Core_ir.script) ->
      Buffer.add_string buf (Fmt.str "script %s:@.%a@." s.Core_ir.name Core_ir.pp s.Core_ir.body))
    core.Core_ir.scripts;
  Buffer.contents buf

let roundtrip_source name source =
  let schema = battle_schema () in
  let consts = Scripts.constants in
  let prog = Compile.parse source in
  let printed = Pretty.program_to_string prog in
  let reparsed =
    try Compile.parse printed
    with Compile.Compile_error e ->
      Alcotest.failf "%s: pretty output does not parse: %s@.%s" name (Compile.error_to_string e)
        printed
  in
  Alcotest.(check string)
    (name ^ ": same core IR after round trip")
    (core_fingerprint ~schema ~consts prog)
    (core_fingerprint ~schema ~consts reparsed)

let pretty_roundtrip () =
  roundtrip_source "battle" Scripts.source;
  List.iter
    (fun path ->
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      roundtrip_source path src)
    example_files

(* ------------------------------------------------------------------ *)
(* The differential pin: a race-clean verdict is what licenses the
   bit-identical-across-evaluators guarantee; a seeded const conflict is
   flagged statically, before any divergence could be observed. *)

let certified_differential () =
  let schema = battle_schema () in
  let prog = Scripts.compile () in
  let diags = Effect_race.check ~post_reads:(post_reads schema) prog in
  Alcotest.(check int) "battle program is race-certified" 0
    ((Diagnostic.count diags).Diagnostic.errors);
  Test_engine.differential ~ticks:25 ~make_sim:(fun evaluator ->
      let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 24) () in
      Scenario.simulation ~seed:23 ~evaluator scenario) ()

let conflict_flagged_statically () =
  (* the same check certifying the battle program rejects the seeded
     conflict — the lint gates before execution, not after *)
  let diags = Effect_race.check (const_conflict_program ()) in
  Alcotest.(check bool) "const conflict is rejected" true
    ((Diagnostic.count diags).Diagnostic.errors > 0);
  Alcotest.(check bool) "by the write-write race rule" true (has_rule "R002" diags)

let suite =
  [
    ( "analysis",
      [
        Alcotest.test_case "rule catalogue" `Quick catalogue;
        Alcotest.test_case "diagnostic rendering and JSON" `Quick rendering;
        Alcotest.test_case "typecheck collects all diagnostics" `Quick collect_all;
        Alcotest.test_case "race summaries" `Quick race_summaries;
        Alcotest.test_case "const write-write race (R001/R002)" `Quick race_const_conflict;
        Alcotest.test_case "pending read and dead effect (R003/R004)" `Quick race_pending_and_dead;
        Alcotest.test_case "optimizer outputs validate" `Quick plans_validate;
        Alcotest.test_case "shape validator rejects broken plans (V001)" `Quick shape_rejects_broken;
        Alcotest.test_case "rewrite equivalence (V002)" `Quick rewrite_equivalence;
        Alcotest.test_case "shipped scripts lint clean" `Quick shipped_scripts_clean;
        Alcotest.test_case "seeded fixtures flagged by rule id" `Quick fixtures_flagged;
        Alcotest.test_case "pretty round trip preserves core IR" `Quick pretty_roundtrip;
        Alcotest.test_case "race-certified differential pin" `Slow certified_differential;
        Alcotest.test_case "const conflict flagged before divergence" `Quick conflict_flagged_statically;
      ] );
  ]
