(* Tests for the optimizer layer: strategy classification, plan rewriting,
   and — the core correctness property of the whole system — exact
   agreement between the reference interpreter, the naive set-at-a-time
   executor and the fully indexed executor. *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt
open Sgl_util

let schema () = Test_lang.schema ()

(* Evaluators over a program's aggregates, each counting into a private
   registry. *)
let naive_of (prog : Core_ir.program) : Eval.t =
  Eval.naive ~tel:(Telemetry.Registry.create ()) ~aggregates:prog.Core_ir.aggregates

let indexed_of ?share (schema : Schema.t) (prog : Core_ir.program) : Eval.t =
  Eval.indexed ?share ~tel:(Telemetry.Registry.create ()) ~schema
    ~aggregates:prog.Core_ir.aggregates ()

(* ------------------------------------------------------------------ *)
(* Agg_plan classification *)

let box_pred range_expr =
  let open Expr in
  [
    Cmp (Ge, EAttr 2, Binop (Sub, UAttr 2, range_expr));
    Cmp (Le, EAttr 2, Binop (Add, UAttr 2, range_expr));
    Cmp (Ge, EAttr 3, Binop (Sub, UAttr 3, range_expr));
    Cmp (Le, EAttr 3, Binop (Add, UAttr 3, range_expr));
    Cmp (Ne, EAttr 1, UAttr 1);
  ]

let test_plan_divisible_cascade () =
  let agg =
    Aggregate.make ~name:"count" ~kinds:[ Aggregate.Count ]
      ~where_:(box_pred (Expr.Const (Value.Float 5.))) ()
  in
  match Agg_plan.analyze (schema ()) agg with
  | Agg_plan.Indexed { access; components; sweep; enumerate; _ } ->
    Alcotest.(check int) "2 box dims" 2 (List.length access.Agg_plan.boxes);
    Alcotest.(check int) "1 cat ne" 1 (List.length access.Agg_plan.cat_nes);
    Alcotest.(check bool) "no sweep for divisible" true (sweep = None);
    Alcotest.(check bool) "not enumerating" false enumerate;
    (match components with
    | [ Agg_plan.C_divisible _ ] -> ()
    | _ -> Alcotest.fail "expected one divisible component")
  | other -> Alcotest.failf "expected Indexed, got %s" (Agg_plan.strategy_name other)

let test_plan_uniform () =
  let agg =
    Aggregate.make ~name:"stddev_all" ~kinds:[ Aggregate.Std_dev (Expr.EAttr 2) ]
      ~where_:Predicate.always_true ()
  in
  Alcotest.(check string) "uniform" "uniform"
    (Agg_plan.strategy_name (Agg_plan.analyze (schema ()) agg))

let test_plan_sweep () =
  let agg =
    Aggregate.make ~name:"weakest"
      ~kinds:[ Aggregate.Arg_min { objective = Expr.EAttr 4; result = Expr.EAttr 0 } ]
      ~where_:(box_pred (Expr.Const (Value.Float 5.)))
      ~default:(Expr.Const (Value.Int (-1)))
      ()
  in
  match Agg_plan.analyze (schema ()) agg with
  | Agg_plan.Indexed { sweep = Some info; _ } ->
    Alcotest.(check (float 0.)) "rx" 5. info.Agg_plan.rx;
    Alcotest.(check int) "x center" 2 info.Agg_plan.x_center
  | other -> Alcotest.failf "expected sweep, got %s" (Agg_plan.strategy_name other)

let test_plan_sweep_requires_constant_range () =
  (* range = u.range is not constant: must fall back to enumeration. *)
  let agg =
    Aggregate.make ~name:"weakest_var"
      ~kinds:[ Aggregate.Min_agg (Expr.EAttr 4) ]
      ~where_:(box_pred (Expr.UAttr 5))
      ~default:(Expr.Const (Value.Int (-1)))
      ()
  in
  match Agg_plan.analyze (schema ()) agg with
  | Agg_plan.Indexed { sweep = None; _ } -> ()
  | other -> Alcotest.failf "expected no sweep, got %s" (Agg_plan.strategy_name other)

let test_plan_nearest () =
  let agg =
    Aggregate.make ~name:"nearest"
      ~kinds:
        [
          Aggregate.Nearest
            { ex = Expr.EAttr 2; ey = Expr.EAttr 3; ux = Expr.UAttr 2; uy = Expr.UAttr 3; result = Expr.EAttr 0 };
        ]
      ~where_:[ Expr.Cmp (Expr.Ne, Expr.EAttr 1, Expr.UAttr 1) ]
      ~default:(Expr.Const (Value.Int (-1)))
      ()
  in
  match Agg_plan.analyze (schema ()) agg with
  | Agg_plan.Indexed { components = [ Agg_plan.C_nearest _ ]; _ } -> ()
  | other -> Alcotest.failf "expected nearest, got %s" (Agg_plan.strategy_name other)

let test_plan_random_is_naive () =
  let agg =
    Aggregate.make ~name:"rand" ~kinds:[ Aggregate.Count ]
      ~where_:[ Expr.Cmp (Expr.Gt, Expr.Random (Expr.Const (Value.Int 1)), Expr.Const (Value.Int 0)) ]
      ()
  in
  Alcotest.(check string) "naive" "naive"
    (Agg_plan.strategy_name (Agg_plan.analyze (schema ()) agg))

let test_plan_canonicalize () =
  (* u.posx - 5 <= e.posx is a lower bound after canonicalization. *)
  let c =
    Agg_plan.canonicalize_conjunct
      (Expr.Cmp
         ( Expr.Le,
           Expr.Binop (Expr.Sub, Expr.UAttr 2, Expr.Const (Value.Float 5.)),
           Expr.EAttr 2 ))
  in
  (match Predicate.classify_conjunct c with
  | Predicate.Lower (2, _) -> ()
  | _ -> Alcotest.failf "not canonicalized: %a" Expr.pp c);
  (* e.posx + 3 <= u.posx moves the offset across. *)
  let c2 =
    Agg_plan.canonicalize_conjunct
      (Expr.Cmp
         ( Expr.Le,
           Expr.Binop (Expr.Add, Expr.EAttr 2, Expr.Const (Value.Float 3.)),
           Expr.UAttr 2 ))
  in
  match Predicate.classify_conjunct c2 with
  | Predicate.Upper (2, _) -> ()
  | _ -> Alcotest.failf "offset not moved: %a" Expr.pp c2

(* ------------------------------------------------------------------ *)
(* Plan rewriting *)

let compile_plans src =
  let prog = Compile.compile ~schema:(schema ()) src in
  (prog, Exec.compile prog)

let test_rewrite_sinks_unused_agg () =
  (* Figure 6 (a) -> (b): the centroid aggregate is only needed when the
     unit flees, so it must sink into the then-branch. *)
  let prog = Compile.compile ~schema:(schema ()) Test_lang.figure3_source in
  let compiled = Exec.compile prog in
  let plan = Option.get (Exec.find_plan compiled "main") in
  (* After optimization the top of the plan binds only the count aggregate;
     the centroid bind lives under the first selection. *)
  (match plan with
  | Plan.Bind (_, Plan.Bind_agg 0, Plan.Select (_, Plan.Bind (_, Plan.Bind_agg 1, _), _)) -> ()
  | other -> Alcotest.failf "centroid did not sink:@.%a" Plan.pp other);
  Alcotest.(check bool) "some binds sank" true (compiled.Exec.rewrites.Rewrite.sunk > 0)

let test_rewrite_drops_dead_bind () =
  let _, compiled =
    compile_plans "script main(u) { let dead = u.posx + 1.0; skip; }"
  in
  let plan = Option.get (Exec.find_plan compiled "main") in
  Alcotest.(check bool) "dead bind dropped" true (plan = Plan.Nop)

let test_rewrite_prunes_constants () =
  let _, compiled =
    compile_plans
      "action A(u) { on self { damage <- 1; } } script main(u) { if true then { perform A(u); } \
       else { skip; } }"
  in
  let plan = Option.get (Exec.find_plan compiled "main") in
  match plan with
  | Plan.Act _ -> ()
  | other -> Alcotest.failf "constant selection not pruned:@.%a" Plan.pp other

let test_rewrite_preserves_guarding_condition () =
  (* A bind read by the selection condition itself must not sink. *)
  let _, compiled =
    compile_plans
      {|
aggregate C(u) { count(*) where e.player <> u.player }
action A(u) { on self { damage <- 1; } }
script main(u) { let c = C(u); if c > 0 then { perform A(u); } }
|}
  in
  let plan = Option.get (Exec.find_plan compiled "main") in
  match plan with
  | Plan.Bind (_, Plan.Bind_agg _, Plan.Select _) -> ()
  | other -> Alcotest.failf "bind wrongly moved:@.%a" Plan.pp other

(* ------------------------------------------------------------------ *)
(* Equivalence: reference interpreter = naive exec = indexed exec *)

(* Random armies on an integer lattice, so float sums are exact and the
   equality can be bitwise. *)
let random_units s ~n ~seed =
  let prng = Prng.create seed in
  Array.init n (fun i ->
      Test_lang.mk_unit s ~key:i
        ~player:(Prng.int prng ~bound:2 [ i; 1 ])
        ~x:(float_of_int (Prng.int prng ~bound:40 [ i; 2 ]))
        ~y:(float_of_int (Prng.int prng ~bound:40 [ i; 3 ]))
        ~health:(20 + Prng.int prng ~bound:80 [ i; 4 ])
        ~range:(float_of_int (3 + Prng.int prng ~bound:3 [ i; 5 ]))
        ~morale:(Prng.int prng ~bound:4 [ i; 6 ])
        ~cooldown:(Prng.int prng ~bound:2 [ i; 7 ]))

(* Neutral-vs-zero normalization: the reference path materializes untouched
   effect attributes as initialized zeros, the accumulator as combination
   neutrals; both mean "no contribution".  Folding the initialized zero into
   each makes them comparable (and matches what post-processing computes). *)
let normalize_effects s (r : Relation.t) : Relation.t =
  Relation.map_rows
    (fun row ->
      let out = Tuple.copy row in
      List.iter
        (fun i ->
          let zero = Value.zero_of (Schema.ty_at s i) in
          Tuple.set out i (Schema.combine_values s i zero (Tuple.get out i)))
        (Schema.effect_indices s);
      out)
    r

let effects_reference prog script_name units rand_for =
  let script = Option.get (Core_ir.find_script prog script_name) in
  Combine.combine (Interp.run_script ~prog ~script ~units ~rand_for)

(* [Exec.run_tick] over [units] and their column store, as a simulation
   keeps it: every kernel test runs the column path the engine runs.
   Returns the tick's accumulator (slot [p]: the effects on [units.(p)]). *)
let run_tick (c : Exec.compiled) ~evaluator ~units ~groups ~rand_for =
  let schema = c.Exec.prog.Core_ir.schema in
  let cols = Colstore.of_tuples schema units in
  let acc = Combine.Acc.create schema ~positions:(Array.length units) in
  Exec.run_tick ~cols ~acc c ~evaluator ~units ~groups ~rand_for;
  acc

let effects_exec ~optimize ~evaluator prog script_name units rand_for_key =
  let compiled = Exec.compile ~optimize prog in
  let groups =
    [ { Exec.script = script_name; members = Array.init (Array.length units) (fun i -> i) } ]
  in
  let acc = run_tick compiled ~evaluator ~units ~groups ~rand_for:rand_for_key in
  Combine.Acc.to_relation acc

let check_equivalence ?(src = Test_lang.figure3_source) ~script ~n ~seed () =
  let s = schema () in
  let prog = Compile.compile ~schema:s src in
  let units = random_units s ~n ~seed in
  let prng = Prng.create (seed * 7919) in
  let rand_for_key ~key i = Prng.script_random prng ~tick:0 ~key i in
  let rand_for u i = rand_for_key ~key:(Tuple.key s u) i in
  let reference = normalize_effects s (effects_reference prog script units rand_for) in
  let naive_eval = naive_of prog in
  let indexed_eval = indexed_of s prog in
  let naive =
    normalize_effects s (effects_exec ~optimize:false ~evaluator:naive_eval prog script units rand_for_key)
  in
  let indexed =
    normalize_effects s (effects_exec ~optimize:true ~evaluator:indexed_eval prog script units rand_for_key)
  in
  if not (Relation.equal_as_multiset reference naive) then
    Alcotest.failf "naive exec diverged from reference@.ref:@.%a@.naive:@.%a" Relation.pp reference
      Relation.pp naive;
  if not (Relation.equal_as_multiset reference indexed) then
    Alcotest.failf "indexed exec diverged from reference@.ref:@.%a@.indexed:@.%a" Relation.pp
      reference Relation.pp indexed

let test_equiv_figure3_small () = check_equivalence ~script:"main" ~n:12 ~seed:1 ()
let test_equiv_figure3_medium () = check_equivalence ~script:"main" ~n:120 ~seed:2 ()
let test_equiv_figure3_tiny () = check_equivalence ~script:"main" ~n:1 ~seed:3 ()
let test_equiv_figure3_empty () = check_equivalence ~script:"main" ~n:0 ~seed:4 ()

let aoe_source =
  {|
const HEAL_AURA = 5;
aggregate WoundedAlliesNearby(u) {
  count(*)
  where e.player = u.player
    and e.posx >= u.posx - 6.0 and e.posx <= u.posx + 6.0
    and e.posy >= u.posy - 6.0 and e.posy <= u.posy + 6.0
    and e.health < 60
}
action Heal(u) {
  on all(u.player = e.player
         and e.posx >= u.posx - 4.0 and e.posx <= u.posx + 4.0
         and e.posy >= u.posy - 4.0 and e.posy <= u.posy + 4.0) {
    inaura <- HEAL_AURA;
  }
}
action Mortar(u) {
  on all(e.player <> u.player
         and e.posx >= u.posx - 3.0 and e.posx <= u.posx + 3.0
         and e.posy >= u.posy - 3.0 and e.posy <= u.posy + 3.0) {
    damage <- 7;
  }
}
script main(u) {
  let w = WoundedAlliesNearby(u);
  if w > 0 then { perform Heal(u); }
  else { perform Mortar(u); }
}
|}

let test_equiv_aoe () = check_equivalence ~src:aoe_source ~script:"main" ~n:80 ~seed:5 ()

let sweep_source =
  {|
aggregate WeakestEnemyInRange(u) {
  argmin(e.health; e.key)
  where e.player <> u.player
    and e.posx >= u.posx - 8.0 and e.posx <= u.posx + 8.0
    and e.posy >= u.posy - 8.0 and e.posy <= u.posy + 8.0
  default -1
}
action Strike(u, k) { on key(k) { damage <- 3; } }
script main(u) {
  let t = WeakestEnemyInRange(u);
  if t >= 0 then { perform Strike(u, t); }
}
|}

let test_equiv_sweep () = check_equivalence ~src:sweep_source ~script:"main" ~n:90 ~seed:6 ()

let uniform_source =
  {|
aggregate ArmySpreadX(u) { stddev(e.posx) where e.player = 0 default 0.0 }
action Rally(u) { on self { movevect_x <- 1; } }
script main(u) {
  let s = ArmySpreadX(u);
  if s > 5.0 then { perform Rally(u); }
}
|}

let test_equiv_uniform () = check_equivalence ~src:uniform_source ~script:"main" ~n:70 ~seed:7 ()

let enum_source =
  {|
# probe residual: the health comparison depends on u, forcing enumeration
aggregate TougherEnemiesNear(u) {
  count(*)
  where e.player <> u.player
    and e.posx >= u.posx - 6.0 and e.posx <= u.posx + 6.0
    and e.posy >= u.posy - 6.0 and e.posy <= u.posy + 6.0
    and e.health > u.health
}
action Flee(u) { on self { movevect_x <- 2; } }
script main(u) {
  let c = TougherEnemiesNear(u);
  if c > 0 then { perform Flee(u); }
}
|}

let test_equiv_enum () = check_equivalence ~src:enum_source ~script:"main" ~n:70 ~seed:8 ()

(* Float-typed slots may hold [Value.Int] (ints widen only on [of_list]),
   and bounds may do int arithmetic: [u.morale / 2 * 2] truncates.  The compiled bounds must fall back to [Expr] exactly there. *)
let int_bound_source =
  {|
aggregate NearInt(u) {
  count(*)
  where e.player <> u.player
    and e.posx >= u.posx - u.range and e.posx <= u.posx + u.range
    and e.posy >= u.posy - u.morale / 2 * 2 - 1 and e.posy <= u.posy + u.morale / 2 * 2 + 1
}
action Flee(u) { on self { movevect_x <- 2; } }
script main(u) {
  let c = NearInt(u);
  if c > 1 then { perform Flee(u); }
}
|}

let test_equiv_int_bounds () =
  let s = schema () in
  let as_int attr (row : Tuple.t) =
    let i = Schema.find s attr in
    Tuple.set row i (Value.Int (Value.to_int (Tuple.get row i)))
  in
  let units =
    Array.mapi
      (fun k row ->
        if k mod 3 = 0 then List.iter (fun a -> as_int a row) [ "posx"; "posy"; "range" ];
        row)
      (random_units s ~n:90 ~seed:12)
  in
  let prog = Compile.compile ~schema:s int_bound_source in
  let prng = Prng.create 91 in
  let rand_for_key ~key i = Prng.script_random prng ~tick:0 ~key i in
  let run evaluator =
    normalize_effects s (effects_exec ~optimize:true ~evaluator prog "main" units rand_for_key)
  in
  let aggregates = prog.Core_ir.aggregates in
  let tel = Telemetry.Registry.create () in
  let naive = run (Eval.naive ~tel ~aggregates) in
  let indexed = run (Eval.indexed ~tel ~schema:s ~aggregates ()) in
  if not (Relation.equal_as_multiset naive indexed) then
    Alcotest.failf "indexed diverged from naive on int-valued bounds@.naive:@.%a@.indexed:@.%a"
      Relation.pp naive Relation.pp indexed

(* index-group sharing must not change any result *)
let test_share_equivalence () =
  let s = schema () in
  let prog = Compile.compile ~schema:s Test_lang.figure3_source in
  let units = random_units s ~n:90 ~seed:11 in
  let prng = Prng.create 77 in
  let rand_for_key ~key i = Prng.script_random prng ~tick:0 ~key i in
  let run share =
    let ev = indexed_of ~share s prog in
    normalize_effects s (effects_exec ~optimize:true ~evaluator:ev prog "main" units rand_for_key)
  in
  Alcotest.(check bool) "shared = private" true
    (Relation.equal_as_multiset (run true) (run false))

let equivalence_property =
  QCheck.Test.make ~name:"figure3 equivalence on random armies" ~count:25
    QCheck.(pair (int_range 0 60) small_int)
    (fun (n, seed) ->
      check_equivalence ~script:"main" ~n ~seed:(seed + 100) ();
      true)

(* The decision phase checks its column store once, up front: a store of
   other rows (here one unit short) is rejected before any kernel runs. *)
let test_run_tick_rejects_foreign_store () =
  let s = schema () in
  let prog = Compile.compile ~schema:s Test_lang.figure3_source in
  let compiled = Exec.compile prog in
  let units = random_units s ~n:8 ~seed:5 in
  let cols = Colstore.of_tuples s (Array.sub units 0 7) in
  let groups = [ { Exec.script = "main"; members = Array.init 8 (fun i -> i) } ] in
  match
    Exec.run_tick ~cols ~acc:(Combine.Acc.create s ~positions:8) compiled
      ~evaluator:(indexed_of s prog)
      ~units ~groups ~rand_for:(fun ~key:_ _ -> 0)
  with
  | _ -> Alcotest.fail "a store one row short was accepted"
  | exception Invalid_argument _ -> ()

let suite =
  let tc = Alcotest.test_case in
  [
    ( "qopt.agg_plan",
      [
        tc "divisible box -> cascade" `Quick test_plan_divisible_cascade;
        tc "global aggregate -> uniform" `Quick test_plan_uniform;
        tc "constant-range min -> sweep" `Quick test_plan_sweep;
        tc "variable-range min -> enumerate" `Quick test_plan_sweep_requires_constant_range;
        tc "nearest -> kd" `Quick test_plan_nearest;
        tc "random -> naive" `Quick test_plan_random_is_naive;
        tc "conjunct canonicalization" `Quick test_plan_canonicalize;
      ] );
    ( "qopt.rewrite",
      [
        tc "figure 6: centroid sinks into branch" `Quick test_rewrite_sinks_unused_agg;
        tc "dead bind dropped" `Quick test_rewrite_drops_dead_bind;
        tc "constant selection pruned" `Quick test_rewrite_prunes_constants;
        tc "guarding bind preserved" `Quick test_rewrite_preserves_guarding_condition;
      ] );
    ( "qopt.equivalence",
      [
        tc "figure 3, 12 units" `Quick test_equiv_figure3_small;
        tc "figure 3, 120 units" `Quick test_equiv_figure3_medium;
        tc "single unit" `Quick test_equiv_figure3_tiny;
        tc "empty battlefield" `Quick test_equiv_figure3_empty;
        tc "area effects (heal + mortar)" `Quick test_equiv_aoe;
        tc "sweep-line argmin" `Quick test_equiv_sweep;
        tc "uniform stddev" `Quick test_equiv_uniform;
        tc "enumeration residual" `Quick test_equiv_enum;
        tc "int-valued bounds fall back exactly" `Quick test_equiv_int_bounds;
        tc "index-group sharing equivalence" `Quick test_share_equivalence;
        tc "run_tick rejects a store of other rows" `Quick test_run_tick_rejects_foreign_store;
        QCheck_alcotest.to_alcotest equivalence_property;
      ] );
  ]
