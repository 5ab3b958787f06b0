(* The fused compiled backend: Lower/Compile unit tests against the
   interpreted executor, the three-way conformance differential, and qcheck
   fuzzing of randomized scripts through all three evaluators.

   The contract under test: [Simulation.Fused] produces *bit-identical*
   unit states to [Naive] and [Indexed] — the kernels mirror [Expr.eval]
   operation-for-operation, and the reordering introduced by operator
   fusion only permutes contributions to the commutative ⊕-accumulator.
   The kernel-level tests pin each plan shape (naive scan, enumeration
   probe, range probe, extremal window, uniform) against the interpreted
   plan walker on a fixed 100-row store, including empty / single-row /
   duplicate-key stores mirroring test_index's edge cases. *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt
open Sgl_util

let schema () = Test_lang.schema ()

(* ------------------------------------------------------------------ *)
(* Kernel vs interpreter: one fixed store per plan shape *)

(* Run one script over [units] through the fused path: compile, lower,
   specialize, execute — the exact startup sequence [Simulation] uses. *)
let effects_fused ?(optimize = true) prog script_name units rand_for_key =
  let compiled = Exec.compile ~optimize prog in
  let fused = Exec.fuse compiled in
  let evaluator =
    Eval.indexed ~schema:prog.Core_ir.schema ~aggregates:prog.Core_ir.aggregates ()
  in
  let groups =
    [ { Exec.script = script_name; members = Array.init (Array.length units) (fun i -> i) } ]
  in
  Combine.Acc.to_relation
    (Exec.run_tick ~kernels:fused compiled ~evaluator ~units ~groups ~rand_for:rand_for_key)

(* The per-row random stream is a pure function of (tick, key, draw), so
   the same closure drives both backends without coupling them. *)
let check_kernel_on ~(src : string) ~script (units : Tuple.t array) ~seed =
  let s = schema () in
  let prog = Compile.compile ~schema:s src in
  let prng = Prng.create (seed * 7919) in
  let rand_for_key ~key i = Prng.script_random prng ~tick:0 ~key i in
  let interpreted =
    let ev = Eval.indexed ~schema:s ~aggregates:prog.Core_ir.aggregates () in
    Test_qopt.normalize_effects s
      (Test_qopt.effects_exec ~optimize:true ~evaluator:ev prog script units rand_for_key)
  in
  let fused = Test_qopt.normalize_effects s (effects_fused prog script units rand_for_key) in
  if not (Relation.equal_as_multiset interpreted fused) then
    Alcotest.failf "fused kernel diverged from interpreted plan@.interp:@.%a@.fused:@.%a"
      Relation.pp interpreted Relation.pp fused

let check_kernel ?(src = Test_lang.figure3_source) ~script ~n ~seed () =
  check_kernel_on ~src ~script (Test_qopt.random_units (schema ()) ~n ~seed) ~seed

(* One test per plan shape, each on a 100-row store. *)
let kernel_figure3 () = check_kernel ~script:"main" ~n:100 ~seed:31 ()
let kernel_enum () = check_kernel ~src:Test_qopt.enum_source ~script:"main" ~n:100 ~seed:32 ()
let kernel_range_aoe () = check_kernel ~src:Test_qopt.aoe_source ~script:"main" ~n:100 ~seed:33 ()
let kernel_sweep () = check_kernel ~src:Test_qopt.sweep_source ~script:"main" ~n:100 ~seed:34 ()
let kernel_uniform () =
  check_kernel ~src:Test_qopt.uniform_source ~script:"main" ~n:100 ~seed:35 ()

let edge_sources =
  [
    Test_lang.figure3_source;
    Test_qopt.aoe_source;
    Test_qopt.sweep_source;
    Test_qopt.enum_source;
  ]

let kernel_empty () =
  List.iter (fun src -> check_kernel ~src ~script:"main" ~n:0 ~seed:41 ()) edge_sources

let kernel_single_row () =
  List.iter (fun src -> check_kernel ~src ~script:"main" ~n:1 ~seed:42 ()) edge_sources

(* Duplicate keys: key-targeted strikes and key-resulting aggregates must
   resolve them identically under both backends (both resolve through the
   tick's shared key table). *)
let kernel_duplicate_keys () =
  let s = schema () in
  let mk key player x health =
    Test_lang.mk_unit s ~key ~player ~x ~y:(x +. 1.) ~health ~range:4. ~morale:2 ~cooldown:0
  in
  let units =
    [| mk 3 0 5. 50; mk 3 1 6. 40; mk 3 0 7. 90; mk 7 1 5. 30; mk 7 0 9. 80; mk 9 1 8. 20 |]
  in
  List.iter (fun src -> check_kernel_on ~src ~script:"main" units ~seed:43) edge_sources

(* ------------------------------------------------------------------ *)
(* Lowering: fusion shape and guarded-clause structure *)

let self_clause s v =
  {
    Core_ir.target = Core_ir.Self;
    updates = [ (Schema.find s "damage", Expr.Const (Value.Int v)) ];
  }

let lower_fuses_straight_line () =
  let s = schema () in
  let plan =
    Plan.Bind
      ( 12,
        Plan.Bind_expr (Expr.Const (Value.Int 1)),
        Plan.Bind (13, Plan.Bind_expr (Expr.UAttr 12), Plan.Act [ self_clause s 1 ]) )
  in
  let st = Loop_ir.stats (Loop_ir.Lower.lower plan) in
  Alcotest.(check int) "two binds + emit fuse into one pass" 1 st.Loop_ir.passes;
  Alcotest.(check int) "three fused steps" 3 st.Loop_ir.fused_steps;
  Alcotest.(check int) "no batch boundaries" 0 (st.Loop_ir.agg_fills + st.Loop_ir.aoes)

let lower_fuses_both_arms () =
  let s = schema () in
  let both = Plan.Both [ Plan.Act [ self_clause s 1 ]; Plan.Act [ self_clause s 2 ] ] in
  let st = Loop_ir.stats (Loop_ir.Lower.lower both) in
  Alcotest.(check int) "pure-pass arms merge into one pass" 1 st.Loop_ir.passes;
  Alcotest.(check int) "both emissions kept" 2 st.Loop_ir.fused_steps

let lower_splits_area_clauses () =
  let s = schema () in
  let aoe =
    {
      Core_ir.target = Core_ir.All [ Expr.Cmp (Expr.Ne, Expr.EAttr 1, Expr.UAttr 1) ];
      updates = [ (Schema.find s "damage", Expr.Const (Value.Int 2)) ];
    }
  in
  let st = Loop_ir.stats (Loop_ir.Lower.lower (Plan.Act [ self_clause s 1; aoe; self_clause s 3 ])) in
  Alcotest.(check int) "area clause becomes a batch op" 1 st.Loop_ir.aoes;
  Alcotest.(check int) "self clauses fuse into one pass" 1 st.Loop_ir.passes;
  Alcotest.(check int) "both self emissions kept" 2 st.Loop_ir.fused_steps

(* The real figure-3 plan: the optimizer sinks the centroid and nearest
   binds under their branches, so lowering must keep all three aggregate
   batch boundaries with partitions between them. *)
let lower_figure3_shape () =
  let prog = Compile.compile ~schema:(schema ()) Test_lang.figure3_source in
  let compiled = Exec.compile prog in
  let plan = Option.get (Exec.find_plan compiled "main") in
  let st = Loop_ir.stats (Loop_ir.Lower.lower plan) in
  Alcotest.(check int) "every aggregate bind becomes a fill" 3 st.Loop_ir.agg_fills;
  Alcotest.(check bool) "the selection survives as a partition" true (st.Loop_ir.partitions >= 1)

let guarded_clause_polarity () =
  let s = schema () in
  let c = Expr.Cmp (Expr.Gt, Expr.UAttr 4, Expr.Const (Value.Int 0)) in
  let yes = self_clause s 1 and no = self_clause s 2 in
  let prog = Loop_ir.Lower.lower (Plan.Select (c, Plan.Act [ yes ], Plan.Act [ no ])) in
  match Loop_ir.guarded_clauses prog with
  | [ (g1, c1); (g2, c2) ] ->
    Alcotest.(check bool) "then arm under a positive guard" true (g1 = [ (true, c) ] && c1 = yes);
    Alcotest.(check bool) "else arm under a negated guard" true (g2 = [ (false, c) ] && c2 = no)
  | l -> Alcotest.failf "expected two guarded clauses, got %d" (List.length l)

(* V003 end-to-end: every optimized plan of every shape validates clean. *)
let lowering_validates () =
  let s = schema () in
  List.iter
    (fun src ->
      let prog = Compile.compile ~schema:s src in
      let compiled = Exec.compile prog in
      List.iter
        (fun (name, plan) ->
          match Sgl_analysis.Plan_check.validate_lowering ~script:name plan with
          | [] -> ()
          | ds ->
            Alcotest.failf "V003 fired on %s: %a" name
              Fmt.(list ~sep:cut (fun ppf d -> Sgl_analysis.Diagnostic.pp ppf d))
              ds)
        compiled.Exec.plans)
    (Test_qopt.uniform_source :: edge_sources)

(* ------------------------------------------------------------------ *)
(* Three-way conformance: naive = indexed = fused *)

let formation_battle () = Test_engine.differential ~ticks:50 ~make_sim:Test_engine.formation_sim ()
let frost_mage () = Test_engine.differential ~ticks:50 ~make_sim:Test_engine.frost_mage_sim ()

(* ------------------------------------------------------------------ *)
(* Fuzzing: randomized scripts through all three evaluators *)

(* Single-tick effects: the fused kernels against the naive and indexed
   plan walkers on the same generated program (test_fuzz's generators; its
   own property already pins interp = naive = indexed). *)
let fused_tick_equivalence =
  QCheck.Test.make ~name:"fuzz: naive = indexed = fused (one tick)" ~count:40
    (QCheck.pair Test_fuzz.arb_program (QCheck.int_range 0 1000))
    (fun (ast, seed) ->
      let s = schema () in
      let prog = Compile.compile_ast ~schema:s ast in
      let units = Test_qopt.random_units s ~n:35 ~seed:(seed + 1) in
      let prng = Prng.create (seed + 5000) in
      let rand_for_key ~key i = Prng.script_random prng ~tick:0 ~key i in
      let exec ev =
        Test_qopt.normalize_effects s
          (Test_qopt.effects_exec ~optimize:true ~evaluator:ev prog "main" units rand_for_key)
      in
      let naive = exec (Eval.naive ~schema:s ~aggregates:prog.Core_ir.aggregates) in
      let indexed = exec (Eval.indexed ~schema:s ~aggregates:prog.Core_ir.aggregates ()) in
      let fused =
        Test_qopt.normalize_effects s (effects_fused prog "main" units rand_for_key)
      in
      Relation.equal_as_multiset naive fused && Relation.equal_as_multiset indexed fused)

(* Full-simulation churn: random movement, deaths and key-targeted
   effects for 20 ticks under [Naive] and [Fused] from the same seed must
   leave identical unit states. *)
let fused_sim_equivalence =
  QCheck.Test.make ~name:"fuzz: 20-tick simulation, naive = fused" ~count:25
    (QCheck.pair Test_fuzz.arb_program (QCheck.int_range 0 1000))
    (fun (ast, seed) ->
      let s = schema () in
      let prog = Compile.compile_ast ~schema:s ast in
      let units = Test_qopt.random_units s ~n:30 ~seed:(seed + 1) in
      let config =
        {
          Sgl_engine.Simulation.prog;
          script_of = (fun _ -> Some "main");
          postprocess =
            Sgl_engine.Postprocess.make ~schema:s ~updates:[]
              ~remove_when:(Expr.Const (Value.Bool false));
          movement =
            Some
              {
                Sgl_engine.Movement.posx = Schema.find s "posx";
                posy = Schema.find s "posy";
                mvx = Schema.find s "movevect_x";
                mvy = Schema.find s "movevect_y";
                speed = 3.;
                speed_attr = None;
                width = 64;
                height = 64;
              };
          death = Sgl_engine.Simulation.Remove;
          seed = seed + 9000;
          optimize = true;
        }
      in
      let final evaluator =
        let sim = Sgl_engine.Simulation.create config ~evaluator ~units in
        Sgl_engine.Simulation.run sim ~ticks:20;
        let out = Array.map Tuple.copy (Sgl_engine.Simulation.units sim) in
        Array.sort (fun a b -> compare (Tuple.key s a) (Tuple.key s b)) out;
        out
      in
      let naive = final Sgl_engine.Simulation.Naive in
      let fused = final Sgl_engine.Simulation.Fused in
      compare naive fused = 0)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "fused.kernel",
      [
        tc "figure 3 (sunk aggregate) vs interpreter" `Quick kernel_figure3;
        tc "enumeration residual vs interpreter" `Quick kernel_enum;
        tc "range probe + AoE vs interpreter" `Quick kernel_range_aoe;
        tc "sweep-line argmin vs interpreter" `Quick kernel_sweep;
        tc "uniform stddev vs interpreter" `Quick kernel_uniform;
        tc "empty store" `Quick kernel_empty;
        tc "single row" `Quick kernel_single_row;
        tc "duplicate keys" `Quick kernel_duplicate_keys;
      ] );
    ( "fused.lower",
      [
        tc "straight-line binds fuse into one pass" `Quick lower_fuses_straight_line;
        tc "pure-pass Both arms merge" `Quick lower_fuses_both_arms;
        tc "area clauses split into batch ops" `Quick lower_splits_area_clauses;
        tc "figure 3: two fills around a partition" `Quick lower_figure3_shape;
        tc "guarded clauses carry branch polarity" `Quick guarded_clause_polarity;
        tc "V003 clean on every plan shape" `Quick lowering_validates;
      ] );
    ( "fused.differential",
      [
        tc "formation battle: naive = indexed = fused" `Slow formation_battle;
        tc "frost mage (Pmax): naive = indexed = fused" `Slow frost_mage;
      ] );
    ( "fused.fuzz",
      [
        QCheck_alcotest.to_alcotest fused_tick_equivalence;
        QCheck_alcotest.to_alcotest fused_sim_equivalence;
      ] );
  ]
