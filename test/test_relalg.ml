(* Tests for the relational substrate: values, schemas, tuples, predicates,
   aggregates, the combination operator (+) and its algebraic laws. *)

open Sgl_relalg

let qtest = QCheck_alcotest.to_alcotest
let no_rand _ = 0
let v_int i = Value.Int i
let v_float f = Value.Float f
let value_t = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_arith () =
  Alcotest.check value_t "int add" (v_int 5) (Value.add (v_int 2) (v_int 3));
  Alcotest.check value_t "mixed add widens" (v_float 5.5) (Value.add (v_int 2) (v_float 3.5));
  Alcotest.check value_t "vec scale"
    (Value.make_vec (v_float 4.) (v_float 6.))
    (Value.mul (v_int 2) (Value.make_vec (v_int 2) (v_int 3)));
  Alcotest.check value_t "mod positive" (v_int 1) (Value.modulo (v_int (-3)) (v_int 2));
  Alcotest.check value_t "neg vec"
    (Value.make_vec (v_float (-1.)) (v_float 2.))
    (Value.neg (Value.make_vec (v_int 1) (v_int (-2))))

let test_value_errors () =
  let raises f = try ignore (f ()); false with Value.Type_error _ -> true in
  Alcotest.(check bool) "bool add" true (raises (fun () -> Value.add (Value.Bool true) (v_int 1)));
  Alcotest.(check bool) "div by zero" true (raises (fun () -> Value.div (v_int 1) (v_int 0)));
  Alcotest.(check bool) "vec compare" true
    (raises (fun () -> Value.compare_num (Value.make_vec (v_int 0) (v_int 0)) (v_int 1)));
  Alcotest.(check bool) "vec_x of int" true (raises (fun () -> Value.vec_x (v_int 3)))

let test_value_equal_widening () =
  Alcotest.(check bool) "2 = 2.0" true (Value.equal (v_int 2) (v_float 2.));
  Alcotest.(check bool) "2 <> 2.5" false (Value.equal (v_int 2) (v_float 2.5));
  Alcotest.(check bool) "bool <> int" false (Value.equal (Value.Bool true) (v_int 1))

let test_value_identical () =
  let id a b = Value.identical a b in
  Alcotest.(check bool) "same int" true (id (v_int 3) (v_int 3));
  Alcotest.(check bool) "int 0 vs float 0." false (id (v_int 0) (v_float 0.));
  Alcotest.(check bool) "0. vs -0." false (id (v_float 0.) (v_float (-0.)));
  Alcotest.(check bool) "nan is itself" true (id (v_float Float.nan) (v_float Float.nan));
  Alcotest.(check bool) "vec -0. component" false
    (id (Value.make_vec (v_float 1.) (v_float 0.)) (Value.make_vec (v_float 1.) (v_float (-0.))));
  Alcotest.(check bool) "same vec" true
    (id (Value.make_vec (v_float 1.) (v_float 2.)) (Value.make_vec (v_int 1) (v_int 2)));
  Alcotest.(check bool) "bool" false (id (Value.Bool true) (Value.Bool false))

(* ------------------------------------------------------------------ *)
(* Schema / Tuple *)

let battle_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "health" Value.TInt;
      Schema.attr ~tag:Schema.Sum "damage" Value.TFloat;
      Schema.attr ~tag:Schema.Max "inaura" Value.TFloat;
      Schema.attr ~tag:Schema.Min "slow" Value.TFloat;
    ]

let test_schema_basics () =
  let s = battle_schema () in
  Alcotest.(check int) "arity" 8 (Schema.arity s);
  Alcotest.(check int) "key index" 0 (Schema.key_index s);
  Alcotest.(check int) "find" 4 (Schema.find s "health");
  Alcotest.(check bool) "mem" false (Schema.mem s "mana");
  Alcotest.(check (list int)) "effects" [ 5; 6; 7 ] (Schema.effect_indices s);
  Alcotest.(check (list int)) "consts" [ 0; 1; 2; 3; 4 ] (Schema.const_indices s)

let test_schema_rejections () =
  let raises mk = try ignore (mk ()); false with Schema.Schema_error _ -> true in
  Alcotest.(check bool) "no key" true
    (raises (fun () -> Schema.create [ Schema.attr "posx" Value.TFloat ]));
  Alcotest.(check bool) "float key" true
    (raises (fun () -> Schema.create [ Schema.attr "key" Value.TFloat ]));
  Alcotest.(check bool) "effect key" true
    (raises (fun () -> Schema.create [ Schema.attr ~tag:Schema.Sum "key" Value.TInt ]));
  Alcotest.(check bool) "duplicate" true
    (raises (fun () ->
         Schema.create [ Schema.attr "key" Value.TInt; Schema.attr "key" Value.TInt ]))

let test_schema_neutrals () =
  let s = battle_schema () in
  Alcotest.check value_t "sum neutral" (v_float 0.) (Schema.neutral_of s (Schema.find s "damage"));
  Alcotest.check value_t "max neutral" (v_float neg_infinity)
    (Schema.neutral_of s (Schema.find s "inaura"));
  Alcotest.check value_t "min neutral" (v_float infinity)
    (Schema.neutral_of s (Schema.find s "slow"))

let test_tuple_of_list () =
  let s = battle_schema () in
  let t =
    Tuple.of_list s
      [ v_int 1; v_int 0; v_int 3; v_float 4.; v_int 100; v_float 0.; v_float 0.; v_float 0. ]
  in
  Alcotest.check value_t "int widened to float" (v_float 3.) (Tuple.get t 2);
  Alcotest.(check int) "key" 1 (Tuple.key s t);
  let raises mk = try ignore (mk ()); false with Schema.Schema_error _ -> true in
  Alcotest.(check bool) "arity" true (raises (fun () -> Tuple.of_list s [ v_int 1 ]));
  Alcotest.(check bool) "type" true
    (raises (fun () ->
         Tuple.of_list s
           [ v_float 1.; v_int 0; v_int 3; v_float 4.; v_int 100; v_float 0.; v_float 0.; v_float 0. ]))

let test_tuple_extend_restrict () =
  let s = battle_schema () in
  let t = Tuple.create s in
  let t' = Tuple.extend t (v_int 42) in
  Alcotest.(check int) "extended arity" 9 (Tuple.arity t');
  Alcotest.check value_t "slot" (v_int 42) (Tuple.get t' 8);
  Alcotest.(check int) "restricted" 8 (Tuple.arity (Tuple.restrict s t'))

(* ------------------------------------------------------------------ *)
(* Expr *)

let test_expr_eval () =
  let u = [| v_int 7; v_float 2.5 |] in
  let e = [| v_int 1; v_float 10. |] in
  let ctx = { Expr.u; e = Some e; rand = (fun i -> i * 2) } in
  let open Expr in
  Alcotest.check value_t "arith" (v_float 12.5)
    (eval ctx (Binop (Add, UAttr 1, EAttr 1)));
  Alcotest.check value_t "cmp" (Value.Bool true) (eval ctx (Cmp (Lt, UAttr 1, EAttr 1)));
  Alcotest.check value_t "random" (v_int 6) (eval ctx (Random (Const (v_int 3))));
  Alcotest.check value_t "minmax" (v_float 2.5) (eval ctx (MinOf (UAttr 1, EAttr 1)));
  Alcotest.check value_t "vec" (v_float 3.)
    (eval ctx (VecX (VecOf (Const (v_int 3), Const (v_int 4)))));
  Alcotest.(check bool) "e missing" true
    (try ignore (eval { ctx with e = None } (EAttr 0)); false with Expr.Eval_error _ -> true)

let test_expr_analysis () =
  let open Expr in
  let e1 = Binop (Add, UAttr 3, EAttr 1) in
  Alcotest.(check bool) "mentions e" true (mentions_e e1);
  Alcotest.(check bool) "mentions u" true (mentions_u e1);
  Alcotest.(check bool) "no random" false (mentions_random e1);
  Alcotest.(check bool) "random found" true (mentions_random (Not (Random (Const (v_int 0)))));
  Alcotest.(check (list int)) "slots" [ 1; 3 ]
    (u_slots (Binop (Mul, UAttr 3, Binop (Add, UAttr 1, UAttr 3))))

(* ------------------------------------------------------------------ *)
(* Predicate classification *)

let test_predicate_classify () =
  let open Expr in
  (* e.posx >= u.posx - 5 and e.posx <= u.posx + 5 and e.player <> u.player
     and e.health < 50 and sqrt(e.posx) > u.posy *)
  let p =
    [
      Cmp (Ge, EAttr 2, Binop (Sub, UAttr 2, Const (v_float 5.)));
      Cmp (Le, EAttr 2, Binop (Add, UAttr 2, Const (v_float 5.)));
      Cmp (Ne, EAttr 1, UAttr 1);
      Cmp (Lt, EAttr 4, Const (v_int 50));
      Cmp (Gt, Sqrt (EAttr 2), UAttr 3);
    ]
  in
  let cls = Predicate.classify p in
  Alcotest.(check int) "one ne" 1 (List.length cls.Predicate.cat_nes);
  Alcotest.(check int) "one lower" 1 (List.length cls.Predicate.lowers);
  Alcotest.(check int) "two uppers" 2 (List.length cls.Predicate.uppers);
  Alcotest.(check int) "one residual" 1 (List.length cls.Predicate.residuals);
  Alcotest.(check (list int)) "range attrs" [ 2; 4 ] (Predicate.range_attrs cls)

let test_predicate_flip () =
  let open Expr in
  (* 3 <= e.posx is a lower bound on e.posx *)
  let cls = Predicate.classify [ Cmp (Le, Const (v_float 3.), EAttr 2) ] in
  (match cls.Predicate.lowers with
  | [ (2, b) ] -> Alcotest.(check bool) "inclusive" true b.Predicate.inclusive
  | _ -> Alcotest.fail "expected one lower bound");
  (* u.posx = e.player is categorical equality *)
  let cls2 = Predicate.classify [ Cmp (Eq, UAttr 2, EAttr 1) ] in
  Alcotest.(check int) "eq" 1 (List.length cls2.Predicate.cat_eqs)

let test_predicate_of_expr () =
  let open Expr in
  let e = And (And (Const (Value.Bool true), Cmp (Lt, UAttr 0, Const (v_int 3))), Cmp (Gt, UAttr 0, Const (v_int 1))) in
  Alcotest.(check int) "flattened" 2 (List.length (Predicate.of_expr e))

(* ------------------------------------------------------------------ *)
(* Aggregates (naive reference) *)

let units_fixture schema =
  (* key player posx posy health damage inaura slow *)
  let mk k p x y h =
    Tuple.of_list schema
      [ v_int k; v_int p; v_float x; v_float y; v_int h; v_float 0.; v_float 0.; v_float 0. ]
  in
  [| mk 0 0 0. 0. 100; mk 1 0 2. 1. 80; mk 2 1 1. 1. 60; mk 3 1 5. 5. 40; mk 4 1 (-3.) 0. 20 |]

let enemy_in_box_pred range =
  let open Expr in
  [
    Cmp (Ge, EAttr 2, Binop (Sub, UAttr 2, Const (v_float range)));
    Cmp (Le, EAttr 2, Binop (Add, UAttr 2, Const (v_float range)));
    Cmp (Ge, EAttr 3, Binop (Sub, UAttr 3, Const (v_float range)));
    Cmp (Le, EAttr 3, Binop (Add, UAttr 3, Const (v_float range)));
    Cmp (Ne, EAttr 1, UAttr 1);
  ]

let test_aggregate_count_sum () =
  let s = battle_schema () in
  let units = units_fixture s in
  let ctx = { Expr.u = units.(0); e = None; rand = no_rand } in
  let count =
    Aggregate.make ~name:"count_enemies" ~kinds:[ Aggregate.Count ]
      ~where_:(enemy_in_box_pred 2.) ()
  in
  Alcotest.check value_t "count" (v_int 1) (Aggregate.eval_naive ~units ~ctx count);
  let sum =
    Aggregate.make ~name:"sum_health" ~kinds:[ Aggregate.Sum (Expr.EAttr 4) ]
      ~where_:(enemy_in_box_pred 10.) ()
  in
  Alcotest.check value_t "sum" (v_float 120.) (Aggregate.eval_naive ~units ~ctx sum)

let test_aggregate_centroid_and_default () =
  let s = battle_schema () in
  let units = units_fixture s in
  let ctx = { Expr.u = units.(0); e = None; rand = no_rand } in
  let centroid =
    Aggregate.make ~name:"centroid"
      ~kinds:[ Aggregate.Avg (Expr.EAttr 2); Aggregate.Avg (Expr.EAttr 3) ]
      ~where_:(enemy_in_box_pred 100.)
      ~default:(Expr.VecOf (Expr.UAttr 2, Expr.UAttr 3))
      ()
  in
  Alcotest.check value_t "centroid" (Value.make_vec (v_float 1.) (v_float 2.))
    (Aggregate.eval_naive ~units ~ctx centroid);
  (* Empty selection: same query from an isolated unit far away. *)
  let far =
    Tuple.of_list s
      [ v_int 9; v_int 0; v_float 1000.; v_float 1000.; v_int 1; v_float 0.; v_float 0.; v_float 0. ]
  in
  let ctx_far = { Expr.u = far; e = None; rand = no_rand } in
  let centroid_near =
    Aggregate.make ~name:"centroid2"
      ~kinds:[ Aggregate.Avg (Expr.EAttr 2); Aggregate.Avg (Expr.EAttr 3) ]
      ~where_:(enemy_in_box_pred 2.)
      ~default:(Expr.VecOf (Expr.UAttr 2, Expr.UAttr 3))
      ()
  in
  Alcotest.check value_t "default used" (Value.make_vec (v_float 1000.) (v_float 1000.))
    (Aggregate.eval_naive ~units ~ctx:ctx_far centroid_near)

let test_aggregate_argmin_nearest () =
  let s = battle_schema () in
  let units = units_fixture s in
  let ctx = { Expr.u = units.(0); e = None; rand = no_rand } in
  let weakest =
    Aggregate.make ~name:"weakest"
      ~kinds:[ Aggregate.Arg_min { objective = Expr.EAttr 4; result = Expr.EAttr 0 } ]
      ~where_:(enemy_in_box_pred 100.) ()
  in
  Alcotest.check value_t "weakest key" (v_int 4) (Aggregate.eval_naive ~units ~ctx weakest);
  let nearest =
    Aggregate.make ~name:"nearest"
      ~kinds:
        [
          Aggregate.Nearest
            { ex = Expr.EAttr 2; ey = Expr.EAttr 3; ux = Expr.UAttr 2; uy = Expr.UAttr 3; result = Expr.EAttr 0 };
        ]
      ~where_:(enemy_in_box_pred 100.) ()
  in
  Alcotest.check value_t "nearest key" (v_int 2) (Aggregate.eval_naive ~units ~ctx nearest)

let test_aggregate_stddev () =
  let s = battle_schema () in
  let units = units_fixture s in
  let ctx = { Expr.u = units.(0); e = None; rand = no_rand } in
  let agg =
    Aggregate.make ~name:"stddev_h" ~kinds:[ Aggregate.Std_dev (Expr.EAttr 4) ]
      ~where_:Predicate.always_true ()
  in
  (* health values: 100 80 60 40 20 -> population stddev = sqrt(800) *)
  (match Aggregate.eval_naive ~units ~ctx agg with
  | Value.Float f -> Alcotest.(check (float 1e-9)) "stddev" (sqrt 800.) f
  | v -> Alcotest.failf "expected float, got %a" Value.pp v);
  (* Divisible finisher agrees. *)
  let stats = Aggregate.stats_of_kind (Aggregate.Std_dev (Expr.EAttr 4)) in
  Alcotest.(check int) "3 stats" 3 (List.length stats)

let test_aggregate_empty_no_default () =
  let s = battle_schema () in
  let units = units_fixture s in
  let ctx = { Expr.u = units.(0); e = None; rand = no_rand } in
  let agg =
    Aggregate.make ~name:"min_none" ~kinds:[ Aggregate.Min_agg (Expr.EAttr 4) ]
      ~where_:[ Expr.Const (Value.Bool false) ] ()
  in
  Alcotest.(check bool) "raises" true
    (try ignore (Aggregate.eval_naive ~units ~ctx agg); false
     with Aggregate.Aggregate_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Combine: unit tests and laws *)

let effect_row s k damage inaura slow =
  Tuple.of_list s
    [ v_int k; v_int 0; v_float 0.; v_float 0.; v_int 1; v_float damage; v_float inaura; v_float slow ]

let test_combine_folds_by_tag () =
  let s = battle_schema () in
  let r =
    Relation.of_tuples s
      [ effect_row s 1 5. 2. 0.5; effect_row s 1 3. 7. 0.25; effect_row s 2 1. 1. 1. ]
  in
  let c = Combine.combine r in
  Alcotest.(check int) "two groups" 2 (Relation.cardinality c);
  let row1 = List.find (fun t -> Tuple.key s t = 1) (Relation.to_list c) in
  Alcotest.check value_t "damage summed" (v_float 8.) (Tuple.get row1 5);
  Alcotest.check value_t "aura maxed" (v_float 7.) (Tuple.get row1 6);
  Alcotest.check value_t "slow minned" (v_float 0.25) (Tuple.get row1 7)

(* Random effect relations over a fixed key universe. *)
let effect_relation_gen s =
  QCheck.Gen.(
    map
      (fun rows ->
        Relation.of_tuples s
          (List.map
             (fun (k, d, a, sl) ->
               effect_row s (abs k mod 5) (float_of_int d) (float_of_int a) (float_of_int sl))
             rows))
      (list_size (int_range 0 25) (tup4 small_int (int_range (-20) 20) (int_range (-20) 20) (int_range (-20) 20))))

let arb_rel s = QCheck.make (effect_relation_gen s)

let combine_idempotent =
  let s = battle_schema () in
  QCheck.Test.make ~name:"combine is idempotent: (+)((+)R) = (+)R" ~count:200 (arb_rel s)
    (fun r -> Relation.equal_as_multiset (Combine.combine (Combine.combine r)) (Combine.combine r))

let combine_commutative =
  let s = battle_schema () in
  QCheck.Test.make ~name:"combine is commutative: R (+) S = S (+) R" ~count:200
    (QCheck.pair (arb_rel s) (arb_rel s))
    (fun (r, sr) ->
      Relation.equal_as_multiset (Combine.union_combine r sr) (Combine.union_combine sr r))

let combine_associative =
  let s = battle_schema () in
  QCheck.Test.make ~name:"combine is associative" ~count:200
    (QCheck.triple (arb_rel s) (arb_rel s) (arb_rel s))
    (fun (a, b, c) ->
      Relation.equal_as_multiset
        (Combine.union_combine (Combine.union_combine a b) c)
        (Combine.union_combine a (Combine.union_combine b c)))

(* Equation (3): (+)(E1 |+| E2) = (+)((+)(E1) |+| E2) *)
let combine_eq3 =
  let s = battle_schema () in
  QCheck.Test.make ~name:"equation (3)" ~count:200 (QCheck.pair (arb_rel s) (arb_rel s))
    (fun (e1, e2) ->
      Relation.equal_as_multiset
        (Combine.combine (Algebra.union e1 e2))
        (Combine.combine (Algebra.union (Combine.combine e1) e2)))

(* The mutable accumulator agrees with the relational operator. *)
let acc_matches_combine =
  let s = battle_schema () in
  QCheck.Test.make ~name:"Combine.Acc = Combine.combine" ~count:200 (arb_rel s) (fun r ->
      let acc = Combine.Acc.create s in
      Relation.iter (Combine.Acc.add acc) r;
      Relation.equal_as_multiset (Combine.Acc.to_relation acc) (Combine.combine r))

(* Rule (10): R1 (+) R2 = pi(R1 join_K R2) when both are key-functional
   with equal key sets. *)
let test_rule_10 () =
  let s = battle_schema () in
  let r1 = Relation.of_tuples s [ effect_row s 1 5. 2. 0.5; effect_row s 2 1. 0. 1. ] in
  let r2 = Relation.of_tuples s [ effect_row s 1 3. 9. 0.1; effect_row s 2 2. 2. 2. ] in
  let joined = Algebra.join_key r1 r2 in
  let merged =
    List.map
      (fun (a, b) ->
        let out = Tuple.copy a in
        List.iter
          (fun i -> Tuple.set out i (Schema.combine_values s i (Tuple.get a i) (Tuple.get b i)))
          (Schema.effect_indices s);
        out)
      joined
  in
  Relation.iter
    (fun row ->
      let k = Tuple.key s row in
      let m = List.find (fun t -> Tuple.key s t = k) merged in
      Alcotest.(check bool) (Printf.sprintf "key %d" k) true (Tuple.equal row m))
    (Combine.union_combine r1 r2)

(* ------------------------------------------------------------------ *)
(* Algebra *)

let test_algebra_select_extend () =
  let s = battle_schema () in
  let r = Relation.of_tuples s (Array.to_list (units_fixture s)) in
  let sel = Algebra.select ~rand:no_rand (Expr.Cmp (Expr.Gt, Expr.UAttr 4, Expr.Const (v_int 50))) r in
  Alcotest.(check int) "selected" 3 (Relation.cardinality sel);
  let ext = Algebra.extend ~rand:no_rand [ Expr.Binop (Expr.Mul, Expr.UAttr 4, Expr.Const (v_int 2)) ] sel in
  Relation.iter
    (fun row ->
      Alcotest.check value_t "doubled"
        (Value.mul (Tuple.get row 4) (v_int 2))
        (Tuple.get row 8))
    ext

let test_algebra_product_union () =
  let s = battle_schema () in
  let r = Relation.of_tuples s (Array.to_list (units_fixture s)) in
  Alcotest.(check int) "product" 25 (Relation.cardinality (Algebra.product r r));
  Alcotest.(check int) "union" 10 (Relation.cardinality (Algebra.union r r))

let test_algebra_group_agg () =
  let s = battle_schema () in
  let r = Relation.of_tuples s (Array.to_list (units_fixture s)) in
  let groups = Algebra.group_agg ~group:[ 1 ] ~aggs:[ Algebra.Sql_count; Algebra.Sql_sum 4 ] r in
  Alcotest.(check int) "two players" 2 (List.length groups);
  let p1 = List.assoc [ v_int 1 ] groups in
  (match p1 with
  | [ Value.Int c; total ] ->
    Alcotest.(check int) "count" 3 c;
    Alcotest.check value_t "sum" (v_int 120) total
  | _ -> Alcotest.fail "unexpected aggregate shape")

let test_algebra_join_key_dup () =
  let s = battle_schema () in
  let r = Relation.of_tuples s [ effect_row s 1 0. 0. 0.; effect_row s 1 0. 0. 0. ] in
  Alcotest.(check bool) "duplicate key rejected" true
    (try ignore (Algebra.join_key r r); false with Algebra.Algebra_error _ -> true)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "relalg.value",
      [
        tc "arithmetic" `Quick test_value_arith;
        tc "type errors" `Quick test_value_errors;
        tc "equality widening" `Quick test_value_equal_widening;
        tc "identity is tag- and bit-exact" `Quick test_value_identical;
      ] );
    ( "relalg.schema",
      [
        tc "basics" `Quick test_schema_basics;
        tc "rejections" `Quick test_schema_rejections;
        tc "neutral elements" `Quick test_schema_neutrals;
      ] );
    ( "relalg.tuple",
      [ tc "of_list checks" `Quick test_tuple_of_list; tc "extend/restrict" `Quick test_tuple_extend_restrict ]
    );
    ( "relalg.expr",
      [ tc "evaluation" `Quick test_expr_eval; tc "analysis" `Quick test_expr_analysis ] );
    ( "relalg.predicate",
      [
        tc "classification" `Quick test_predicate_classify;
        tc "orientation flip" `Quick test_predicate_flip;
        tc "of_expr flattening" `Quick test_predicate_of_expr;
      ] );
    ( "relalg.aggregate",
      [
        tc "count/sum" `Quick test_aggregate_count_sum;
        tc "centroid + default" `Quick test_aggregate_centroid_and_default;
        tc "argmin/nearest" `Quick test_aggregate_argmin_nearest;
        tc "stddev" `Quick test_aggregate_stddev;
        tc "empty without default raises" `Quick test_aggregate_empty_no_default;
      ] );
    ( "relalg.combine",
      [
        tc "folds by tag" `Quick test_combine_folds_by_tag;
        qtest combine_idempotent;
        qtest combine_commutative;
        qtest combine_associative;
        qtest combine_eq3;
        qtest acc_matches_combine;
        tc "rule (10) as key join" `Quick test_rule_10;
      ] );
    ( "relalg.algebra",
      [
        tc "select/extend" `Quick test_algebra_select_extend;
        tc "product/union" `Quick test_algebra_product_union;
        tc "group aggregate" `Quick test_algebra_group_agg;
        tc "join duplicate key" `Quick test_algebra_join_key_dup;
      ] );
  ]
