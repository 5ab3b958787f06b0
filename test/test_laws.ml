(* Property tests for the algebraic laws the optimizer relies on
   (Section 5.2: "the algebraic laws that hold in our algebra"). *)

open Sgl_relalg

let qtest = QCheck_alcotest.to_alcotest
let no_rand _ = 0

let schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "a" Value.TInt;
      Schema.attr "b" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "c" Value.TFloat;
    ]

(* Random relations over the small schema; keys may repeat (multisets). *)
let relation_gen s =
  QCheck.Gen.(
    map
      (fun rows ->
        Relation.of_tuples s
          (List.map
             (fun (k, a, b, c) ->
               Tuple.of_list s
                 [
                   Value.Int (abs k mod 6); Value.Int (a mod 5);
                   Value.Float (float_of_int (b mod 7)); Value.Float (float_of_int (c mod 9));
                 ])
             rows))
      (list_size (int_range 0 20) (tup4 small_int small_int small_int small_int)))

(* Random boolean conditions over the row (bound as u). *)
let cond_gen =
  QCheck.Gen.(
    let atom =
      let* attr = int_range 0 3 in
      let* op = oneofl [ Expr.Lt; Expr.Le; Expr.Eq; Expr.Ne; Expr.Gt; Expr.Ge ] in
      let* k = int_range 0 6 in
      return (Expr.Cmp (op, Expr.UAttr attr, Expr.Const (Value.Int k)))
    in
    oneof
      [
        atom;
        (let* a = atom in
         let* b = atom in
         return (Expr.And (a, b)));
        (let* a = atom in
         let* b = atom in
         return (Expr.Or (a, b)));
        map (fun a -> Expr.Not a) atom;
      ])

let arb s = QCheck.make (relation_gen s)
let arb_with_cond s = QCheck.make QCheck.Gen.(pair (relation_gen s) cond_gen)
let arb_with_conds s = QCheck.make QCheck.Gen.(triple (relation_gen s) cond_gen cond_gen)

let eq = Relation.equal_as_multiset

let select_fusion =
  let s = schema () in
  QCheck.Test.make ~name:"sigma_p(sigma_q(R)) = sigma_(p and q)(R)" ~count:300
    (arb_with_conds s)
    (fun (r, p, q) ->
      eq
        (Algebra.select ~rand:no_rand p (Algebra.select ~rand:no_rand q r))
        (Algebra.select ~rand:no_rand (Expr.And (p, q)) r))

let select_commutes =
  let s = schema () in
  QCheck.Test.make ~name:"sigma_p(sigma_q(R)) = sigma_q(sigma_p(R))" ~count:300
    (arb_with_conds s)
    (fun (r, p, q) ->
      eq
        (Algebra.select ~rand:no_rand p (Algebra.select ~rand:no_rand q r))
        (Algebra.select ~rand:no_rand q (Algebra.select ~rand:no_rand p r)))

let select_distributes_union =
  let s = schema () in
  QCheck.Test.make ~name:"sigma distributes over multiset union" ~count:300
    (QCheck.make QCheck.Gen.(triple (relation_gen s) (relation_gen s) cond_gen))
    (fun (r1, r2, p) ->
      eq
        (Algebra.select ~rand:no_rand p (Algebra.union r1 r2))
        (Algebra.union (Algebra.select ~rand:no_rand p r1) (Algebra.select ~rand:no_rand p r2)))

let select_partition =
  let s = schema () in
  QCheck.Test.make ~name:"sigma_p(R) |+| sigma_(not p)(R) = R (rule 9 premise)" ~count:300
    (arb_with_cond s)
    (fun (r, p) ->
      eq
        (Algebra.union (Algebra.select ~rand:no_rand p r)
           (Algebra.select ~rand:no_rand (Expr.Not p) r))
        r)

let extend_then_select =
  (* extension with a fresh column commutes with selection on old columns *)
  let s = schema () in
  QCheck.Test.make ~name:"extend commutes with selection on old columns" ~count:300
    (arb_with_cond s)
    (fun (r, p) ->
      let f = Expr.Binop (Expr.Add, Expr.UAttr 1, Expr.Const (Value.Int 1)) in
      eq
        (Algebra.select ~rand:no_rand p (Algebra.extend ~rand:no_rand [ f ] r))
        (Algebra.extend ~rand:no_rand [ f ] (Algebra.select ~rand:no_rand p r)))

let product_cardinality =
  let s = schema () in
  QCheck.Test.make ~name:"|R x S| = |R| * |S|" ~count:100
    (QCheck.pair (arb s) (arb s))
    (fun (r1, r2) ->
      Relation.cardinality (Algebra.product r1 r2)
      = Relation.cardinality r1 * Relation.cardinality r2)

let union_commutative_associative =
  let s = schema () in
  QCheck.Test.make ~name:"multiset union is commutative and associative" ~count:200
    (QCheck.triple (arb s) (arb s) (arb s))
    (fun (a, b, c) ->
      eq (Algebra.union a b) (Algebra.union b a)
      && eq (Algebra.union (Algebra.union a b) c) (Algebra.union a (Algebra.union b c)))

let group_count_totals =
  let s = schema () in
  QCheck.Test.make ~name:"group counts sum to the cardinality" ~count:200 (arb s) (fun r ->
      let groups = Algebra.group_agg ~group:[ 1 ] ~aggs:[ Algebra.Sql_count ] r in
      let total =
        List.fold_left
          (fun acc (_, counts) ->
            match counts with
            | [ Value.Int c ] -> acc + c
            | _ -> acc)
          0 groups
      in
      total = Relation.cardinality r)

let combine_group_by_key =
  (* (+) produces one row per (key, const attrs) group *)
  let s = schema () in
  QCheck.Test.make ~name:"(+) yields one row per const-group" ~count:200 (arb s) (fun r ->
      let combined = Combine.combine r in
      let groups = Hashtbl.create 16 in
      Relation.iter (fun row -> Hashtbl.replace groups (Combine.group_key s row) ()) r;
      Relation.cardinality combined = Hashtbl.length groups)

(* Order invariance of the accumulator: add a relation's rows to one
   [Combine.Acc] in any permutation, and the result equals one-pass
   combination of the whole relation.  The accumulator has one slot per
   position, so the generator keeps const attributes functionally
   determined by the key (as the engine does) and key [k] (0 to 5)
   contributes to slot [k]. *)
let acc_order_invariance =
  let s = schema () in
  let keyed_relation_gen =
    QCheck.Gen.(
      map
        (fun rows ->
          Relation.of_tuples s
            (List.map
               (fun (k, c) ->
                 let k = abs k mod 6 in
                 Tuple.of_list s
                   [
                     Value.Int k; Value.Int (k mod 5);
                     Value.Float (float_of_int (k mod 7)); Value.Float (float_of_int (c mod 9));
                   ])
               rows))
        (list_size (int_range 0 30) (pair small_int small_int)))
  in
  (* a relation and one permutation of its rows *)
  let gen =
    QCheck.Gen.(
      let* r = keyed_relation_gen in
      let* rows = shuffle_l (Relation.fold (fun acc row -> row :: acc) [] r) in
      return (r, rows))
  in
  QCheck.Test.make ~name:"(+) is invariant under accumulation order" ~count:200
    (QCheck.make gen)
    (fun (r, rows) ->
      let acc = Combine.Acc.create s ~positions:6 in
      List.iter (fun row -> Test_relalg.acc_add_row s acc ~pos:(Tuple.key s row) row) rows;
      eq (Combine.Acc.to_relation acc) (Combine.combine r))

(* The engine's ⊕: contributions reach the accumulator one attribute at a
   time, addressed by the target unit's position, in whatever order the
   kernels and the evaluator emit them.  A random effect bag over a few
   units whose keys are not their positions, split into single-attribute
   contributions and fed in a shuffled order, accumulates to exactly
   [Combine.combine] of the bag.  Values are integer-valued floats, as in
   the battle, so the sum-tagged attribute's total does not depend on the
   order. *)
let acc_positional_matches_combine =
  let s = Test_relalg.battle_schema () in
  let effects = Schema.effect_indices s in
  let gen =
    QCheck.Gen.(
      let* m = int_range 1 6 in
      let* keys = shuffle_l (List.init m (fun i -> 10 * (i + 1))) in
      let units =
        Array.of_list
          (List.mapi
             (fun i key ->
               Tuple.of_list s
                 [ Value.Int key; Value.Int (key mod 3); Value.Float (float_of_int i);
                   Value.Float 0.; Value.Int 10; Value.Float 0.; Value.Float 0.; Value.Float 0. ])
             keys)
      in
      let* bag =
        list_size (int_range 0 30)
          (map
             (fun (p, d, a, sl) ->
               let row = Tuple.copy units.(p mod m) in
               List.iter2
                 (fun attr v -> Tuple.set row attr (Value.Float (float_of_int v)))
                 effects [ d; a; sl ];
               (p mod m, row))
             (tup4 nat (int_range (-20) 20) (int_range (-20) 20) (int_range (-20) 20)))
      in
      let* contributions =
        shuffle_l
          (List.concat_map
             (fun (pos, row) -> List.map (fun attr -> (pos, attr, Tuple.get row attr)) effects)
             bag)
      in
      return (units, bag, contributions))
  in
  QCheck.Test.make ~name:"positional (+) = combine, any contribution order" ~count:300
    (QCheck.make gen)
    (fun (units, bag, contributions) ->
      let acc = Combine.Acc.create s ~positions:(Array.length units) in
      List.iter
        (fun (pos, attr, v) -> Combine.Acc.add_attr acc ~base:units.(pos) ~pos attr v)
        contributions;
      Relation.equal_as_multiset (Combine.Acc.to_relation acc)
        (Combine.combine (Relation.of_tuples s (List.map snd bag))))

let combine_preserves_sums =
  (* total of a sum-tagged column is invariant under (+) *)
  let s = schema () in
  QCheck.Test.make ~name:"(+) preserves the total of sum columns" ~count:200 (arb s) (fun r ->
      let total rel =
        Relation.fold (fun acc row -> acc +. Value.to_float (Tuple.get row 3)) 0. rel
      in
      Float.abs (total r -. total (Combine.combine r)) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Constant folding: [Expr.fold] is unobservable through [Expr.eval] *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-3) 3);
        map (fun f -> Value.Float f) (oneofl [ 0.; -0.; 0.5; -2.; 3.; nan; infinity ]);
        map (fun b -> Value.Bool b) bool;
        map2
          (fun x y -> Value.make_vec (Value.Float x) (Value.Float y))
          (oneofl [ 0.; 1.5; -1. ])
          (oneofl [ 0.; 2.; -0.5 ]);
      ])

(* Expressions over mixed constants, unit and environment slots (slots 3
   and 4 are out of range of the three-slot contexts below) and [Random]. *)
let expr_gen =
  QCheck.Gen.(
    let leaf =
      frequency
        [
          (4, map (fun v -> Expr.Const v) value_gen);
          (2, map (fun i -> Expr.UAttr i) (int_range 0 4));
          (1, map (fun i -> Expr.EAttr i) (int_range 0 4));
        ]
    in
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             let sub = self (n - 1) in
             let un mk = map mk sub and bin mk = map2 mk sub sub in
             frequency
               [
                 (1, leaf);
                 (1, un (fun a -> Expr.Random a));
                 (1, un (fun a -> Expr.Not a));
                 (1, un (fun a -> Expr.Neg a));
                 (1, un (fun a -> Expr.VecX a));
                 (1, un (fun a -> Expr.VecY a));
                 (1, un (fun a -> Expr.Abs a));
                 (1, un (fun a -> Expr.Sqrt a));
                 ( 3,
                   let* op = oneofl Expr.[ Add; Sub; Mul; Div; Mod ] in
                   bin (fun a b -> Expr.Binop (op, a, b)) );
                 ( 2,
                   let* op = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
                   bin (fun a b -> Expr.Cmp (op, a, b)) );
                 (1, bin (fun a b -> Expr.And (a, b)));
                 (1, bin (fun a b -> Expr.Or (a, b)));
                 (1, bin (fun a b -> Expr.VecOf (a, b)));
                 (1, bin (fun a b -> Expr.MinOf (a, b)));
                 (1, bin (fun a b -> Expr.MaxOf (a, b)));
               ]))

let ctx_gen =
  QCheck.Gen.(
    let slots = array_size (return 3) value_gen in
    let* u = slots in
    let* e = opt slots in
    let* salt = int_range 0 1000 in
    return { Expr.u; e; rand = (fun i -> (i * 31) + salt) })

let arb_expr_ctx =
  QCheck.make ~print:(fun (e, _) -> Fmt.str "%a" Expr.pp e) QCheck.Gen.(pair expr_gen ctx_gen)

(* A value, or the printed exception (constructor and message). *)
let outcome ctx e =
  match Expr.eval ctx e with
  | v -> Ok v
  | exception ex -> Error (Printexc.to_string ex)

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> Value.identical x y
  | Error m, Error n -> String.equal m n
  | Ok _, Error _ | Error _, Ok _ -> false

let fold_preserves_eval =
  QCheck.Test.make ~name:"eval (fold e) = eval e, errors included" ~count:2000 arb_expr_ctx
    (fun (e, ctx) -> same_outcome (outcome ctx (Expr.fold e)) (outcome ctx e))

(* An oracle pinning [u.0] is honoured: folding under it equals evaluating
   in a context whose slot 0 holds the pinned value. *)
let fold_honours_oracle =
  QCheck.Test.make ~name:"fold honours a pinning oracle" ~count:1000
    (QCheck.make QCheck.Gen.(triple expr_gen ctx_gen value_gen))
    (fun (e, ctx, v) ->
      let oracle = function Expr.UAttr 0 -> Some v | _ -> None in
      let pinned = { ctx with Expr.u = Array.mapi (fun i x -> if i = 0 then v else x) ctx.Expr.u } in
      same_outcome (outcome ctx (Expr.fold ~oracle e)) (outcome pinned e)
      &&
      match Expr.fold ~oracle:(fun _ -> Some v) e with
      | Expr.Const w -> Value.identical v w
      | _ -> false)

let rec count_random (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.UAttr _ | Expr.EAttr _ -> 0
  | Expr.Random a -> 1 + count_random a
  | Expr.Not a | Expr.Neg a | Expr.VecX a | Expr.VecY a | Expr.Abs a | Expr.Sqrt a ->
    count_random a
  | Expr.Binop (_, a, b) | Expr.Cmp (_, a, b) | Expr.And (a, b) | Expr.Or (a, b)
  | Expr.VecOf (a, b) | Expr.MinOf (a, b) | Expr.MaxOf (a, b) ->
    count_random a + count_random b

let fold_keeps_random =
  QCheck.Test.make ~name:"fold never folds Random structurally" ~count:1000
    (QCheck.make ~print:(Fmt.str "%a" Expr.pp) expr_gen)
    (fun e ->
      count_random (Expr.fold e) = count_random e
      && Expr.fold (Expr.Random (Expr.Const (Value.Int 1)))
         = Expr.Random (Expr.Const (Value.Int 1)))

let suite =
  [
    ( "laws.algebra",
      [
        qtest select_fusion;
        qtest select_commutes;
        qtest select_distributes_union;
        qtest select_partition;
        qtest extend_then_select;
        qtest product_cardinality;
        qtest union_commutative_associative;
        qtest group_count_totals;
        qtest combine_group_by_key;
        qtest combine_preserves_sums;
        qtest acc_order_invariance;
        qtest acc_positional_matches_combine;
      ] );
    ("laws.fold", [ qtest fold_preserves_eval; qtest fold_honours_oracle; qtest fold_keeps_random ]);
  ]
