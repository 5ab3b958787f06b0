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
   combination of the whole relation.  The accumulator groups by key
   alone, so the generator keeps const attributes functionally determined
   by the key (as the engine does). *)
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
      let acc = Combine.Acc.create s in
      List.iter (Combine.Acc.add acc) rows;
      eq (Combine.Acc.to_relation acc) (Combine.combine r))

let combine_preserves_sums =
  (* total of a sum-tagged column is invariant under (+) *)
  let s = schema () in
  QCheck.Test.make ~name:"(+) preserves the total of sum columns" ~count:200 (arb s) (fun r ->
      let total rel =
        Relation.fold (fun acc row -> acc +. Value.to_float (Tuple.get row 3)) 0. rel
      in
      Float.abs (total r -. total (Combine.combine r)) < 1e-9)

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
      ] );
  ]
