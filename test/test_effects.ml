(* Tests for the extended effect model: priority-based absolute "set"
   effects (Section 2.2's freeze-spell semantics, tag Pmax) and per-unit
   movement speed, end to end through SGL scripts. *)

open Sgl_relalg
open Sgl_util
open Sgl_engine
open Sgl_lang

let qtest = QCheck_alcotest.to_alcotest
let value_t = Alcotest.testable Value.pp Value.equal

let schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "speed" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_x" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_y" Value.TFloat;
      Schema.attr ~tag:Schema.Pmax "setspeed" Value.TVec;
    ]

let a s name = Schema.find s name

let unit_row s ~key ~player ~x ~y ~speed =
  Tuple.of_list s
    [
      Value.Int key; Value.Int player; Value.Float x; Value.Float y; Value.Float speed;
      Value.Float 0.; Value.Float 0.;
      Value.Vec (Vec2.make 0. 0.);
    ]

(* ------------------------------------------------------------------ *)
(* Combination semantics *)

let test_pmax_combination () =
  let s = schema () in
  let i = a s "setspeed" in
  let v p x = Value.Vec (Vec2.make p x) in
  (* highest priority wins regardless of arrival order *)
  let acc = Schema.combine_values s i (v 1. 0.) (v 3. 7.) in
  let acc = Schema.combine_values s i acc (v 2. 99.) in
  Alcotest.check value_t "priority 3 wins" (v 3. 7.) acc;
  (* equal priority: larger value, so combination stays order-independent *)
  let tie = Schema.combine_values s i (v 2. 5.) (v 2. 9.) in
  Alcotest.check value_t "tie -> larger value" (v 2. 9.) tie;
  let tie' = Schema.combine_values s i (v 2. 9.) (v 2. 5.) in
  Alcotest.check value_t "order independent" (v 2. 9.) tie'

let test_pmax_requires_vec () =
  Alcotest.(check bool) "float pmax rejected" true
    (try
       let s =
         Schema.create
           [ Schema.attr "key" Value.TInt; Schema.attr ~tag:Schema.Pmax "f" Value.TFloat ]
       in
       ignore (Schema.neutral_of s 1);
       false
     with Schema.Schema_error _ -> true)

(* The (+) laws survive the new tag. *)
let pmax_relation_gen s =
  QCheck.Gen.(
    map
      (fun rows ->
        Relation.of_tuples s
          (List.map
             (fun (k, p, v) ->
               let row = Tuple.create s in
               Tuple.set row 0 (Value.Int (abs k mod 4));
               Tuple.set row (Schema.find s "setspeed")
                 (Value.Vec (Vec2.make (float_of_int (p mod 5)) (float_of_int v)));
               row)
             rows))
      (list_size (int_range 0 20) (tup3 small_int small_int (int_range 0 50))))

let pmax_combine_laws =
  let s = schema () in
  QCheck.Test.make ~name:"pmax keeps (+) commutative and idempotent" ~count:200
    (QCheck.make QCheck.Gen.(pair (pmax_relation_gen s) (pmax_relation_gen s)))
    (fun (r1, r2) ->
      Relation.equal_as_multiset (Combine.union_combine r1 r2) (Combine.union_combine r2 r1)
      && Relation.equal_as_multiset
           (Combine.combine (Combine.combine r1))
           (Combine.combine r1))

(* ------------------------------------------------------------------ *)
(* End to end: a freeze spell through SGL *)

let freeze_source =
  {|
action Freeze(u) {
  on all(e.player <> u.player
         and e.posx >= u.posx - 4.0 and e.posx <= u.posx + 4.0
         and e.posy >= u.posy - 4.0 and e.posy <= u.posy + 4.0) {
    setspeed <- (1.0, 0.0);   # priority 1: speed becomes 0
  }
}
action March(u) {
  on self { movevect_x <- 3; }
}
script mage(u) { perform Freeze(u); perform March(u); }
script grunt(u) { perform March(u); }
|}

let test_freeze_stops_movement () =
  let s = schema () in
  let prog = Compile.compile ~schema:s freeze_source in
  let units =
    [|
      unit_row s ~key:0 ~player:0 ~x:10. ~y:10. ~speed:2.; (* mage *)
      unit_row s ~key:1 ~player:1 ~x:12. ~y:10. ~speed:2.; (* frozen grunt *)
      unit_row s ~key:2 ~player:1 ~x:30. ~y:10. ~speed:2.; (* far grunt, unaffected *)
    |]
  in
  (* post-processing applies the set-effect: speed := value when a priority
     > 0 effect arrived, else the unit's own speed.  Encoded arithmetically:
     hit = min(1, max(0, priority)); speed := speed*(1-hit) + value*hit. *)
  let speed = a s "speed" and setspeed = a s "setspeed" in
  let open Expr in
  let hit = MinOf (Const (Value.Float 1.), MaxOf (Const (Value.Float 0.), VecX (EAttr setspeed))) in
  let new_speed =
    Binop
      ( Add,
        Binop (Mul, UAttr speed, Binop (Sub, Const (Value.Float 1.), hit)),
        Binop (Mul, VecY (EAttr setspeed), hit) )
  in
  let post =
    Postprocess.make ~schema:s ~updates:[ (speed, new_speed) ]
      ~remove_when:(Const (Value.Bool false))
  in
  let config =
    {
      Simulation.prog;
      script_of =
        (fun u -> Some (if Value.to_int (Tuple.get u (a s "player")) = 0 then "mage" else "grunt"));
      postprocess = post;
      movement =
        Some
          {
            Movement.posx = a s "posx";
            posy = a s "posy";
            mvx = a s "movevect_x";
            mvy = a s "movevect_y";
            speed = 3.;
            speed_attr = Some speed;
            width = 64;
            height = 32;
          };
      death = Simulation.Remove;
      seed = 1;
      optimize = true;
    }
  in
  let check evaluator =
    let sim = Simulation.create config ~evaluator ~units in
    Simulation.step sim;
    let after = Simulation.units sim in
    let x k = Value.to_float (Tuple.get after.(k) (a s "posx")) in
    let spd k = Value.to_float (Tuple.get after.(k) (a s "speed")) in
    (* the frozen grunt's speed collapsed to 0 but it still moved this tick
       (the freeze applies at post-processing, after movement) *)
    Alcotest.(check (float 1e-9)) "grunt frozen" 0. (spd 1);
    Alcotest.(check (float 1e-9)) "far grunt keeps speed" 2. (spd 2);
    (* second tick: the frozen grunt cannot move, the far one can *)
    let x1_before = x 1 and x2_before = x 2 in
    Simulation.step sim;
    let after2 = Simulation.units sim in
    let x' k = Value.to_float (Tuple.get after2.(k) (a s "posx")) in
    Alcotest.(check (float 1e-9)) "frozen grunt stuck" x1_before (x' 1);
    Alcotest.(check bool) "mobile grunt moved" true (x' 2 > x2_before)
  in
  check Simulation.Naive;
  check Simulation.Indexed

(* naive and indexed agree on Pmax AoE contributions *)
let test_freeze_engines_agree () =
  let s = schema () in
  let prog = Compile.compile ~schema:s freeze_source in
  let units =
    Array.init 40 (fun i ->
        unit_row s ~key:i ~player:(i mod 2)
          ~x:(float_of_int (5 + (i * 2 mod 30)))
          ~y:(float_of_int (5 + (i * 3 mod 20)))
          ~speed:2.)
  in
  let run evaluator =
    let ev =
      match evaluator with
      | `N -> Test_qopt.naive_of prog
      | `I -> Test_qopt.indexed_of s prog
    in
    let compiled = Sgl_qopt.Exec.compile prog in
    let groups =
      [
        { Sgl_qopt.Exec.script = "mage";
          members =
            Array.of_list (List.filter (fun i -> i mod 2 = 0) (List.init 40 (fun i -> i))) };
      ]
    in
    let acc =
      Test_qopt.run_tick compiled ~evaluator:ev ~units ~groups ~rand_for:(fun ~key:_ _ -> 0)
    in
    Combine.Acc.to_relation acc
  in
  Alcotest.(check bool) "identical contributions" true
    (Relation.equal_as_multiset (run `N) (run `I))

let test_typecheck_pmax_contribution () =
  let s = schema () in
  Alcotest.(check bool) "scalar contribution rejected" true
    (try
       ignore
         (Compile.compile ~schema:s
            "action F(u) { on self { setspeed <- 1; } } script m(u) { perform F(u); }");
       false
     with Compile.Compile_error (Compile.Type _) -> true)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "effects.pmax",
      [
        tc "priority combination" `Quick test_pmax_combination;
        tc "pmax must be vec" `Quick test_pmax_requires_vec;
        qtest pmax_combine_laws;
        tc "freeze spell end to end" `Quick test_freeze_stops_movement;
        tc "naive = indexed on pmax AoE" `Quick test_freeze_engines_agree;
        tc "typechecker guards contributions" `Quick test_typecheck_pmax_contribution;
      ] );
  ]
