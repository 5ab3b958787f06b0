(* Tests for the discrete simulation engine: post-processing, movement with
   collision detection, resurrection, and tick orchestration. *)

open Sgl_relalg
open Sgl_util
open Sgl_engine

let schema () = Sgl_battle.Unit_types.schema ()

let knight s ~key ~player ~x ~y =
  Sgl_battle.Unit_types.make_unit s ~key ~player ~klass:Sgl_battle.D20.Knight ~x ~y

let a s name = Schema.find s name
let no_rand ~key:_ (_ : int) = 0

(* ------------------------------------------------------------------ *)
(* Postprocess *)

let test_post_health_and_death () =
  let s = schema () in
  let spec = Postprocess.battle_spec ~schema:s in
  let u0 = knight s ~key:0 ~player:0 ~x:1 ~y:1 in
  let u1 = knight s ~key:1 ~player:1 ~x:5 ~y:5 in
  let acc = Combine.Acc.create s in
  (* unit 0 takes 15 damage and 4 healing; unit 1 takes lethal damage *)
  Combine.Acc.add_attr acc ~base:u0 ~key:0 (a s "damage") (Value.Float 15.);
  Combine.Acc.add_attr acc ~base:u0 ~key:0 (a s "inaura") (Value.Float 4.);
  Combine.Acc.add_attr acc ~base:u1 ~key:1 (a s "damage") (Value.Float 1000.);
  let r = Postprocess.apply spec ~schema:s ~rand_for:no_rand ~units:[| u0; u1 |] ~acc in
  (match r.Postprocess.survivors with
  | [| row |] ->
    Alcotest.(check (float 1e-9)) "healed and hurt" 49. (Value.to_float (Tuple.get row (a s "health")));
    Alcotest.(check int) "unit 0 survives" 0 (Tuple.key s row)
  | _ -> Alcotest.fail "exactly unit 0 should survive");
  match r.Postprocess.dead with
  | [| row |] -> Alcotest.(check int) "unit 1 dies" 1 (Tuple.key s row)
  | _ -> Alcotest.fail "unit 1 should die"

let test_post_health_clamped_to_max () =
  let s = schema () in
  let spec = Postprocess.battle_spec ~schema:s in
  let u0 = knight s ~key:0 ~player:0 ~x:1 ~y:1 in
  let acc = Combine.Acc.create s in
  Combine.Acc.add_attr acc ~base:u0 ~key:0 (a s "inaura") (Value.Float 50.);
  let row = (Postprocess.apply spec ~schema:s ~rand_for:no_rand ~units:[| u0 |] ~acc).survivors.(0) in
  Alcotest.(check (float 1e-9)) "clamped" 60. (Value.to_float (Tuple.get row (a s "health")))

let test_post_cooldown () =
  let s = schema () in
  let spec = Postprocess.battle_spec ~schema:s in
  let u0 = knight s ~key:0 ~player:0 ~x:1 ~y:1 in
  Tuple.set u0 (a s "cooldown") (Value.Int 3);
  let acc = Combine.Acc.create s in
  let row = (Postprocess.apply spec ~schema:s ~rand_for:no_rand ~units:[| u0 |] ~acc).survivors.(0) in
  Alcotest.(check int) "decremented" 2 (Value.to_int (Tuple.get row (a s "cooldown")));
  (* fire at cooldown 0: restart from the unit's reload *)
  Tuple.set u0 (a s "cooldown") (Value.Int 0);
  let acc = Combine.Acc.create s in
  Combine.Acc.add_attr acc ~base:u0 ~key:0 (a s "weaponused") (Value.Int 1);
  let row = (Postprocess.apply spec ~schema:s ~rand_for:no_rand ~units:[| u0 |] ~acc).survivors.(0) in
  Alcotest.(check int) "reloaded" Sgl_battle.D20.knight.Sgl_battle.D20.reload
    (Value.to_int (Tuple.get row (a s "cooldown")))

let test_post_rejects_effect_attr () =
  let s = schema () in
  Alcotest.(check bool) "damage is not state" true
    (try
       ignore
         (Postprocess.make ~schema:s
            ~updates:[ (a s "damage", Expr.Const (Value.Float 0.)) ]
            ~remove_when:(Expr.Const (Value.Bool false)));
       false
     with Postprocess.Postprocess_error _ -> true)

(* Copy on change: an idle unit keeps its very row, a changed one gets one
   fresh copy, and the input rows are never written. *)
let test_post_shares_unchanged_rows () =
  let s = schema () in
  let spec = Postprocess.battle_spec ~schema:s in
  let idle = knight s ~key:0 ~player:0 ~x:1 ~y:1 in
  let hurt = knight s ~key:1 ~player:1 ~x:5 ~y:5 in
  let hurt_before = Tuple.copy hurt in
  let acc = Combine.Acc.create s in
  Combine.Acc.add_attr acc ~base:hurt ~key:1 (a s "damage") (Value.Float 5.);
  let r = Postprocess.apply spec ~schema:s ~rand_for:no_rand ~units:[| idle; hurt |] ~acc in
  Alcotest.(check bool) "idle row shared" true (r.Postprocess.survivors.(0) == idle);
  Alcotest.(check bool) "changed row copied" true (r.Postprocess.survivors.(1) != hurt);
  Alcotest.(check bool) "input row untouched" true (Tuple.equal hurt hurt_before);
  Alcotest.(check (array bool)) "owned marks the copy" [| false; true |]
    (Array.sub r.Postprocess.owned 0 2);
  (* nothing to do at all: a fresh array of the same rows *)
  let trivial =
    Postprocess.make ~schema:s ~updates:[] ~remove_when:(Expr.Const (Value.Bool false))
  in
  let units = [| idle; hurt |] in
  let r = Postprocess.apply trivial ~schema:s ~rand_for:no_rand ~units ~acc in
  Alcotest.(check bool) "fresh array" true (r.Postprocess.survivors != units);
  Alcotest.(check bool) "same rows" true
    (Array.for_all2 ( == ) units r.Postprocess.survivors && r.Postprocess.owned = [||])

(* ------------------------------------------------------------------ *)
(* Movement *)

let movement_config s ~width ~height =
  {
    Movement.posx = a s "posx";
    posy = a s "posy";
    mvx = a s "movevect_x";
    mvy = a s "movevect_y";
    speed = 2.;
    speed_attr = None;
    width;
    height;
  }

let move_one s config ~units ~vectors =
  let acc = Combine.Acc.create s in
  List.iter
    (fun (key, vx, vy) ->
      let u = Array.get units key in
      Combine.Acc.add_attr acc ~base:u ~key (a s "movevect_x") (Value.Float vx);
      Combine.Acc.add_attr acc ~base:u ~key (a s "movevect_y") (Value.Float vy))
    vectors;
  let prng = Prng.create 1 in
  let g = Movement.create_grid config in
  Movement.run g ~schema:s ~prng ~tick:0 ~units ~acc;
  g

let test_movement_moves_and_clamps () =
  let s = schema () in
  let config = movement_config s ~width:20 ~height:20 in
  let units = [| knight s ~key:0 ~player:0 ~x:5 ~y:5 |] in
  ignore (move_one s config ~units ~vectors:[ (0, 10., 0.) ]);
  (* vector length 10 clamped to speed 2 *)
  Alcotest.(check (float 1e-9)) "clamped x" 7.
    (Value.to_float (Tuple.get units.(0) (a s "posx")));
  Alcotest.(check (float 1e-9)) "y unchanged" 5.
    (Value.to_float (Tuple.get units.(0) (a s "posy")))

let test_movement_collision () =
  let s = schema () in
  let config = movement_config s ~width:20 ~height:20 in
  (* unit 1 sits exactly where unit 0 wants to go; x-only and half-step
     candidates collide too, so unit 0 ends up sliding or staying *)
  let units = [| knight s ~key:0 ~player:0 ~x:5 ~y:5; knight s ~key:1 ~player:0 ~x:7 ~y:5 |] in
  ignore (move_one s config ~units ~vectors:[ (0, 2., 0.) ]);
  let x0 = Value.to_float (Tuple.get units.(0) (a s "posx")) in
  let y0 = Value.to_float (Tuple.get units.(0) (a s "posy")) in
  Alcotest.(check bool) "did not stack" true (not (x0 = 7. && y0 = 5.));
  (* the half-step candidate (6, 5) is free: simple pathfinding takes it *)
  Alcotest.(check (float 1e-9)) "slid to half step" 6. x0

let test_movement_bounds () =
  let s = schema () in
  let config = movement_config s ~width:10 ~height:10 in
  let units = [| knight s ~key:0 ~player:0 ~x:9 ~y:9 |] in
  ignore (move_one s config ~units ~vectors:[ (0, 5., 5.) ]);
  let x = Value.to_float (Tuple.get units.(0) (a s "posx")) in
  let y = Value.to_float (Tuple.get units.(0) (a s "posy")) in
  Alcotest.(check bool) "stays in bounds" true (x < 10. && y < 10.)

let test_movement_zero_vector_stays () =
  let s = schema () in
  let config = movement_config s ~width:10 ~height:10 in
  let units = [| knight s ~key:0 ~player:0 ~x:4 ~y:4 |] in
  ignore (move_one s config ~units ~vectors:[]);
  Alcotest.(check (float 1e-9)) "no move" 4. (Value.to_float (Tuple.get units.(0) (a s "posx")))

(* Movement copies a row only when its unit moves, and not at all when the
   row is already the tick's own copy ([owned]). *)
let test_movement_copies_movers_only () =
  let s = schema () in
  let config = movement_config s ~width:20 ~height:20 in
  let mover = knight s ~key:0 ~player:0 ~x:5 ~y:5 and idle = knight s ~key:1 ~player:0 ~x:9 ~y:9 in
  let units = [| mover; idle |] in
  ignore (move_one s config ~units ~vectors:[ (0, 1., 0.) ]);
  Alcotest.(check bool) "idle row kept" true (units.(1) == idle);
  Alcotest.(check bool) "mover copied" true (units.(0) != mover);
  Alcotest.(check (float 0.)) "original row untouched" 5. (Value.to_float (Tuple.get mover (a s "posx")));
  Alcotest.(check (float 0.)) "copy moved" 6. (Value.to_float (Tuple.get units.(0) (a s "posx")));
  let units = [| mover; idle |] in
  let acc = Combine.Acc.create s in
  Combine.Acc.add_attr acc ~base:mover ~key:0 (a s "movevect_x") (Value.Float 1.);
  Movement.run ~owned:[| true; false |] (Movement.create_grid config) ~schema:s ~prng:(Prng.create 1)
    ~tick:0 ~units ~acc;
  Alcotest.(check bool) "owned row written in place" true (units.(0) == mover);
  Alcotest.(check (float 0.)) "owned row moved" 6. (Value.to_float (Tuple.get mover (a s "posx")))

let test_random_free_cell () =
  let s = schema () in
  let config = movement_config s ~width:4 ~height:1 in
  let units =
    [| knight s ~key:0 ~player:0 ~x:0 ~y:0; knight s ~key:1 ~player:0 ~x:1 ~y:0;
       knight s ~key:2 ~player:0 ~x:2 ~y:0 |]
  in
  let g = move_one s config ~units ~vectors:[] in
  let prng = Prng.create 3 in
  (match Movement.random_free_cell g prng ~tick:0 ~salt:0 with
  | Some (x, y) ->
    Alcotest.(check (pair int int)) "only free cell" (3, 0) (x, y)
  | None -> Alcotest.fail "expected a free cell")

(* The occupancy grid against a [Hashtbl] model.  Random insert, move and
   remove sequences over a pool of cells; after every operation [occupied]
   must agree with the model on the whole pool, and [random_free_cell]
   with the same rejection sampling run against the model. *)
type grid_op = Add of int | Remove of int | Move of int * int

let gen_grid_ops ~(pool : int) : grid_op list QCheck.Gen.t =
  QCheck.Gen.(
    let cell = int_bound (pool - 1) in
    list_size (int_range 1 60)
      (frequency
         [
           (4, map (fun k -> Add k) cell);
           (2, map (fun k -> Remove k) cell);
           (3, map2 (fun k l -> Move (k, l)) cell cell);
         ]))

let print_grid_ops ops =
  String.concat " "
    (List.map
       (function
         | Add k -> Printf.sprintf "+%d" k
         | Remove k -> Printf.sprintf "-%d" k
         | Move (k, l) -> Printf.sprintf "%d>%d" k l)
       ops)

(* [max_live] caps the occupied cells so a small table never grows (its
   home slots, and so the aimed collisions, stay fixed). *)
let grid_agrees_with_model ~width ~height ~(pool : (int * int) array) ?(max_live = max_int)
    ?(fixed_capacity = false) (ops : grid_op list) : bool =
  let s = schema () in
  let g = Movement.create_grid (movement_config s ~width ~height) in
  let capacity0 = Movement.capacity g in
  let model = Hashtbl.create 16 in
  let prng = Prng.create 7 in
  let reference_free tick =
    let rec go n =
      if n > 10_000 then None
      else begin
        let x = Prng.int prng ~bound:width [ tick; 0; n; 11 ] in
        let y = Prng.int prng ~bound:height [ tick; 0; n; 13 ] in
        if Hashtbl.mem model (x, y) then go (n + 1) else Some (x, y)
      end
    in
    go 0
  in
  let room c = Hashtbl.mem model c || Hashtbl.length model < max_live in
  let ok = ref true in
  List.iteri
    (fun tick op ->
      (match op with
      | Add k ->
        let x, y = pool.(k) in
        if room (x, y) then begin
          Movement.add_unit g x y;
          Hashtbl.replace model (x, y) ()
        end
      | Remove k ->
        let x, y = pool.(k) in
        Movement.remove_unit g x y;
        Hashtbl.remove model (x, y)
      | Move (k, l) ->
        Hashtbl.remove model pool.(k);
        if room pool.(l) then begin
          Movement.move_unit g ~from_:pool.(k) ~to_:pool.(l);
          Hashtbl.replace model pool.(l) ()
        end
        else Movement.remove_unit g (fst pool.(k)) (snd pool.(k)));
      if
        not
          (Array.for_all (fun (x, y) -> Movement.occupied g x y = Hashtbl.mem model (x, y)) pool
          && Movement.random_free_cell g prng ~tick ~salt:0 = reference_free tick
          && ((not fixed_capacity) || Movement.capacity g = capacity0))
      then ok := false)
    ops;
  !ok

(* A small world (20 cells): the table grows, fills, and sometimes has no
   free cell left at all. *)
let prop_grid_small_world =
  let pool = Array.init 20 (fun c -> (c mod 5, c / 5)) in
  QCheck.Test.make ~name:"grid = Hashtbl model (small world, growth)" ~count:200
    (QCheck.make ~print:print_grid_ops (gen_grid_ops ~pool:20))
    (grid_agrees_with_model ~width:5 ~height:4 ~pool)

(* Cells whose home slots crowd the end of the initial 16-slot table, so
   probe chains collide, wrap around to slot 0, and deletions must shift
   entries back across the wrap. *)
let prop_grid_wraparound =
  let s = schema () in
  let g = Movement.create_grid (movement_config s ~width:4096 ~height:4096) in
  let cap = Movement.capacity g in
  let rec aimed acc code =
    if List.length acc = 12 then Array.of_list (List.rev acc)
    else begin
      let x = code mod 4096 and y = code / 4096 in
      let h = Movement.home g x y in
      aimed (if h >= cap - 3 || h = 0 then (x, y) :: acc else acc) (code + 1)
    end
  in
  let pool = aimed [] 0 in
  QCheck.Test.make ~name:"grid = Hashtbl model (colliding, wrapping chains)" ~count:300
    (QCheck.make ~print:print_grid_ops (gen_grid_ops ~pool:12))
    (grid_agrees_with_model ~width:4096 ~height:4096 ~pool ~max_live:(cap / 2)
       ~fixed_capacity:true)

(* The same by hand: four cells homed on the last slot chain through the
   wrap; removing the head must pull the others back, not lose them. *)
let test_grid_wraparound_chain () =
  let s = schema () in
  let g = Movement.create_grid (movement_config s ~width:4096 ~height:4096) in
  let last = Movement.capacity g - 1 in
  let rec homed acc code =
    if List.length acc = 4 then List.rev acc
    else
      let x = code mod 4096 and y = code / 4096 in
      homed (if Movement.home g x y = last then (x, y) :: acc else acc) (code + 1)
  in
  let cells = homed [] 0 in
  List.iter (fun (x, y) -> Movement.add_unit g x y) cells;
  let head = List.hd cells in
  Movement.remove_unit g (fst head) (snd head);
  Alcotest.(check bool) "head vacated" false (Movement.occupied g (fst head) (snd head));
  List.iter
    (fun (x, y) -> Alcotest.(check bool) "chain member still found" true (Movement.occupied g x y))
    (List.tl cells)

(* ------------------------------------------------------------------ *)
(* Simulation orchestration *)

let test_simulation_resurrect_keeps_population () =
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.02
      ~per_side:(Sgl_battle.Scenario.standard_mix 20) ()
  in
  let sim = Sgl_battle.Scenario.simulation ~evaluator:Simulation.Indexed scenario in
  let n0 = Array.length (Simulation.units sim) in
  Simulation.run sim ~ticks:30;
  Alcotest.(check int) "population constant" n0 (Array.length (Simulation.units sim));
  let r = Simulation.report sim in
  Alcotest.(check int) "ticks advanced" 30 r.Simulation.ticks;
  Alcotest.(check int) "resurrections = deaths" r.Simulation.deaths r.Simulation.resurrections;
  Alcotest.(check bool) "battle actually happened" true (r.Simulation.deaths > 0)

let test_simulation_no_position_stacking () =
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.05
      ~per_side:(Sgl_battle.Scenario.standard_mix 25) ()
  in
  let sim = Sgl_battle.Scenario.simulation ~evaluator:Simulation.Indexed scenario in
  Simulation.run sim ~ticks:15;
  let s = Simulation.schema sim in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun u ->
      let p = Sgl_battle.Unit_types.pos_of s u in
      if Hashtbl.mem seen p then Alcotest.failf "two units on cell (%g, %g)" (fst p) (snd p);
      Hashtbl.add seen p ())
    (Simulation.units sim)

let test_simulation_health_invariants () =
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.03
      ~per_side:(Sgl_battle.Scenario.standard_mix 20) ()
  in
  let sim = Sgl_battle.Scenario.simulation ~evaluator:Simulation.Naive scenario in
  let s = Simulation.schema sim in
  for _ = 1 to 25 do
    Simulation.step sim;
    Array.iter
      (fun u ->
        let h = Value.to_float (Tuple.get u (a s "health")) in
        let m = Value.to_float (Tuple.get u (a s "max_health")) in
        Alcotest.(check bool) "alive units have positive health" true (h > 0.);
        Alcotest.(check bool) "health never exceeds max" true (h <= m);
        let cd = Value.to_int (Tuple.get u (a s "cooldown")) in
        Alcotest.(check bool) "cooldown non-negative" true (cd >= 0))
      (Simulation.units sim)
  done

let test_simulation_deterministic_same_seed () =
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.02
      ~per_side:(Sgl_battle.Scenario.standard_mix 15) ()
  in
  let run () =
    let sim = Sgl_battle.Scenario.simulation ~seed:7 ~evaluator:Simulation.Indexed scenario in
    Simulation.run sim ~ticks:15;
    let units = Array.copy (Simulation.units sim) in
    Array.sort compare units;
    units
  in
  Alcotest.(check bool) "same seed, same battle" true (run () = run ())

let test_simulation_seed_changes_outcome () =
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.02
      ~per_side:(Sgl_battle.Scenario.standard_mix 15) ()
  in
  let run seed =
    let sim = Sgl_battle.Scenario.simulation ~seed ~evaluator:Simulation.Indexed scenario in
    Simulation.run sim ~ticks:15;
    let units = Array.copy (Simulation.units sim) in
    Array.sort compare units;
    units
  in
  Alcotest.(check bool) "different seed, different battle" false (run 1 = run 2)

(* ------------------------------------------------------------------ *)
(* Differential harness: every evaluator must leave bit-identical unit
   states.  Exactness of float sums on integer lattices turns "same
   multiset of contributions" into "same bits". *)

(* Canonical view of a simulation's unit state: sorted by key (unique in
   every scenario here), compared tuple-by-tuple.  [compare] rather than
   [(=)] so the check is total even if a NaN ever leaks into a state. *)
let sorted_units (sim : Simulation.t) : Tuple.t array =
  let s = Simulation.schema sim in
  let out = Array.map Tuple.copy (Simulation.units sim) in
  Array.sort (fun a b -> compare (Tuple.key s a) (Tuple.key s b)) out;
  out

let check_states ~(msg : string) (expected : Tuple.t array) (got : Tuple.t array) =
  Alcotest.(check int) (msg ^ ": population") (Array.length expected) (Array.length got);
  Array.iteri
    (fun i e ->
      if compare e got.(i) <> 0 then
        Alcotest.failf "%s: unit %d diverged@.expected %s@.got      %s" msg i
          (Fmt.str "%a" Tuple.pp e) (Fmt.str "%a" Tuple.pp got.(i)))
    expected

(* Run one scenario under [Naive] and each evaluator of [against] (by
   default every other one) and insist on identical states after [ticks]. *)
let differential ?(against = [ Simulation.Indexed; Simulation.Fused ]) ~(ticks : int)
    ~(make_sim : Simulation.evaluator_kind -> Simulation.t) () : unit =
  let run evaluator =
    let sim = make_sim evaluator in
    Simulation.run sim ~ticks;
    Alcotest.(check int) "tick count" ticks (Simulation.tick_count sim);
    sorted_units sim
  in
  let baseline = run Simulation.Naive in
  List.iter
    (fun ev ->
      check_states ~msg:(Simulation.evaluator_name ev ^ " vs naive") baseline (run ev))
    against

(* The 60-a-side formation battle of the standard unit mix. *)
let formation_sim (evaluator : Simulation.evaluator_kind) : Simulation.t =
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.02 ~per_side:(Sgl_battle.Scenario.standard_mix 60) ()
  in
  Sgl_battle.Scenario.simulation ~seed:11 ~evaluator scenario

(* The frost-mage scenario (Section 2.2's priority-set effects): Pmax
   combination with overlapping cones from many casters. *)
let frost_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "rank" Value.TInt; (* 0 = grunt, 1 = frost mage, 2 = archmage *)
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "speed" Value.TFloat;
      Schema.attr "base_speed" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_x" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_y" Value.TFloat;
      Schema.attr ~tag:Schema.Pmax "setspeed" Value.TVec; (* (priority, value) *)
    ]

let frost_behaviour =
  {|
action ConeOfCold(u) {
  on all(e.player <> u.player
         and e.posx >= u.posx - 8.0 and e.posx <= u.posx + 8.0
         and e.posy >= u.posy - 8.0 and e.posy <= u.posy + 8.0) {
    setspeed <- (1.0, 0.0);
  }
}

action GreaterHaste(u) {
  on all(e.player <> u.player and e.rank = 0
         and e.posx >= u.posx - 6.0 and e.posx <= u.posx + 6.0
         and e.posy >= u.posy - 3.0 and e.posy <= u.posy + 3.0) {
    setspeed <- (2.0, 3.0);
  }
}

action March(u) {
  on self { movevect_x <- 5; }
}

script grunt(u) { perform March(u); }
script frost_mage(u) { perform ConeOfCold(u); }
script archmage(u) { perform GreaterHaste(u); }
|}

let frost_mage_sim (evaluator : Simulation.evaluator_kind) : Simulation.t =
  let schema = frost_schema () in
  let prog = Sgl_lang.Compile.compile ~schema frost_behaviour in
  let make ~key ~player ~rank ~x ~y =
    Tuple.of_list schema
      [
        Value.Int key; Value.Int player; Value.Int rank; Value.Float x; Value.Float y;
        Value.Float 2.; Value.Float 2.; Value.Float 0.; Value.Float 0.;
        Value.Vec (Vec2.make 0. 0.);
      ]
  in
  (* 60 grunts on an integer lattice marching into a picket line of 14
     frost mages and 5 archmages with heavily overlapping auras *)
  let grunts =
    List.init 60 (fun i ->
        make ~key:i ~player:0 ~rank:0
          ~x:(float_of_int (8 + (i mod 6)))
          ~y:(float_of_int (2 + (2 * (i / 6)))))
  in
  let mages =
    List.init 14 (fun i ->
        make ~key:(100 + i) ~player:1 ~rank:1 ~x:(float_of_int (18 + (i mod 3)))
          ~y:(float_of_int (1 + (2 * i / 2))))
  in
  let archmages =
    List.init 5 (fun i ->
        make ~key:(200 + i) ~player:1 ~rank:2 ~x:17. ~y:(float_of_int (4 + (4 * i))))
  in
  let units = Array.of_list (grunts @ mages @ archmages) in
  let speed = Schema.find schema "speed" and setspeed = Schema.find schema "setspeed" in
  let base_speed = Schema.find schema "base_speed" in
  let open Expr in
  let hit = MinOf (Const (Value.Float 1.), MaxOf (Const (Value.Float 0.), VecX (EAttr setspeed))) in
  let new_speed =
    Binop
      ( Add,
        Binop (Mul, UAttr base_speed, Binop (Sub, Const (Value.Float 1.), hit)),
        Binop (Mul, VecY (EAttr setspeed), hit) )
  in
  let rank = Schema.find schema "rank" in
  let config =
    {
      Simulation.prog;
      script_of =
        (fun u ->
          Some
            (match Value.to_int (Tuple.get u rank) with
            | 1 -> "frost_mage"
            | 2 -> "archmage"
            | _ -> "grunt"));
      postprocess =
        Postprocess.make ~schema ~updates:[ (speed, new_speed) ]
          ~remove_when:(Const (Value.Bool false));
      movement =
        Some
          {
            Movement.posx = Schema.find schema "posx";
            posy = Schema.find schema "posy";
            mvx = Schema.find schema "movevect_x";
            mvy = Schema.find schema "movevect_y";
            speed = 3.;
            speed_attr = Some speed;
            width = 80;
            height = 48;
          };
      death = Simulation.Remove;
      seed = 8;
      optimize = true;
    }
  in
  Simulation.create config ~evaluator ~units

(* [Simulation.run] must execute exactly [ticks] steps even while the
   death rule rewrites the unit array every tick (resurrection keeps the
   population constant; removal shrinks it) — the loop bound is fixed up
   front, not re-read from mutated state. *)
let resurrection_fixed_ticks () =
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.02 ~per_side:(Sgl_battle.Scenario.standard_mix 40) ()
  in
  let population = Array.length scenario.Sgl_battle.Scenario.units in
  let sim =
    Sgl_battle.Scenario.simulation ~seed:3 ~resurrect:true ~evaluator:Simulation.Indexed scenario
  in
  Simulation.run sim ~ticks:50;
  Alcotest.(check int) "exactly 50 ticks" 50 (Simulation.tick_count sim);
  Alcotest.(check int) "resurrection keeps the workload constant" population
    (Array.length (Simulation.units sim));
  (* a second run starts from the current tick and adds exactly as asked *)
  Simulation.run sim ~ticks:7;
  Alcotest.(check int) "incremental run" 57 (Simulation.tick_count sim)

(* The engine's own set-at-a-time evaluator against the naive one, over
   50 ticks; test_fused adds the compiled backend on the same scenarios. *)
let formation_naive_indexed () =
  differential ~against:[ Simulation.Indexed ] ~ticks:50 ~make_sim:formation_sim ()

let frost_mage_naive_indexed () =
  differential ~against:[ Simulation.Indexed ] ~ticks:50 ~make_sim:frost_mage_sim ()

let base_suite =
  let tc = Alcotest.test_case in
  [
    ( "engine.postprocess",
      [
        tc "health and death" `Quick test_post_health_and_death;
        tc "health clamped to max" `Quick test_post_health_clamped_to_max;
        tc "cooldown and reload" `Quick test_post_cooldown;
        tc "rejects effect attrs" `Quick test_post_rejects_effect_attr;
        tc "shares unchanged rows" `Quick test_post_shares_unchanged_rows;
      ] );
    ( "engine.movement",
      [
        tc "moves and clamps speed" `Quick test_movement_moves_and_clamps;
        tc "collision detection" `Quick test_movement_collision;
        tc "bounds" `Quick test_movement_bounds;
        tc "no vector, no move" `Quick test_movement_zero_vector_stays;
        tc "random free cell" `Quick test_random_free_cell;
        tc "copies movers only" `Quick test_movement_copies_movers_only;
        tc "grid wrap-around chain" `Quick test_grid_wraparound_chain;
        QCheck_alcotest.to_alcotest prop_grid_small_world;
        QCheck_alcotest.to_alcotest prop_grid_wraparound;
      ] );
    ( "engine.simulation",
      [
        tc "resurrection keeps population" `Quick test_simulation_resurrect_keeps_population;
        tc "one unit per cell" `Quick test_simulation_no_position_stacking;
        tc "health and cooldown invariants" `Quick test_simulation_health_invariants;
        tc "deterministic under a seed" `Quick test_simulation_deterministic_same_seed;
        tc "seed changes the battle" `Quick test_simulation_seed_changes_outcome;
        tc "resurrection: run executes a fixed tick count" `Quick resurrection_fixed_ticks;
        tc "formation battle: naive = indexed" `Slow formation_naive_indexed;
        tc "frost mage (Pmax): naive = indexed" `Slow frost_mage_naive_indexed;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Trace recording *)

let test_trace_records_csv () =
  let scenario =
    Sgl_battle.Scenario.setup ~density:0.02 ~per_side:(Sgl_battle.Scenario.standard_mix 10) ()
  in
  let sim = Sgl_battle.Scenario.simulation ~evaluator:Simulation.Indexed scenario in
  let path = Filename.temp_file "sgl_trace" ".csv" in
  let rows = Trace.run_traced ~path ~attrs:[ "key"; "posx"; "posy"; "health" ] sim ~ticks:4 in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  (* 5 recorded states (initial + 4 ticks) x 20 units, plus the header *)
  Alcotest.(check int) "rows counted" rows (List.length lines - 1);
  Alcotest.(check int) "all states recorded" (5 * 20) rows;
  Alcotest.(check string) "header" "tick,key,posx,posy,health" (List.hd lines);
  (* every data row has 5 comma-separated fields *)
  List.iteri
    (fun i line ->
      if i > 0 then
        Alcotest.(check int)
          (Printf.sprintf "fields in row %d" i)
          5
          (List.length (String.split_on_char ',' line)))
    lines

let test_trace_unknown_attribute () =
  let s = schema () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Trace.create ~path:(Filename.temp_file "t" ".csv") ~schema:s ~attrs:[ "mana" ]);
       false
     with Trace.Trace_error _ -> true)

let trace_suite =
  [
    ( "engine.trace",
      [
        Alcotest.test_case "records CSV rows" `Quick test_trace_records_csv;
        Alcotest.test_case "unknown attribute rejected" `Quick test_trace_unknown_attribute;
      ] );
  ]

let suite = base_suite @ trace_suite
