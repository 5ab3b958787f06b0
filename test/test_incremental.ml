(* The cross-tick index structure cache: differential, fault-injection and
   fuzz coverage for the delta-driven incremental maintenance path.

   The contract under test: with the cache on, every evaluator probes
   structures that may have been carried over from the previous tick and
   revalidated against that tick's delta summary — and the unit states are
   *bit-identical* to both a cache-off run and a naive scan, tick for tick,
   including under the transactional fault policies (a rolled-back tick
   must not leave a stale structure behind for the retry to observe).

   The other half of the contract is the delta summary itself:
   over-reporting is sound, under-reporting is a correctness bug.  The
   covers tests pin it against the ground-truth diff of unit snapshots. *)

open Sgl_util
open Sgl_relalg
open Sgl_engine
open Sgl_battle

let with_injection f = Fun.protect ~finally:Fault_inject.reset f

(* ------------------------------------------------------------------ *)
(* The sentry scenario: a mostly static army watched by a few scouts whose
   aggregate counts feed persistent state through a threshold.  Churn is
   confined to one categorical partition (player 1), so a correct cache
   reuses the statics' structures while wrong revalidation — a stale count
   flipping the threshold — shows up in [sightings] immediately. *)

let sentry_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "sightings" Value.TInt;
      Schema.attr ~tag:Schema.Sum "movevect_x" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_y" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "seen" Value.TInt;
    ]

let sentry_behaviour =
  {|
aggregate NearRivals(u) {
  count(*) where e.player <> u.player
    and e.posx >= u.posx - 30.0 and e.posx <= u.posx + 30.0
    and e.posy >= u.posy - 30.0 and e.posy <= u.posy + 30.0
}

action Mark(u) { on self { seen <- 1; } }

action Wander(u) {
  on self {
    movevect_x <- (random(11) mod 5) - 2;
    movevect_y <- (random(12) mod 5) - 2;
  }
}

script scout(u) {
  let c = NearRivals(u);
  if c >= THRESH then { perform Mark(u); }
}

script wanderer(u) {
  if (random(13) mod 100) < CHURN then { perform Wander(u); }
}
|}

let sentry_units schema ~(n : int) : Tuple.t array =
  let make ~key ~player ~x ~y =
    Tuple.of_list schema
      [
        Value.Int key; Value.Int player; Value.Float x; Value.Float y; Value.Int 0;
        Value.Float 0.; Value.Float 0.; Value.Int 0;
      ]
  in
  (* one grid row per unit: collisions cannot depend on anything but the
     decided vectors, and y-boxes see varying populations per scout *)
  Array.init n (fun i ->
      let y = float_of_int i in
      if i mod 15 = 0 then make ~key:i ~player:0 ~x:250. ~y
      else if i mod 4 = 1 then make ~key:i ~player:1 ~x:(float_of_int (100 + (i mod 80))) ~y
      else make ~key:i ~player:2 ~x:(float_of_int (180 + (i * 13 mod 200))) ~y)

let sentry_sim ?(churn = 10) ?(thresh = 3) ?(seed = 5) ?(index_cache = true) ~(n : int)
    (evaluator : Simulation.evaluator_kind) : Simulation.t =
  let schema = sentry_schema () in
  let prog =
    Sgl_lang.Compile.compile
      ~consts:[ ("THRESH", Value.Int thresh); ("CHURN", Value.Int churn) ]
      ~schema sentry_behaviour
  in
  let player = Schema.find schema "player" in
  let sightings = Schema.find schema "sightings" and seen = Schema.find schema "seen" in
  let open Expr in
  let config =
    {
      Simulation.prog;
      script_of =
        (fun u ->
          match Value.to_int (Tuple.get u player) with
          | 0 -> Some "scout"
          | 1 -> Some "wanderer"
          | _ -> None (* statics: their partition's structures never go stale *));
      postprocess =
        Postprocess.make ~schema
          ~updates:[ (sightings, Binop (Add, UAttr sightings, EAttr seen)) ]
          ~remove_when:(Const (Value.Bool false));
      movement =
        Some
          {
            Movement.posx = Schema.find schema "posx";
            posy = Schema.find schema "posy";
            mvx = Schema.find schema "movevect_x";
            mvy = Schema.find schema "movevect_y";
            speed = 2.;
            speed_attr = None;
            width = 512;
            height = n;
          };
      death = Simulation.Remove;
      seed;
      optimize = true;
    }
  in
  Simulation.create ~index_cache config ~evaluator ~units:(sentry_units schema ~n)

(* ------------------------------------------------------------------ *)
(* Differential: cache on = cache off = naive, across evaluators *)

(* Run one scenario maker under every (evaluator, cache) combination and
   insist on identical states after [ticks]. *)
let cache_differential ~(ticks : int)
    ~(make_sim : index_cache:bool -> Simulation.evaluator_kind -> Simulation.t) : unit =
  let run ~index_cache evaluator =
    let sim = make_sim ~index_cache evaluator in
    Simulation.run sim ~ticks;
    Alcotest.(check int) "tick count" ticks (Simulation.tick_count sim);
    sim
  in
  let baseline = Test_engine.sorted_units (run ~index_cache:true Simulation.Naive) in
  let warm = run ~index_cache:true Simulation.Indexed in
  Test_engine.check_states ~msg:"indexed cached vs naive" baseline
    (Test_engine.sorted_units warm);
  Alcotest.(check bool) "the cache actually engaged" true
    ((Simulation.report warm).Simulation.index_reuses > 0);
  Test_engine.check_states ~msg:"indexed cold vs naive" baseline
    (Test_engine.sorted_units (run ~index_cache:false Simulation.Indexed))

let battle_cache_differential () =
  cache_differential ~ticks:50 ~make_sim:(fun ~index_cache evaluator ->
      let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 50) () in
      Scenario.simulation ~seed:11 ~index_cache ~evaluator scenario)

let sentry_cache_differential () =
  cache_differential ~ticks:60 ~make_sim:(fun ~index_cache evaluator ->
      sentry_sim ~churn:5 ~index_cache ~n:120 evaluator)

(* ------------------------------------------------------------------ *)
(* The delta summary covers the ground truth *)

(* Step a simulation and, each tick, check the recorded summary against
   the diff of unit snapshots ([Delta.of_tuples]): every change the truth
   reports must be accounted for.  Over-reporting passes (it only costs
   rebuilds); a missed attribute/key or an unreported population change
   fails.  Every committed tick records a summary, with the index cache
   on or off. *)
let covers_ground_truth ~(ticks : int) (sim : Simulation.t) : unit =
  let schema = Simulation.schema sim in
  for tick = 1 to ticks do
    let before = Array.map Tuple.copy (Simulation.units sim) in
    Simulation.step sim;
    let truth = Delta.of_tuples ~schema ~before ~after:(Simulation.units sim) in
    match Simulation.last_delta sim with
    | None -> Alcotest.failf "tick %d: the committed tick left no delta summary" tick
    | Some summary ->
      if not (Delta.covers ~summary ~truth) then
        Alcotest.failf "tick %d: summary %a does not cover truth %a" tick Delta.pp summary
          Delta.pp truth
  done

let sentry_delta_covers () =
  (* no deaths: every tick is non-structural, so per-attribute/per-key
     coverage carries the whole weight *)
  List.iter
    (fun index_cache ->
      covers_ground_truth ~ticks:40 (sentry_sim ~churn:20 ~index_cache ~n:100 Simulation.Indexed))
    [ true; false ]

let battle_delta_covers () =
  (* deaths and resurrections: the structural flag must be raised whenever
     the population is rewritten *)
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 40) () in
  List.iter
    (fun index_cache ->
      covers_ground_truth ~ticks:30
        (Scenario.simulation ~seed:7 ~index_cache ~evaluator:Simulation.Indexed scenario))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Cache lifecycle under the fault policies *)

let battle_sim_for_faults ?fault_policy ?index_cache ~evaluator () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 40) () in
  Scenario.simulation ~seed:11 ?fault_policy ?index_cache ~evaluator scenario

(* Degrade with the cache on: the faulting tick rolls back (discarding its
   half-recorded delta), the evaluator is demoted, and the retry must be
   bit-identical to a healthy run of the weaker evaluator — no stale
   structure from the abandoned attempt may survive into it. *)
let degrade_with_cache () =
  let clean =
    let sim = battle_sim_for_faults ~index_cache:true ~evaluator:Simulation.Naive () in
    Simulation.run sim ~ticks:40;
    Test_engine.sorted_units sim
  in
  with_injection (fun () ->
      Fault_inject.arm ~point:"eval.member" (Fault_inject.At_count 200);
      let sim =
        battle_sim_for_faults ~index_cache:true ~fault_policy:Simulation.Degrade
          ~evaluator:Simulation.Indexed ()
      in
      Simulation.run sim ~ticks:40;
      Alcotest.(check int) "all ticks ran" 40 (Simulation.tick_count sim);
      Alcotest.(check string) "demoted to naive" "naive"
        (Simulation.evaluator_name (Simulation.current_evaluator sim));
      Alcotest.(check bool) "demotion happened mid-run" true
        (match Simulation.degradations sim with [ (t, _, _) ] -> t > 0 | _ -> false);
      Test_engine.check_states ~msg:"degraded cached vs clean naive" clean
        (Test_engine.sorted_units sim))

(* Quarantine with the cache on vs off: the same injection schedule must
   quarantine the same group and land on the same states — quarantine
   retries and structure reuse are orthogonal. *)
let quarantine_cache_parity () =
  let run ~index_cache =
    with_injection (fun () ->
        Fault_inject.arm ~point:"exec.group" (Fault_inject.At_count 7);
        let sim =
          battle_sim_for_faults ~index_cache ~fault_policy:Simulation.Quarantine_script
            ~evaluator:Simulation.Indexed ()
        in
        Simulation.run sim ~ticks:25;
        Alcotest.(check int) "all ticks ran" 25 (Simulation.tick_count sim);
        (Simulation.quarantined_scripts sim, Test_engine.sorted_units sim))
  in
  let quarantined_warm, warm = run ~index_cache:true in
  let quarantined_cold, cold = run ~index_cache:false in
  Alcotest.(check (list string)) "same group quarantined" quarantined_cold quarantined_warm;
  Test_engine.check_states ~msg:"quarantined cached vs cold" cold warm

(* A rolled-back tick commits no delta: the Fail policy restores the state
   and the next successful tick revalidates against the *previous
   committed* summary, never the abandoned attempt's. *)
let rollback_discards_delta () =
  with_injection (fun () ->
      let sim = sentry_sim ~churn:30 ~n:80 Simulation.Indexed in
      Simulation.step sim;
      Alcotest.(check bool) "tick 1 committed a delta" true
        (Simulation.last_delta sim <> None);
      Fault_inject.arm ~point:"post.apply" (Fault_inject.At_count 1);
      (match Simulation.step sim with
      | () -> Alcotest.fail "injected step did not raise"
      | exception Fault.Error _ -> ());
      Alcotest.(check bool) "rollback discarded the pending delta" true
        (Simulation.last_delta sim = None);
      Fault_inject.reset ();
      (* with no delta to revalidate against, the next tick rebuilds cold —
         and must still match a never-faulted twin from here on *)
      Simulation.run sim ~ticks:20;
      let twin = sentry_sim ~churn:30 ~n:80 Simulation.Indexed in
      Simulation.run twin ~ticks:21;
      Test_engine.check_states ~msg:"post-rollback vs never-faulted"
        (Test_engine.sorted_units twin) (Test_engine.sorted_units sim))

(* ------------------------------------------------------------------ *)
(* Shared partition geometry across ticks *)

(* A patrol: static scouts (player 0) watch wanderers (player 1) that all
   move every tick, and statics (player 2) that never do.  No unit ever
   dies, so every tick's delta is non-structural and the cached group
   index is revalidated, never dropped.  Both aggregates share one group
   (player partitions, a (posx, posy) box): the count is answered by a
   cascade tree, the argmin by the sweep-line, and both read the
   partition's cached geometry.  The wanderers' partition has dirty
   positions every tick, so a geometry kept across that revalidation hands
   both last tick's coordinates; the scouts' tallies record every answer. *)

let patrol_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "counted" Value.TFloat;
      Schema.attr "lowest" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_x" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_y" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "seen" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "low" Value.TFloat;
    ]

let patrol_behaviour =
  {|
aggregate RivalsNear(u) {
  count(*) where e.player <> u.player
    and e.posx >= u.posx - 6.0 and e.posx <= u.posx + 6.0
    and e.posy >= u.posy - 6.0 and e.posy <= u.posy + 6.0
}

aggregate LowestRival(u) {
  argmin(e.posy; e.key) where e.player <> u.player
    and e.posx >= u.posx - 6.0 and e.posx <= u.posx + 6.0
    and e.posy >= u.posy - 6.0 and e.posy <= u.posy + 6.0
  default -1
}

action Note(u, c, k) { on self { seen <- c; low <- k; } }

action Wander(u) {
  on self {
    movevect_x <- (random(11) mod 5) - 2;
    movevect_y <- (random(12) mod 5) - 2;
  }
}

script scout(u) {
  let c = RivalsNear(u);
  let k = LowestRival(u);
  perform Note(u, c, k);
}

script wanderer(u) { perform Wander(u); }
|}

let patrol_sim ~(index_cache : bool) (evaluator : Simulation.evaluator_kind) : Simulation.t =
  let schema = patrol_schema () in
  let prog = Sgl_lang.Compile.compile ~schema patrol_behaviour in
  let player = Schema.find schema "player" in
  let counted = Schema.find schema "counted" and lowest = Schema.find schema "lowest" in
  let open Expr in
  let config =
    {
      Simulation.prog;
      script_of =
        (fun u ->
          match Value.to_int (Tuple.get u player) with
          | 0 -> Some "scout"
          | 1 -> Some "wanderer"
          | _ -> None);
      postprocess =
        Postprocess.make ~schema
          ~updates:
            [
              (counted, Binop (Add, UAttr counted, EAttr (Schema.find schema "seen")));
              (lowest, Binop (Add, UAttr lowest, EAttr (Schema.find schema "low")));
            ]
          ~remove_when:(Const (Value.Bool false));
      movement =
        Some
          {
            Movement.posx = Schema.find schema "posx";
            posy = Schema.find schema "posy";
            mvx = Schema.find schema "movevect_x";
            mvy = Schema.find schema "movevect_y";
            speed = 2.;
            speed_attr = None;
            width = 48;
            height = 48;
          };
      death = Simulation.Remove;
      seed = 3;
      optimize = true;
    }
  in
  let units =
    Array.init 160 (fun i ->
        let player = if i mod 8 = 0 then 0 else if i mod 2 = 1 then 1 else 2 in
        Tuple.of_list schema
          [
            Value.Int i; Value.Int player;
            Value.Float (float_of_int (i * 7 mod 48)); Value.Float (float_of_int (i * 13 mod 48));
            Value.Float 0.; Value.Float 0.; Value.Float 0.; Value.Float 0.; Value.Float 0.;
            Value.Float 0.;
          ])
  in
  Simulation.create ~index_cache config ~evaluator ~units

let geometry_revalidation () =
  let naive = patrol_sim ~index_cache:true Simulation.Naive in
  let cached =
    List.map
      (fun ev -> (ev, patrol_sim ~index_cache:true ev))
      [ Simulation.Indexed ]
  in
  for tick = 1 to 30 do
    Simulation.step naive;
    let expected = Test_engine.sorted_units naive in
    List.iter
      (fun (ev, sim) ->
        Simulation.step sim;
        (match Simulation.last_delta sim with
        | Some d when not (Delta.structural d) -> ()
        | _ -> Alcotest.failf "tick %d: expected a non-structural delta" tick);
        Test_engine.check_states
          ~msg:(Fmt.str "tick %d: %s cached vs naive" tick (Simulation.evaluator_name ev))
          expected (Test_engine.sorted_units sim))
      cached
  done;
  List.iter
    (fun (ev, sim) ->
      Alcotest.(check bool)
        (Simulation.evaluator_name ev ^ " revalidated cached structures")
        true
        ((Simulation.report sim).Simulation.index_reuses > 0))
    cached

(* ------------------------------------------------------------------ *)
(* Fuzz: randomized churn against the naive evaluator *)

let fuzz_churn =
  QCheck.Test.make ~name:"incremental: cached indexed = naive under random churn" ~count:20
    (QCheck.make
       ~print:(fun (n, churn, thresh, ticks, seed) ->
         Printf.sprintf "n=%d churn=%d thresh=%d ticks=%d seed=%d" n churn thresh ticks seed)
       QCheck.Gen.(
         tup5 (int_range 24 80) (int_range 0 100) (int_range 0 8) (int_range 8 20)
           (int_range 0 1000)))
    (fun (n, churn, thresh, ticks, seed) ->
      let run evaluator =
        let sim = sentry_sim ~churn ~thresh ~seed ~n evaluator in
        Simulation.run sim ~ticks;
        Test_engine.sorted_units sim
      in
      let naive = run Simulation.Naive and cached = run Simulation.Indexed in
      Array.length naive = Array.length cached
      && Array.for_all2 (fun a b -> compare a b = 0) naive cached)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "incremental.differential",
      [
        tc "battle: cache on = cache off = naive, all evaluators" `Slow
          battle_cache_differential;
        tc "sentry: cache on = cache off = naive, all evaluators" `Slow
          sentry_cache_differential;
      ] );
    ( "incremental.delta",
      [
        tc "sentry summary covers ground truth (non-structural)" `Quick sentry_delta_covers;
        tc "battle summary covers ground truth (structural)" `Quick battle_delta_covers;
      ] );
    ( "incremental.faults",
      [
        tc "degrade mid-run with cache on = clean naive" `Slow degrade_with_cache;
        tc "quarantine parity: cache on = cache off" `Quick quarantine_cache_parity;
        tc "rollback discards the pending delta" `Quick rollback_discards_delta;
      ] );
    ( "incremental.geometry",
      [ tc "moving units: sweep + cascade group = naive, tick by tick" `Quick
          geometry_revalidation ] );
    ("incremental.fuzz", [ QCheck_alcotest.to_alcotest fuzz_churn ]);
  ]
