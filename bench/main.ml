(* The benchmark harness: regenerates every experiment in the paper's
   evaluation (Section 6) plus the ablations DESIGN.md commits to.

     dune exec bench/main.exe            -- quick pass over everything
     dune exec bench/main.exe -- full    -- the paper-scale sweeps
     dune exec bench/main.exe -- SECTION ... [--json PATH]

   Sections (a [-full] variant runs the paper-scale sizes):
     fig10 fig10-full capacity density
     ablate-divisible ablate-sweep ablate-nn ablate-combine ablate-share
     phases incremental incremental-full
     fused fused-full columnar columnar-full
     faults telemetry obs persist micro

   Absolute numbers differ from the paper's 2 GHz Core Duo C++ engine; the
   *shape* is what reproduces: the naive evaluator is quadratic in the unit
   count, the indexed evaluator is n log n, the crossover sits at tiny army
   sizes, and the gap passes an order of magnitude by several hundred
   units.  EXPERIMENTS.md records paper-vs-measured for each experiment. *)

open Sgl

let pr = Fmt.pr
let line () = pr "%s@." (String.make 78 '-')

(* Sanity checks a section failed.  Every requested section still runs and
   the JSON document is still written; the harness then exits non-zero. *)
let failed_checks = ref []
let fail_check msg = failed_checks := msg :: !failed_checks

let header title =
  pr "@.";
  line ();
  pr "%s@." title;
  line ()

(* ------------------------------------------------------------------ *)
(* Shared battle-driving helpers *)

(* Per-tick decision+action+post+move seconds of a battle simulation. *)
let battle_seconds ~(evaluator : Simulation.evaluator_kind) ~(n : int) ~(density : float)
    ~(ticks : int) : float * Simulation.report =
  let scenario =
    Battle.Scenario.setup ~density ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
  in
  let sim = Battle.Scenario.simulation ~evaluator scenario in
  (* warm one tick outside the clock so compilation noise stays out *)
  Simulation.step sim;
  let (), seconds = Timer.timed (fun () -> Simulation.run sim ~ticks) in
  (seconds /. float_of_int ticks, Simulation.report sim)

(* How many ticks to average over, given how slow one tick will be. *)
let ticks_for ~evaluator ~n =
  match evaluator with
  | Simulation.Naive -> if n >= 4000 then 2 else if n >= 1000 then 3 else 10
  | Simulation.Indexed | Simulation.Fused ->
    if n >= 8000 then 3 else 10

(* ------------------------------------------------------------------ *)
(* Figure 10: total time versus number of units, naive vs indexed *)

let fig10 ~full () =
  header
    "Figure 10 - total time for 500 clock ticks vs number of units (1% density)";
  pr "(per-tick time measured, scaled to the paper's 500 ticks)@.@.";
  let naive_sizes = if full then [ 250; 500; 1000; 2000; 4000; 8000 ] else [ 250; 500; 1000; 2000 ] in
  let indexed_sizes =
    if full then [ 250; 500; 1000; 2000; 4000; 8000; 12000; 14000 ]
    else [ 250; 500; 1000; 2000; 4000; 8000; 12000 ]
  in
  let measure evaluator n =
    let per_tick, r = battle_seconds ~evaluator ~n ~density:0.01 ~ticks:(ticks_for ~evaluator ~n) in
    Bench_json.emit ~section:"fig10"
      ~config:
        [ ("evaluator", Simulation.evaluator_name evaluator); ("units", string_of_int n) ]
      ~ticks_per_s:(1. /. per_tick)
      ~phases:
        [
          ("decision_s", r.Simulation.decision_s);
          ("build_s", r.Simulation.build_s);
          ("post_s", r.Simulation.post_s);
          ("movement_s", r.Simulation.movement_s);
          ("death_s", r.Simulation.death_s);
        ];
    per_tick *. 500.
  in
  let naive = List.map (fun n -> (n, measure Simulation.Naive n)) naive_sizes in
  let indexed = List.map (fun n -> (n, measure Simulation.Indexed n)) indexed_sizes in
  pr "%8s %18s %18s %10s@." "units" "naive (s/500t)" "indexed (s/500t)" "speedup";
  List.iter
    (fun (n, ti) ->
      match List.assoc_opt n naive with
      | Some tn -> pr "%8d %18.2f %18.2f %9.1fx@." n tn ti (tn /. ti)
      | None -> pr "%8d %18s %18.2f %10s@." n "-" ti "-")
    indexed;
  (* the paper's shape claims, verified numerically *)
  let ratio series a b =
    match (List.assoc_opt a series, List.assoc_opt b series) with
    | Some ta, Some tb -> tb /. ta
    | _ -> nan
  in
  pr "@.growth when units double (1000 -> 2000): naive %.1fx (quadratic ~4x), indexed %.1fx (n log n ~2x)@."
    (ratio naive 1000 2000) (ratio indexed 1000 2000)

(* ------------------------------------------------------------------ *)
(* Section 6.1 capacity: largest army at >= 10 ticks per second *)

let capacity ~full () =
  header "Section 6.1 - capacity at 10 ticks/second (tick budget 100 ms)";
  let budget = 0.1 in
  let max_probe evaluator = match (evaluator, full) with
    | Simulation.Naive, false -> 4_000
    | Simulation.Naive, true -> 16_000
    | (Simulation.Indexed | Simulation.Fused), false -> 32_000
    | (Simulation.Indexed | Simulation.Fused), true -> 64_000
  in
  let tick_time evaluator n =
    let per_tick, _ = battle_seconds ~evaluator ~n ~density:0.01 ~ticks:2 in
    per_tick
  in
  let find evaluator =
    let cap = max_probe evaluator in
    (* double until over budget (or the probe cap), then bisect *)
    let rec grow n = if n >= cap || tick_time evaluator n > budget then n else grow (n * 2) in
    let hi = grow 125 in
    if hi >= cap && tick_time evaluator cap <= budget then (cap, true)
    else begin
      let rec bisect lo hi =
        if hi - lo <= max 8 (lo / 16) then lo
        else begin
          let mid = (lo + hi) / 2 in
          if tick_time evaluator mid <= budget then bisect mid hi else bisect lo mid
        end
      in
      (bisect (hi / 2) hi, false)
    end
  in
  let report name evaluator =
    let n, capped = find evaluator in
    pr "%-8s sustains 10 ticks/s up to ~%d units%s@." name n
      (if capped then " (probe cap reached; the true capacity is higher)" else "")
  in
  report "naive" Simulation.Naive;
  report "indexed" Simulation.Indexed;
  pr "@.(paper, 2 GHz C++: naive < 1100 units, indexed > 12000; the ~10x ratio@.";
  pr " between the two capacities is the reproducible claim)@."

(* ------------------------------------------------------------------ *)
(* Section 6.1 density sweep: 500 units, density 0.5% .. 8% *)

let density_sweep () =
  header "Section 6.1 - unit density sweep (500 units, 5 ticks each)";
  pr "%10s %16s %16s@." "density" "naive (s/tick)" "indexed (s/tick)";
  List.iter
    (fun d ->
      let tn, _ = battle_seconds ~evaluator:Simulation.Naive ~n:500 ~density:d ~ticks:5 in
      let ti, _ = battle_seconds ~evaluator:Simulation.Indexed ~n:500 ~density:d ~ticks:5 in
      pr "%9.1f%% %16.4f %16.4f@." (d *. 100.) tn ti)
    [ 0.005; 0.01; 0.02; 0.04; 0.08 ];
  pr "@.(the paper reports neither algorithm is particularly sensitive to density)@."

(* ------------------------------------------------------------------ *)
(* Ablation machinery: evaluate one aggregate instance over a random
   integer-lattice point set through the real evaluator plumbing. *)

let ablation_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "health" Value.TFloat;
      Schema.attr "range" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "damage" Value.TFloat;
    ]

let ablation_units ?side schema ~n ~range =
  let prng = Prng.create 99 in
  let side =
    match side with
    | Some s -> s
    | None -> int_of_float (sqrt (float_of_int n /. 0.01))
  in
  Array.init n (fun i ->
      Tuple.of_list schema
        [
          Value.Int i;
          Value.Int (i mod 2);
          Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 1 ]));
          Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 2 ]));
          Value.Float (float_of_int (10 + Prng.int prng ~bound:90 [ i; 3 ]));
          Value.Float range;
          Value.Float 0.;
        ])

(* Time evaluating [agg] once for every unit (all units probe). *)
let time_agg_batch ~schema ~units (agg : Aggregate.t) ~(kind : [ `Naive | `Indexed ]) : float =
  let aggregates = [| agg |] in
  let ev =
    match kind with
    | `Naive -> Eval.naive ~schema ~aggregates
    | `Indexed -> Eval.indexed ~schema ~aggregates ()
  in
  ev.Eval.prepare units;
  let rands = Array.map (fun _ -> fun (_ : int) -> 0) units in
  let (), seconds =
    Timer.timed (fun () -> ignore (ev.Eval.eval_agg ~agg_id:0 ~rows:units ~rands))
  in
  seconds

let box_where ~range_expr =
  let open Expr in
  [
    Cmp (Ge, EAttr 2, Binop (Sub, UAttr 2, range_expr));
    Cmp (Le, EAttr 2, Binop (Add, UAttr 2, range_expr));
    Cmp (Ge, EAttr 3, Binop (Sub, UAttr 3, range_expr));
    Cmp (Le, EAttr 3, Binop (Add, UAttr 3, range_expr));
    Cmp (Ne, EAttr 1, UAttr 1);
  ]

(* A1: prefix-aggregate leaves vs enumerate-the-box vs full scan. *)
let ablate_divisible () =
  header "Ablation A1 - divisible aggregate: prefix leaves vs enumeration vs scan";
  pr "(count of enemies in a 240-wide box on a fixed 300x300 battlefield: the@.";
  pr " dense-combat regime where the box holds a constant fraction of the army,@.";
  pr " so the enumeration term k grows linearly with n)@.@.";
  let schema = ablation_schema () in
  let range = 120. in
  let fast =
    Aggregate.make ~name:"count_box" ~kinds:[ Aggregate.Count ]
      ~where_:(box_where ~range_expr:(Expr.Const (Value.Float range))) ()
  in
  (* semantically identical, but the tautological residual mentions both u
     and e, so the planner must take the enumerate-and-filter path *)
  let tautology =
    Expr.Cmp
      ( Expr.Gt,
        Expr.Binop (Expr.Add, Expr.EAttr 4, Expr.Binop (Expr.Mul, Expr.UAttr 2, Expr.Const (Value.Float 0.))),
        Expr.Const (Value.Float 0.) )
  in
  let enum =
    Aggregate.make ~name:"count_box_enum" ~kinds:[ Aggregate.Count ]
      ~where_:(tautology :: box_where ~range_expr:(Expr.Const (Value.Float range)))
      ()
  in
  pr "%8s %14s %14s %14s@." "units" "prefix (s)" "enumerate (s)" "scan (s)";
  List.iter
    (fun n ->
      let units = ablation_units ~side:300 schema ~n ~range in
      let t_fast = time_agg_batch ~schema ~units fast ~kind:`Indexed in
      let t_enum = time_agg_batch ~schema ~units enum ~kind:`Indexed in
      let t_scan = time_agg_batch ~schema ~units fast ~kind:`Naive in
      pr "%8d %14.4f %14.4f %14.4f@." n t_fast t_enum t_scan)
    [ 1000; 2000; 4000; 8000 ];
  pr "@.(enumeration pays O(k) per probe once boxes fill up - the \"k is large\"@.";
  pr " argument of Section 5.3.1; prefix leaves stay polylogarithmic)@."

(* A2: sweep-line min/max vs enumeration vs scan. *)
let ablate_sweep () =
  header "Ablation A2 - constant-range ARGMIN: sweep-line vs enumeration vs scan";
  let schema = ablation_schema () in
  let range = 25. in
  let mk range_expr name =
    Aggregate.make ~name
      ~kinds:[ Aggregate.Arg_min { objective = Expr.EAttr 4; result = Expr.EAttr 0 } ]
      ~where_:(box_where ~range_expr)
      ~default:(Expr.Const (Value.Int (-1)))
      ()
  in
  (* constant range -> sweep; the same range read from an attribute is not
     provably constant, so the planner falls back to enumeration *)
  let sweep = mk (Expr.Const (Value.Float range)) "weakest_const" in
  let enum = mk (Expr.UAttr 5) "weakest_attr" in
  pr "%8s %14s %14s %14s@." "units" "sweep (s)" "enumerate (s)" "scan (s)";
  List.iter
    (fun n ->
      let units = ablation_units schema ~n ~range in
      let t_sweep = time_agg_batch ~schema ~units sweep ~kind:`Indexed in
      let t_enum = time_agg_batch ~schema ~units enum ~kind:`Indexed in
      let t_scan = time_agg_batch ~schema ~units sweep ~kind:`Naive in
      pr "%8d %14.4f %14.4f %14.4f@." n t_sweep t_enum t_scan)
    [ 1000; 2000; 4000; 8000 ]

(* A3: kD-tree nearest neighbour vs scan. *)
let ablate_nn () =
  header "Ablation A3 - nearest enemy: kD-tree vs scan";
  let schema = ablation_schema () in
  let nearest =
    Aggregate.make ~name:"nearest_enemy"
      ~kinds:
        [
          Aggregate.Nearest
            {
              ex = Expr.EAttr 2;
              ey = Expr.EAttr 3;
              ux = Expr.UAttr 2;
              uy = Expr.UAttr 3;
              result = Expr.EAttr 0;
            };
        ]
      ~where_:[ Expr.Cmp (Expr.Ne, Expr.EAttr 1, Expr.UAttr 1) ]
      ~default:(Expr.Const (Value.Int (-1)))
      ()
  in
  pr "%8s %14s %14s %10s@." "units" "kd-tree (s)" "scan (s)" "speedup";
  List.iter
    (fun n ->
      let units = ablation_units schema ~n ~range:25. in
      let t_kd = time_agg_batch ~schema ~units nearest ~kind:`Indexed in
      let t_scan = time_agg_batch ~schema ~units nearest ~kind:`Naive in
      pr "%8d %14.4f %14.4f %9.1fx@." n t_kd t_scan (t_scan /. t_kd))
    [ 1000; 2000; 4000; 8000 ]

(* A5: Section 5.4 - combining area effects via an effect-center index. *)
let ablate_combine () =
  header "Ablation A5 - area-of-effect combination: effect-center index vs pairwise";
  pr "(every unit projects a healing aura every tick: the worst case for (+))@.@.";
  let schema =
    Schema.create
      [
        Schema.attr "key" Value.TInt;
        Schema.attr "player" Value.TInt;
        Schema.attr "posx" Value.TFloat;
        Schema.attr "posy" Value.TFloat;
        Schema.attr ~tag:Schema.Max "inaura" Value.TFloat;
      ]
  in
  let source =
    {|
action Aura(u) {
  on all(u.player = e.player
         and e.posx >= u.posx - 8.0 and e.posx <= u.posx + 8.0
         and e.posy >= u.posy - 8.0 and e.posy <= u.posy + 8.0) {
    inaura <- 5;
  }
}
script healer(u) { perform Aura(u); }
|}
  in
  let prog = compile ~schema source in
  let compiled = Exec.compile prog in
  let run kind n =
    let prng = Prng.create 5 in
    let side = int_of_float (sqrt (float_of_int n /. 0.02)) in
    let units =
      Array.init n (fun i ->
          Tuple.of_list schema
            [
              Value.Int i;
              Value.Int (i mod 2);
              Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 1 ]));
              Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 2 ]));
              Value.Float 0.;
            ])
    in
    let evaluator =
      match kind with
      | `Naive -> Eval.naive ~schema ~aggregates:prog.Core_ir.aggregates
      | `Indexed -> Eval.indexed ~schema ~aggregates:prog.Core_ir.aggregates ()
    in
    let groups = [ { Exec.script = "healer"; members = Array.init n (fun i -> i) } ] in
    let (), seconds =
      Timer.timed (fun () ->
          ignore (Exec.run_tick compiled ~evaluator ~units ~groups ~rand_for:(fun ~key:_ _ -> 0)))
    in
    seconds
  in
  pr "%8s %16s %14s %10s@." "units" "indexed (s)" "pairwise (s)" "speedup";
  List.iter
    (fun n ->
      let ti = run `Indexed n and tn = run `Naive n in
      pr "%8d %16.4f %14.4f %9.1fx@." n ti tn (tn /. ti))
    [ 1000; 2000; 4000; 8000 ]

(* A4: where does the indexed tick go? (Section 6's phase split) *)
let phases () =
  header "Ablation A4 - indexed tick phase split (battle, 2000 units, 10 ticks)";
  let per_tick, r = battle_seconds ~evaluator:Simulation.Indexed ~n:2000 ~density:0.01 ~ticks:10 in
  Bench_json.emit ~section:"phases"
    ~config:[ ("evaluator", "indexed"); ("units", "2000") ]
    ~ticks_per_s:(1. /. per_tick)
    ~phases:
      [
        ("decision_s", r.Simulation.decision_s);
        ("build_s", r.Simulation.build_s);
        ("post_s", r.Simulation.post_s);
        ("movement_s", r.Simulation.movement_s);
        ("death_s", r.Simulation.death_s);
      ];
  let total = r.Simulation.total_s in
  let pct x = 100. *. x /. total in
  pr "decision (probe)   : %7.3fs  (%4.1f%%)@."
    (r.Simulation.decision_s -. r.Simulation.build_s)
    (pct (r.Simulation.decision_s -. r.Simulation.build_s));
  pr "index building     : %7.3fs  (%4.1f%%)  [%d structures built]@." r.Simulation.build_s
    (pct r.Simulation.build_s) r.Simulation.index_builds;
  pr "post-processing    : %7.3fs  (%4.1f%%)@." r.Simulation.post_s (pct r.Simulation.post_s);
  pr "movement           : %7.3fs  (%4.1f%%)@." r.Simulation.movement_s
    (pct r.Simulation.movement_s);
  pr "death/resurrection : %7.3fs  (%4.1f%%)@." r.Simulation.death_s (pct r.Simulation.death_s);
  pr "index probes       : %d@." r.Simulation.index_probes;
  pr "@.(the paper: \"the overhead of index construction is quite low\" - with@.";
  pr " access-path sharing enabled, probes dominate and full per-tick rebuilds@.";
  pr " keep the whole tick at n log n)@."

(* A6: sharing one tree across divisible queries (Section 6's engine
   design) vs a private tree per aggregate instance. *)
let ablate_share () =
  header "Ablation A6 - shared index groups vs per-instance trees (battle sim)";
  pr "(Section 6: \"all divisible queries share the same range tree\")@.@.";
  let run ~share n =
    let scenario =
      Battle.Scenario.setup ~density:0.01 ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
    in
    let prog = Battle.Scripts.compile () in
    let schema = prog.Core_ir.schema in
    let evaluator = Eval.indexed ~share ~schema ~aggregates:prog.Core_ir.aggregates () in
    let compiled = Exec.compile prog in
    let units = scenario.Battle.Scenario.units in
    let kind_ix = Schema.find schema "kind" in
    let groups =
      let buckets = Hashtbl.create 4 in
      Array.iteri
        (fun i u ->
          let name =
            Battle.Scripts.script_for
              (Battle.D20.class_of_id (Value.to_int (Tuple.get u kind_ix)))
          in
          Hashtbl.replace buckets name (i :: (try Hashtbl.find buckets name with Not_found -> [])))
        units;
      Hashtbl.fold
        (fun script members acc ->
          { Exec.script; members = Array.of_list (List.rev members) } :: acc)
        buckets []
    in
    let ticks = 5 in
    let (), seconds =
      Timer.timed (fun () ->
          for tick = 0 to ticks - 1 do
            ignore
              (Exec.run_tick compiled ~evaluator ~units ~groups
                 ~rand_for:(fun ~key i -> (key * 31) + i + tick))
          done)
    in
    (seconds /. float_of_int ticks, evaluator.Eval.stats)
  in
  pr "%8s %14s %12s %14s %12s@." "units" "shared (s/t)" "builds" "private (s/t)" "builds";
  List.iter
    (fun n ->
      let ts, ss = run ~share:true n in
      let tp, sp = run ~share:false n in
      pr "%8d %14.4f %12d %14.4f %12d@." n ts ss.Eval.index_builds tp sp.Eval.index_builds)
    [ 1000; 2000; 4000 ]

(* ------------------------------------------------------------------ *)
(* Incremental index maintenance: the cross-tick structure cache *)

(* A low-churn sentry scenario, built to separate the cache's two rebuild
   regimes.  A handful of scouts (player 0) probe a box-count aggregate
   partitioned by player; a churn-sized band of wanderers (player 1)
   marches one cell per tick; the bulk of the army (player 2) never moves
   and never acts.  Warm ticks rebuild only the wanderers' partition —
   the statics' structures revalidate through the delta summary — while
   cold ticks rebuild everything.  Every unit owns its own grid row, so
   movement never collides and ticks stay non-structural. *)
let incremental_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_x" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_y" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "seen" Value.TFloat;
    ]

let incremental_source =
  {|
aggregate NearOthers(u) {
  count(*)
  where e.player <> u.player
    and e.posx >= u.posx - 40.0 and e.posx <= u.posx + 40.0
    and e.posy >= u.posy - 40.0 and e.posy <= u.posy + 40.0
}

action Mark(u) { on self { seen <- 1; } }
action Drift(u) { on self { movevect_x <- 1; } }

script scout(u) {
  let c = NearOthers(u);
  if c > 0 then { perform Mark(u); }
}
script wanderer(u) { perform Drift(u); }
|}

let incremental_scouts = 32
let incremental_width = 4096

let incremental_units schema ~(n : int) ~(churn : float) : Sgl.Tuple.t array =
  let wanderers = int_of_float (churn *. float_of_int (n - incremental_scouts)) in
  Array.init n (fun i ->
      let player, x =
        if i < incremental_scouts then (0, 2000)
        else if i < incremental_scouts + wanderers then (1, 100 + (i mod 50))
        else (2, 400 + (i * 7 mod 3200))
      in
      Tuple.of_list schema
        [
          Value.Int i;
          Value.Int player;
          Value.Float (float_of_int x);
          Value.Float (float_of_int i);
          Value.Float 0.;
          Value.Float 0.;
          Value.Float 0.;
        ])

let incremental_sim ~(index_cache : bool) ~(evaluator : Simulation.evaluator_kind) ~(n : int)
    ~(churn : float) : Simulation.t =
  let schema = incremental_schema () in
  let prog = compile ~schema incremental_source in
  let player_ix = Schema.find schema "player" in
  let config =
    {
      Simulation.prog;
      script_of =
        (fun u ->
          match Value.to_int (Tuple.get u player_ix) with
          | 0 -> Some "scout"
          | 1 -> Some "wanderer"
          | _ -> None);
      postprocess =
        Postprocess.make ~schema ~updates:[] ~remove_when:(Expr.Const (Value.Bool false));
      movement =
        Some
          {
            Movement.posx = Schema.find schema "posx";
            posy = Schema.find schema "posy";
            mvx = Schema.find schema "movevect_x";
            mvy = Schema.find schema "movevect_y";
            speed = 1.5;
            speed_attr = None;
            width = incremental_width;
            height = n;
          };
      death = Simulation.Remove;
      seed = 7;
      optimize = true;
    }
  in
  Simulation.create ~index_cache config ~evaluator ~units:(incremental_units schema ~n ~churn)

(* Ticks per second plus the final report; one warm-up tick outside the
   clock (compilation, the unavoidable first cold build). *)
let incremental_rate ~index_cache ~evaluator ~n ~churn ~ticks : float * Simulation.report =
  let sim = incremental_sim ~index_cache ~evaluator ~n ~churn in
  Simulation.step sim;
  let (), seconds = Timer.timed (fun () -> Simulation.run sim ~ticks) in
  (float_of_int ticks /. seconds, Simulation.report sim)

let incremental ~full () =
  header "Incremental maintenance - warm cross-tick structure cache vs cold rebuild";
  pr "(sentry scenario: %d scouts probe box counts over a mostly static army;@."
    incremental_scouts;
  pr " churn = fraction of units moving per tick.  Warm revalidates cached@.";
  pr " structures against the tick's delta summary, cold rebuilds per tick.@.";
  pr " Unit states are bit-identical either way - the differential suite pins it.)@.@.";
  let sizes = if full then [ 2_000; 8_000; 20_000 ] else [ 2_000; 8_000 ] in
  let churns = [ 0.01; 0.10; 0.50 ] in
  let evaluators = [ ("indexed", Simulation.Indexed) ] in
  pr "%-11s %8s %7s %14s %14s %8s %10s@." "evaluator" "units" "churn" "warm (t/s)"
    "cold (t/s)" "speedup" "reuses";
  List.iter
    (fun (ev_name, evaluator) ->
      List.iter
        (fun n ->
          List.iter
            (fun churn ->
              let ticks = if n >= 20_000 then 5 else 10 in
              let warm, wr = incremental_rate ~index_cache:true ~evaluator ~n ~churn ~ticks in
              let cold, cr = incremental_rate ~index_cache:false ~evaluator ~n ~churn ~ticks in
              pr "%-11s %8d %6.0f%% %14.1f %14.1f %7.2fx %10d@." ev_name n (churn *. 100.)
                warm cold (warm /. cold) wr.Simulation.index_reuses;
              (* a warm row that never reused a structure: the cache is off *)
              if wr.Simulation.index_reuses = 0 then
                fail_check
                  (Printf.sprintf "incremental: warm %s units=%d churn=%.2f recorded no reuses"
                     ev_name n churn);
              let emit label rate (r : Simulation.report) =
                Bench_json.emit ~section:"incremental"
                  ~config:
                    [
                      ("evaluator", ev_name);
                      ("units", string_of_int n);
                      ("churn", Printf.sprintf "%.2f" churn);
                      ("cache", label);
                    ]
                  ~ticks_per_s:rate
                  ~phases:
                    [
                      ("decision_s", r.Simulation.decision_s);
                      ("build_s", r.Simulation.build_s);
                      ("post_s", r.Simulation.post_s);
                      ("movement_s", r.Simulation.movement_s);
                      ("death_s", r.Simulation.death_s);
                      ("index_builds", float_of_int r.Simulation.index_builds);
                      ("index_reuses", float_of_int r.Simulation.index_reuses);
                    ]
              in
              emit "warm" warm wr;
              emit "cold" cold cr)
            churns)
        sizes)
    evaluators;
  pr "@.(warm wins grow with army size and shrink with churn: the statics'@.";
  pr " range trees are the O(n log n) build cost the delta summary avoids)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the index kernels *)

let micro () =
  header "Micro-benchmarks (Bechamel, monotonic clock; ns per run)";
  let open Bechamel in
  let open Toolkit in
  let prng = Prng.create 31 in
  let n = 4096 in
  let xs = Array.init n (fun i -> float_of_int (Prng.int prng ~bound:1000 [ i; 1 ])) in
  let ys = Array.init n (fun i -> float_of_int (Prng.int prng ~bound:1000 [ i; 2 ])) in
  let vals = Array.init n (fun i -> float_of_int (Prng.int prng ~bound:100 [ i; 3 ])) in
  let ids = Array.init n (fun i -> i) in
  let stats = Array.concat (List.init n (fun id -> [| 1.; vals.(id) |])) in
  let geometry = Geometry.make ~x:xs ~y:ys in
  let cascade = Cascade_tree.build geometry ~stats ~m:2 in
  let layered = Range_tree.build ~dims:[ xs; ys ] ~stats:(Some stats) ~m:2 n in
  let kd = Kd_tree.build geometry ids in
  (* one probe box, refilled per run as the indexed evaluator refills it *)
  let box = Interval.box [ Interval.everything; Interval.everything ] in
  let fill_box q =
    box.Interval.lows.(0) <- xs.(q) -. 50.;
    box.Interval.highs.(0) <- xs.(q) +. 50.;
    box.Interval.lows.(1) <- ys.(q) -. 50.;
    box.Interval.highs.(1) <- ys.(q) +. 50.
  in
  let acc = Array.make 2 0. and scratch = Array.make 2 0. in
  (* The battle's group-0 shape: 6000 points (one army at 12k units) with
     count, posx and posy statistics; and one argmin sweep of as many
     probers over them at the knights' melee window. *)
  let n6 = 6000 in
  let x6 = Array.init n6 (fun i -> float_of_int (Prng.int prng ~bound:1000 [ i; 4 ])) in
  let y6 = Array.init n6 (fun i -> float_of_int (Prng.int prng ~bound:1000 [ i; 5 ])) in
  let health6 = Array.init n6 (fun i -> float_of_int (Prng.int prng ~bound:100 [ i; 6 ])) in
  let stats6 = Array.concat (List.init n6 (fun k -> [| 1.; x6.(k); y6.(k) |])) in
  let best6 = Array.make n6 0 in
  (* The structures read the partition's presorted geometry; the
     [_with_sort] rows pay for the geometry too, as a fresh partition does. *)
  let geometry6 = Geometry.make ~x:x6 ~y:y6 in
  let ids6 = Array.init n6 Fun.id in
  let counter = ref 0 in
  let next () =
    counter := (!counter + 1) land (n - 1);
    !counter
  in
  (* The sentry's per-unit layers: 50k battle units in distinct cells, no
     effects for post-processing (every row stays shared), and a move
     vector for one unit in a hundred.  Movement starts each run from the
     same rows: it never writes into them, only into its own copies. *)
  let n50 = 50_000 in
  let schema = Battle.Unit_types.schema () in
  let units50 =
    Array.init n50 (fun i ->
        Battle.Unit_types.make_unit schema ~key:i ~player:(i land 1) ~klass:Battle.D20.Knight
          ~x:(i mod 4096) ~y:(i / 4096))
  in
  let post_spec = Postprocess.battle_spec ~schema in
  let no_effects = Combine.Acc.create schema in
  let movers = Combine.Acc.create schema in
  Array.iteri
    (fun i u ->
      if i mod 100 = 0 then
        Combine.Acc.add_attr movers ~base:u ~key:i (Schema.find schema "movevect_x") (Value.Float 1.))
    units50;
  let mconfig =
    {
      Movement.posx = Schema.find schema "posx";
      posy = Schema.find schema "posy";
      mvx = Schema.find schema "movevect_x";
      mvy = Schema.find schema "movevect_y";
      speed = 1.5;
      speed_attr = None;
      width = 4096;
      height = 4096;
    }
  in
  let grid = Movement.create_grid mconfig and moved = Array.copy units50 in
  let order50 = Array.init n50 Fun.id in
  let tests =
    [
      Test.make ~name:"post_apply_50k_idle"
        (Staged.stage (fun () ->
             ignore
               (Postprocess.apply post_spec ~schema ~rand_for:(fun ~key:_ _ -> 0) ~units:units50
                  ~acc:no_effects)));
      Test.make ~name:"movement_50k_1pct"
        (Staged.stage (fun () ->
             Array.blit units50 0 moved 0 n50;
             Movement.run grid ~schema ~prng ~tick:(next ()) ~units:moved ~acc:movers));
      Test.make ~name:"shuffle_50k"
        (Staged.stage (fun () -> Prng.shuffle_in_place prng [ next (); 17 ] order50));
      Test.make ~name:"sort_6000"
        (Staged.stage (fun () -> ignore (Float_sort.order x6)));
      Test.make ~name:"sort_6000_closure"
        (Staged.stage (fun () ->
             let order = Array.init n6 Fun.id in
             Array.sort (fun a b -> Float.compare x6.(a) x6.(b)) order));
      Test.make ~name:"geometry_6000"
        (Staged.stage (fun () -> ignore (Geometry.make ~x:x6 ~y:y6)));
      Test.make ~name:"cascade_build_4096"
        (Staged.stage (fun () -> ignore (Cascade_tree.build geometry ~stats ~m:2)));
      Test.make ~name:"cascade_build_6000_m3"
        (Staged.stage (fun () -> ignore (Cascade_tree.build geometry6 ~stats:stats6 ~m:3)));
      Test.make ~name:"cascade_probe"
        (Staged.stage (fun () ->
             fill_box (next ());
             Cascade_tree.accumulate cascade box ~scratch acc));
      Test.make ~name:"layered_probe"
        (Staged.stage (fun () ->
             fill_box (next ());
             Range_tree.accumulate layered box ~scratch acc));
      Test.make ~name:"sweepline_6000"
        (Staged.stage (fun () ->
             Sweepline.run Sweepline.Min geometry6 ~value:health6 ~qx:x6 ~qy:y6 ~rx:2. ~ry:2. best6));
      Test.make ~name:"sweepline_6000_with_sort"
        (Staged.stage (fun () ->
             Sweepline.run Sweepline.Min (Geometry.make ~x:x6 ~y:y6) ~value:health6 ~qx:x6 ~qy:y6
               ~rx:2. ~ry:2. best6));
      Test.make ~name:"kd_build_4096"
        (Staged.stage (fun () -> ignore (Kd_tree.build geometry ids)));
      Test.make ~name:"kd_build_6000"
        (Staged.stage (fun () -> ignore (Kd_tree.build geometry6 ids6)));
      Test.make ~name:"kd_build_6000_with_sort"
        (Staged.stage (fun () -> ignore (Kd_tree.build (Geometry.make ~x:x6 ~y:y6) ids6)));
      Test.make ~name:"kd_nearest"
        (Staged.stage (fun () ->
             let q = next () in
             ignore (Kd_tree.nearest kd ~qx:xs.(q) ~qy:ys.(q))));
      Test.make ~name:"prng_script_random"
        (Staged.stage (fun () -> ignore (Prng.script_random prng ~tick:3 ~key:(next ()) 1)));
      Test.make ~name:"naive_scan_4096"
        (Staged.stage (fun () ->
             let q = next () in
             let acc = ref 0 in
             for i = 0 to n - 1 do
               if Float.abs (xs.(i) -. xs.(q)) <= 50. && Float.abs (ys.(i) -. ys.(q)) <= 50. then
                 incr acc
             done;
             ignore !acc));
    ]
  in
  let grouped = Test.make_grouped ~name:"sgl" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  pr "%-30s %14s@." "kernel" "ns/run";
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> pr "%-30s %14.1f@." name t
      | Some [] | None -> pr "%-30s %14s@." name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Telemetry: instrumentation overhead on the formation battle.

   Three passes over the same workload: ambient registry disabled (the
   shipped default — every call site pays one atomic load), registry
   enabled (--metrics), and registry + span tracer (--trace-spans).  The
   telemetry-off pass is the one the <2% overhead budget is judged
   against; with --json armed, the metrics document of the instrumented
   pass is archived next to the bench rows. *)

let telemetry_bench () =
  header "Telemetry - instrumentation overhead (indexed evaluator, 2000 units)";
  let n = 2000 and density = 0.01 and ticks = 20 in
  let measure mode ~pre ~post =
    pre ();
    let per_tick, r = battle_seconds ~evaluator:Simulation.Indexed ~n ~density ~ticks in
    post ();
    Bench_json.emit ~section:"telemetry"
      ~config:[ ("mode", mode); ("units", string_of_int n) ]
      ~ticks_per_s:(1. /. per_tick)
      ~phases:
        [
          ("decision_s", r.Simulation.decision_s);
          ("build_s", r.Simulation.build_s);
          ("post_s", r.Simulation.post_s);
          ("movement_s", r.Simulation.movement_s);
          ("death_s", r.Simulation.death_s);
        ];
    (mode, per_tick)
  in
  let nothing () = () in
  let off = measure "off" ~pre:(fun () -> Telemetry.set_enabled false) ~post:nothing in
  let metrics =
    measure "metrics"
      ~pre:(fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled true)
      ~post:(fun () ->
        match Bench_json.current_path () with
        | None -> ()
        | Some p ->
          let mp = p ^ ".metrics.json" in
          Telemetry.Registry.write_json Telemetry.default ~path:mp;
          pr "telemetry: metrics archived to %s@." mp)
  in
  let spans =
    measure "metrics+spans"
      ~pre:(fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled true;
        Telemetry.Span.start ())
      ~post:(fun () ->
        pr "telemetry: %d span events recorded@." (Telemetry.Span.count ());
        Telemetry.Span.stop ())
  in
  Telemetry.set_enabled false;
  let _, t_off = off in
  pr "@.%-16s %12s %10s@." "mode" "ticks/s" "overhead";
  List.iter
    (fun (mode, per_tick) ->
      pr "%-16s %12.1f %9.1f%%@." mode (1. /. per_tick) ((per_tick /. t_off -. 1.) *. 100.))
    [ off; metrics; spans ]

(* ------------------------------------------------------------------ *)
(* Observability: flight recorder + live endpoint overhead.

   Same workload as the telemetry bench, four passes: no observer (the
   shipped default), the flight ring alone, ring + streaming dump sink
   (flushed per tick), and ring + the HTTP server bound with a client
   polling /metrics and /health throughout the run.  The off pass is the
   baseline the obs-on numbers are judged against — it must match the
   no-obs engine exactly (the observer hook is a single option check).
   The obs-on passes pay one state digest per commit, incremental over
   the columns the tick dirtied; ring append, sink flush and a polling
   client are noise on top of it. *)

let obs_bench () =
  header "Observability - flight recorder and live endpoint overhead (indexed, 2000 units)";
  let n = 2000 and density = 0.01 and ticks = 20 in
  let measure mode ~(attach : Simulation.t -> unit -> unit) =
    let scenario =
      Battle.Scenario.setup ~density ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
    in
    let sim = Battle.Scenario.simulation ~evaluator:Simulation.Indexed scenario in
    Simulation.step sim;
    let detach = attach sim in
    let (), seconds = Timer.timed (fun () -> Simulation.run sim ~ticks) in
    detach ();
    let r = Simulation.report sim in
    let per_tick = seconds /. float_of_int ticks in
    Bench_json.emit ~section:"obs"
      ~config:[ ("mode", mode); ("units", string_of_int n) ]
      ~ticks_per_s:(1. /. per_tick)
      ~phases:
        [
          ("decision_s", r.Simulation.decision_s);
          ("build_s", r.Simulation.build_s);
          ("post_s", r.Simulation.post_s);
          ("movement_s", r.Simulation.movement_s);
          ("death_s", r.Simulation.death_s);
        ];
    (mode, per_tick)
  in
  let prog = Battle.Scripts.compile () in
  let off = measure "off" ~attach:(fun _ () -> ()) in
  let flight =
    measure "flight" ~attach:(fun sim ->
        let live = Obs.Live.create ~flight_capacity:1024 ~sim ~prog () in
        fun () -> Obs.Live.stop live)
  in
  let sink =
    measure "flight+sink" ~attach:(fun sim ->
        let path = Filename.temp_file "sgl_bench_flight" ".dump" in
        let live = Obs.Live.create ~flight_capacity:1024 ~dump_path:path ~sim ~prog () in
        fun () ->
          Obs.Live.stop live;
          (try Sys.remove path with Sys_error _ -> ()))
  in
  let http =
    measure "flight+http" ~attach:(fun sim ->
        let live = Obs.Live.create ~flight_capacity:1024 ~sim ~prog () in
        let port = Obs.Live.serve live ~port:0 in
        let polling = Atomic.make true in
        let get target =
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target in
              ignore (Unix.write_substring fd req 0 (String.length req));
              let chunk = Bytes.create 4096 in
              let rec drain () = if Unix.read fd chunk 0 4096 > 0 then drain () in
              drain ())
        in
        let client =
          Thread.create
            (fun () ->
              while Atomic.get polling do
                (try
                   get "/metrics";
                   get "/health"
                 with Unix.Unix_error _ -> ());
                Thread.delay 0.005
              done)
            ()
        in
        fun () ->
          Atomic.set polling false;
          Thread.join client;
          Obs.Live.stop live)
  in
  let _, t_off = off in
  pr "@.%-16s %12s %10s@." "mode" "ticks/s" "overhead";
  List.iter
    (fun (mode, per_tick) ->
      pr "%-16s %12.1f %9.1f%%@." mode (1. /. per_tick) ((per_tick /. t_off -. 1.) *. 100.))
    [ off; flight; sink; http ]

(* ------------------------------------------------------------------ *)
(* Fused kernels: compiled decision execution vs interpreted plan walking.

   A decision-heavy scenario: every unit runs a scalar steering script —
   long expression chains over tuning constants, one cheap uniform
   aggregate per batch — so the decision phase is dominated by the
   per-row work the fused backend compiles away (plan walking, context
   allocation, re-evaluating constant subtrees) rather than by index
   probes, which cost the same under every backend. *)

let fused_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "health" Value.TFloat;
      Schema.attr "morale" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_x" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_y" Value.TFloat;
    ]

let fused_source =
  (* The tuning formulas k1..k6 are arithmetic over the script constants
     only, and they are spliced INLINE at every use site (a [let] would
     pin them to a register, and constant folding does not cross register
     binds).  Each occurrence is a pure-constant subtree: the fused
     backend folds it to one literal at specialization time, while the
     interpreter re-walks the whole tree for every row on every tick.
     The later formulas textually contain the earlier ones, so the trees
     compound - exactly the "tuning arithmetic around the data" shape
     hand-written steering scripts exhibit. *)
  let k1 = "((WX + WY) * (1.0 - DRIFT) + (WX * 8.0 - WY * (DRIFT + 0.5)) * (WX + DRIFT * WY))" in
  let k2 =
    "((DRIFT * DRIFT - WX * WY) * (1.0 + WX + WY) + max(WX, WY) * abs(DRIFT - WX * 2.0))"
  in
  let k3 =
    Printf.sprintf
      "(max(%s, %s) * (1.0 - WX * DRIFT) + min(%s, %s) * (WY + DRIFT * DRIFT * WX))" k1 k2 k1 k2
  in
  let k4 =
    Printf.sprintf
      "(abs(%s - %s * DRIFT) * (WX * (1.0 + DRIFT) - WY * (1.0 - DRIFT)) + max(%s * WX, %s * WY) \
       * (DRIFT + WX * (1.0 - WY * 2.0)))"
      k1 k2 k3 k1
  in
  let k5 =
    Printf.sprintf
      "((%s + %s * (WX - WY * DRIFT)) * (1.0 + DRIFT * DRIFT) - min(%s * WX, %s * (DRIFT + WY)) \
       * abs(1.0 - %s * DRIFT))"
      k4 k3 k4 k2 k1
  in
  let k6 =
    Printf.sprintf
      "(max(%s, %s * (1.0 - DRIFT)) * (WY + WX * DRIFT * DRIFT) + abs(%s - %s + %s * WX) * \
       (DRIFT * (1.0 - WX) * (1.0 - WY)))"
      k5 k4 k5 k4 k3
  in
  Printf.sprintf
    {|
const WX = 0.046875;
const WY = 0.03125;
const DRIFT = 0.25;

aggregate SpreadX(u) { stddev(e.posx) where e.player = 0 default 0.0 }

action Advance(u, vx, vy) {
  on self { movevect_x <- vx; movevect_y <- vy; }
}
action Hold(u, p) {
  on self { movevect_x <- 0.0 - p; }
}

script main(u) {
  let s = SpreadX(u);
  let px = u.posx * %s - u.posy * %s + (u.posx - u.posy) * (WX * (1.0 - DRIFT) + WY * DRIFT);
  let py = u.posy * %s + u.posx * %s - (u.posy - u.posx) * (WY * (1.0 - DRIFT) + WX * DRIFT);
  let wob = abs(px - py) + max(px, py) * (1.0 - WX * DRIFT) + u.morale * %s;
  let bias = min(px * %s - py * %s, py * %s - px * %s) + abs(wob - %s) * (DRIFT * (1.0 - WY));
  let gain = max(0.0 - wob, wob * (1.0 - WX)) + s * WY + abs(u.health * %s - bias * %s);
  if gain > u.health * %s then {
    if wob > gain * %s then { perform Advance(u, px * DRIFT + bias * %s, py * DRIFT + %s); }
    else { perform Advance(u, py * DRIFT - %s, px * DRIFT - bias * %s); }
  } else {
    perform Hold(u, gain * DRIFT + wob * %s + bias * %s);
  }
}
|}
    k1 k2 k1 k2 k3 k3 k2 k4 k1 k6 k1 k4 k5 k3 k2 k6 k4 k1 k2 k3

let fused_units schema ~n =
  let prng = Prng.create 17 in
  let side = int_of_float (sqrt (float_of_int n /. 0.01)) in
  Array.init n (fun i ->
      Tuple.of_list schema
        [
          Value.Int i;
          Value.Int (i mod 2);
          Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 1 ]));
          Value.Float (float_of_int (Prng.int prng ~bound:side [ i; 2 ]));
          Value.Float (float_of_int (10 + Prng.int prng ~bound:90 [ i; 3 ]));
          Value.Float (float_of_int (Prng.int prng ~bound:4 [ i; 4 ]));
          Value.Float 0.;
          Value.Float 0.;
        ])

let fused_sim ?fault_policy ?(columnar = true) ~(index_cache : bool)
    ~(evaluator : Simulation.evaluator_kind) ~(n : int) () : Simulation.t =
  let schema = fused_schema () in
  let prog = compile ~schema fused_source in
  let config =
    {
      Simulation.prog;
      script_of = (fun _ -> Some "main");
      postprocess =
        Postprocess.make ~schema ~updates:[] ~remove_when:(Expr.Const (Value.Bool false));
      movement =
        Some
          {
            Movement.posx = Schema.find schema "posx";
            posy = Schema.find schema "posy";
            mvx = Schema.find schema "movevect_x";
            mvy = Schema.find schema "movevect_y";
            speed = 2.;
            speed_attr = None;
            width = 2048;
            height = 2048;
          };
      death = Simulation.Remove;
      seed = 13;
      optimize = true;
    }
  in
  Simulation.create ?fault_policy ~index_cache ~columnar config ~evaluator
    ~units:(fused_units schema ~n)

(* Decision-phase seconds per tick from the engine's phase timer, one
   warm-up tick outside the clock (compilation, kernel specialization). *)
let fused_decision ~index_cache ~evaluator ~n ~ticks : float * Simulation.report =
  let sim = fused_sim ~index_cache ~evaluator ~n () in
  Simulation.step sim;
  let before = (Simulation.report sim).Simulation.decision_s in
  Simulation.run sim ~ticks;
  let r = Simulation.report sim in
  ((r.Simulation.decision_s -. before) /. float_of_int ticks, r)

let fused_bench ~full () =
  header "Fused kernels - compiled decision execution vs interpreted plan walking";
  pr "(scalar steering scenario: the decision phase is per-row expression@.";
  pr " work plus one uniform aggregate per batch.  The kernels are pinned@.";
  pr " bit-identical to every other evaluator by the conformance suite;@.";
  pr " only the time changes.)@.@.";
  let sizes = if full then [ 2_000; 8_000; 12_000; 20_000 ] else [ 2_000; 8_000; 12_000 ] in
  let evaluators = [ ("indexed", Simulation.Indexed); ("fused", Simulation.Fused) ] in
  pr "%8s %6s" "units" "cache";
  List.iter (fun (name, _) -> pr " %13s" (name ^ " (s/t)")) evaluators;
  pr " %12s@." "fused gain";
  List.iter
    (fun n ->
      let ticks = if n >= 8_000 then 5 else 10 in
      List.iter
        (fun index_cache ->
          let results =
            List.map
              (fun (name, evaluator) ->
                let t, r = fused_decision ~index_cache ~evaluator ~n ~ticks in
                Bench_json.emit ~section:"fused"
                  ~config:
                    [
                      ("evaluator", name);
                      ("units", string_of_int n);
                      ("cache", if index_cache then "warm" else "cold");
                    ]
                  ~ticks_per_s:(1. /. t)
                  ~phases:
                    [
                      ("decision_s", t);
                      ("build_s", r.Simulation.build_s);
                      ("post_s", r.Simulation.post_s);
                      ("movement_s", r.Simulation.movement_s);
                      ("death_s", r.Simulation.death_s);
                    ];
                (name, t))
              evaluators
          in
          pr "%8d %6s" n (if index_cache then "warm" else "cold");
          List.iter (fun (_, t) -> pr " %13.4f" t) results;
          pr " %11.2fx@." (List.assoc "indexed" results /. List.assoc "fused" results))
        [ true; false ])
    sizes;
  pr "@.(the gain is the interpreter constant factor the kernels remove:@.";
  pr " no plan walk, no per-evaluation context, constant subtrees folded@.";
  pr " at specialization time.  Index-probe-bound workloads gain less -@.";
  pr " probes cost the same under every backend.)@."

(* ------------------------------------------------------------------ *)
(* Fault tolerance: policy overhead and recovery latency *)

let faults_bench () =
  header "Fault tolerance - policy overhead and recovery latency";
  pr "(per-tick time under each fault policy with no faults firing.  The@.";
  pr " fault-free tick is the same code under every policy: quarantine and@.";
  pr " degrade act only after a rollback, so the columns should sit within@.";
  pr " run noise)@.@.";
  let policies =
    [
      ("fail", Simulation.Fail);
      ("quarantine", Simulation.Quarantine_script);
      ("degrade", Simulation.Degrade);
    ]
  in
  let workloads =
    [
      ( "battle 12k, indexed",
        fun fault_policy ->
          Battle.Scenario.simulation ~seed:42 ~fault_policy ~evaluator:Simulation.Indexed
            (Battle.Scenario.setup ~density:0.01
               ~per_side:(Battle.Scenario.standard_mix 6_000)
               ()) );
      ( "steering 12k, fused",
        fun fault_policy ->
          fused_sim ~fault_policy ~index_cache:true ~evaluator:Simulation.Fused ~n:12_000 () );
    ]
  in
  let rounds = 15 in
  pr "%-22s" "p50 s/tick";
  List.iter (fun (name, _) -> pr " %12s" name) policies;
  pr " %16s %13s@." "quarantine/fail" "degrade/fail";
  List.iter
    (fun (label, make) ->
      (* One simulation per policy, stepped round-robin with the starting
         policy rotating every round, so host drift hits every column.  A
         full major collection before each timed step keeps one
         simulation's garbage from being collected on another's clock. *)
      let sims = Array.of_list (List.map (fun (_, policy) -> make policy) policies) in
      Array.iter Simulation.step sims;
      let samples = Array.map (fun _ -> Array.make rounds 0.) sims in
      for r = 0 to rounds - 1 do
        for j = 0 to Array.length sims - 1 do
          let k = (r + j) mod Array.length sims in
          Gc.full_major ();
          let (), seconds = Timer.timed (fun () -> Simulation.step sims.(k)) in
          samples.(k).(r) <- seconds
        done
      done;
      let p50 =
        Array.map
          (fun xs ->
            let xs = Array.copy xs in
            Array.sort Float.compare xs;
            (xs.((rounds - 1) / 2) +. xs.(rounds / 2)) /. 2.)
          samples
      in
      pr "%-22s" label;
      Array.iter (pr " %12.4f") p50;
      pr " %15.2fx %12.2fx@." (p50.(1) /. p50.(0)) (p50.(2) /. p50.(0)))
    workloads;
  (* Recovery latency: arm an injection that fires mid-run and measure the
     tick that absorbs the rollback and the retry. *)
  let n = 2_000 and ticks = 10 in
  pr "@.recovery latency (%d units, fault on tick 6 of %d):@." n ticks;
  List.iter
    (fun (label, fault_policy, evaluator, point, spec) ->
      Fun.protect ~finally:Fault_inject.reset (fun () ->
          Fault_inject.reset ();
          let scenario =
            Battle.Scenario.setup ~density:0.01
              ~per_side:(Battle.Scenario.standard_mix (n / 2))
              ()
          in
          let sim = Battle.Scenario.simulation ~fault_policy ~evaluator scenario in
          Simulation.step sim;
          let healthy = ref 0. and faulty = ref 0. and after = ref 0. in
          for t = 2 to ticks + 1 do
            Fault_inject.reset ();
            if t = 6 then Fault_inject.arm ~point spec;
            let (), seconds = Timer.timed (fun () -> Simulation.step sim) in
            if t < 6 then healthy := !healthy +. seconds
            else if t = 6 then faulty := seconds
            else after := !after +. seconds
          done;
          pr "  %-38s healthy %.4fs/t, faulty tick %.4fs, after %.4fs/t (%d retries)@."
            (label ^ " @ " ^ point)
            (!healthy /. 4.) !faulty
            (!after /. float_of_int (ticks - 5))
            (Simulation.retries sim)))
    [
      ("degrade indexed->naive", Simulation.Degrade, Simulation.Indexed, "eval.member",
       Fault_inject.Always);
      ("quarantine retry", Simulation.Quarantine_script, Simulation.Indexed, "exec.group",
       Fault_inject.At_count 2);
    ];
  pr "@.(the faulty tick pays the failed partial tick plus a full retry - on@.";
  pr " the weaker evaluator for degrade, without the quarantined script for@.";
  pr " quarantine; later ticks run at that configuration's pace)@."

(* ------------------------------------------------------------------ *)
(* Columnar store: the struct-of-arrays access path vs boxed rows.

   The full battle scenario — real kd/segment/cascade index builds every
   tick — run with the columnar mirror handed to the decision phase
   ("columnar") and withheld ("boxed", [~columnar:false] — the
   pre-columnar access path: every read boxes a [Value.t] out of a
   tuple).  Storage and results are identical either way; only the
   access path changes. *)

let columnar_run ~columnar ~evaluator ~n ~ticks : float * float =
  let scenario =
    Battle.Scenario.setup ~density:0.01 ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
  in
  let sim = Battle.Scenario.simulation ~columnar ~evaluator scenario in
  Simulation.step sim;
  let r0 = Simulation.report sim in
  Simulation.run sim ~ticks;
  let r = Simulation.report sim in
  ( (r.Simulation.decision_s -. r0.Simulation.decision_s) /. float_of_int ticks,
    (r.Simulation.build_s -. r0.Simulation.build_s) /. float_of_int ticks )

let columnar_bench ~full () =
  header "Columnar store - struct-of-arrays access path vs boxed rows";
  pr "(one warm-up tick outside the clock; decision_s includes build_s.@.";
  pr " The two access paths are pinned bit-identical by the conformance@.";
  pr " and engine suites; only the time changes.)@.@.";
  let sizes = [ 12_000; 100_000 ] in
  let evaluators ~n =
    (* the naive evaluator is O(n^2) per tick on this scenario and ignores
       the mirror anyway; measured at 12k to document the ~1x, skipped at
       100k (it would dominate the wall clock without informing anything) *)
    (if n <= 12_000 then [ ("naive", Simulation.Naive) ] else [])
    @ [ ("indexed", Simulation.Indexed); ("fused", Simulation.Fused) ]
  in
  pr "%8s %12s %14s %14s %9s %14s %14s@." "units" "evaluator" "boxed (s/t)" "columnar (s/t)"
    "gain" "boxed bld" "columnar bld";
  List.iter
    (fun n ->
      let evs = evaluators ~n in
      List.iter
        (fun (name, evaluator) ->
          let ticks =
            if name = "naive" then 1 else if n >= 100_000 then (if full then 3 else 2) else 5
          in
          let measure columnar =
            let d, b = columnar_run ~columnar ~evaluator ~n ~ticks in
            Bench_json.emit ~section:"columnar"
              ~config:
                [
                  ("evaluator", name);
                  ("units", string_of_int n);
                  ("access", if columnar then "columnar" else "boxed");
                ]
              ~ticks_per_s:(1. /. d)
              ~phases:[ ("decision_s", d); ("build_s", b) ];
            (d, b)
          in
          let bd, bb = measure false in
          let cd, cb = measure true in
          pr "%8d %12s %14.4f %14.4f %8.2fx %14.4f %14.4f@." n name bd cd (bd /. cd) bb cb)
        evs;
      if n > 12_000 then pr "%8d %12s %s@." n "naive" "(skipped: O(n^2) per tick)")
    sizes;
  pr "@.(the gain is boxing removed from the hot loops: index builds scan@.";
  pr " contiguous float arrays instead of pulling Value.t out of every@.";
  pr " tuple, and fused kernels load bind operands straight from the@.";
  pr " typed columns.  The naive evaluator takes no columnar path, so@.";
  pr " its ratio documents measurement noise.)@."

(* ------------------------------------------------------------------ *)
(* Durable state: checkpoint/journal overhead on the 12k-unit battle.

   Baseline is the shipped default (persistence off).  The durable
   passes pay one CRC-framed journal append (+ fsync unless disarmed)
   per committed tick, plus a full-state snapshot every [every] ticks —
   cadence 10 is checkpoint-heavy, cadence 100 isolates the journal
   cost (only the arming snapshot lands inside the run).  Ambient
   telemetry is enabled for every pass (same tax everywhere) so the
   persist.* metrics carry checkpoint write times and journal volume. *)

let persist_bench () =
  header "Durable state - checkpoint/journal overhead (indexed evaluator, 12000 units)";
  let n = 12_000 and density = 0.01 and ticks = 40 in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let fresh_dir tag =
    let dir = Filename.concat (Filename.get_temp_dir_name ()) ("sgl-bench-persist-" ^ tag) in
    rm_rf dir;
    Sys.mkdir dir 0o755;
    dir
  in
  let measure ~mode ~every ~fsync () =
    Telemetry.reset ();
    Telemetry.set_enabled true;
    let scenario =
      Battle.Scenario.setup ~density ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
    in
    let sim = Battle.Scenario.simulation ~evaluator:Simulation.Indexed scenario in
    (* warm one tick outside the clock; the arming snapshot of the
       durable passes stays outside it too *)
    Simulation.step sim;
    let dir = Option.map fresh_dir (if every >= 0 then Some mode else None) in
    Option.iter (fun dir -> Simulation.checkpoint_every ~fsync sim ~dir ~every) dir;
    let (), seconds = Timer.timed (fun () -> Simulation.run sim ~ticks) in
    Simulation.detach_persistence sim;
    let counter name =
      match List.assoc_opt name (Telemetry.Registry.counters Telemetry.default) with
      | Some v -> v
      | None -> 0
    in
    let ckpt =
      match List.assoc_opt "persist.checkpoint_ns" (Telemetry.Registry.histograms Telemetry.default) with
      | Some s -> s
      | None ->
        {
          Telemetry.count = 0;
          mean = 0.;
          stddev = 0.;
          min = 0.;
          max = 0.;
          total = 0.;
          p50 = 0.;
          p90 = 0.;
          p99 = 0.;
        }
    in
    let journal_bytes = counter "persist.journal_bytes" in
    Telemetry.set_enabled false;
    Option.iter rm_rf dir;
    let per_tick = seconds /. float_of_int ticks in
    Bench_json.emit ~section:"persist"
      ~config:
        [
          ("mode", mode);
          ("units", string_of_int n);
          ("every", string_of_int every);
          ("fsync", string_of_bool fsync);
        ]
      ~ticks_per_s:(1. /. per_tick)
      ~phases:
        [
          ("checkpoint_mean_s", ckpt.Telemetry.mean /. 1e9);
          ("checkpoint_max_s", ckpt.Telemetry.max /. 1e9);
          ("checkpoint_total_s", ckpt.Telemetry.total /. 1e9);
          ("checkpoints", float_of_int ckpt.Telemetry.count);
          ("journal_bytes_per_tick", float_of_int journal_bytes /. float_of_int ticks);
        ];
    (mode, per_tick, ckpt, journal_bytes)
  in
  (* every = -1 encodes "persistence off" (the baseline) *)
  let rows =
    [
      measure ~mode:"off" ~every:(-1) ~fsync:false ();
      measure ~mode:"every=10" ~every:10 ~fsync:true ();
      measure ~mode:"every=100" ~every:100 ~fsync:true ();
      measure ~mode:"every=10,nofsync" ~every:10 ~fsync:false ();
    ]
  in
  let _, t_off, _, _ = List.hd rows in
  pr "@.%-18s %10s %9s %7s %12s %12s@." "mode" "ticks/s" "overhead" "ckpts" "ckpt mean ms" "jrnl B/tick";
  List.iter
    (fun (mode, per_tick, ckpt, journal_bytes) ->
      pr "%-18s %10.1f %8.1f%% %7d %12.2f %12.0f@." mode (1. /. per_tick)
        ((per_tick /. t_off -. 1.) *. 100.)
        ckpt.Telemetry.count (ckpt.Telemetry.mean /. 1e6)
        (float_of_int journal_bytes /. float_of_int ticks))
    rows;
  pr "@.(the journal append is tens of bytes per tick; the snapshot is@.";
  pr " tens of milliseconds at this population and amortizes with the@.";
  pr " cadence, so the durability tax stays in the single-digit percent@.";
  pr " range - overhead spreads beyond that are run-to-run noise.)@."

(* ------------------------------------------------------------------ *)
(* Driver *)

let everything ~full () =
  fig10 ~full ();
  capacity ~full ();
  density_sweep ();
  ablate_divisible ();
  ablate_sweep ();
  ablate_nn ();
  ablate_combine ();
  ablate_share ();
  phases ();
  incremental ~full ();
  fused_bench ~full ();
  columnar_bench ~full ();
  faults_bench ();
  telemetry_bench ();
  obs_bench ();
  persist_bench ();
  micro ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* [--json PATH] arms the machine-readable emitter and is stripped before
     section dispatch, so it composes with any section list. *)
  let rec extract_json acc = function
    | "--json" :: path :: rest ->
      Bench_json.set_path path;
      List.rev_append acc rest
    | [ "--json" ] ->
      Fmt.epr "--json requires an output path@.";
      exit 1
    | x :: rest -> extract_json (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_json [] args in
  pr "SGL benchmark harness - reproduction of White et al., SIGMOD 2007@.";
  Fun.protect ~finally:Bench_json.write (fun () ->
      match args with
      | [] | [ "quick" ] -> everything ~full:false ()
      | [ "full" ] -> everything ~full:true ()
      | names ->
        List.iter
          (function
            | "fig10" -> fig10 ~full:false ()
            | "fig10-full" -> fig10 ~full:true ()
            | "capacity" -> capacity ~full:false ()
            | "density" -> density_sweep ()
            | "ablate-divisible" -> ablate_divisible ()
            | "ablate-sweep" -> ablate_sweep ()
            | "ablate-nn" -> ablate_nn ()
            | "ablate-combine" -> ablate_combine ()
            | "ablate-share" -> ablate_share ()
            | "phases" -> phases ()
            | "incremental" -> incremental ~full:false ()
            | "incremental-full" -> incremental ~full:true ()
            | "fused" -> fused_bench ~full:false ()
            | "fused-full" -> fused_bench ~full:true ()
            | "columnar" -> columnar_bench ~full:false ()
            | "columnar-full" -> columnar_bench ~full:true ()
            | "faults" -> faults_bench ()
            | "telemetry" -> telemetry_bench ()
            | "obs" -> obs_bench ()
            | "persist" -> persist_bench ()
            | "micro" -> micro ()
            | other ->
              Fmt.epr "unknown benchmark %S@." other;
              exit 1)
          names);
  if !failed_checks <> [] then begin
    List.iter (Fmt.epr "check failed: %s@.") (List.rev !failed_checks);
    exit 1
  end
