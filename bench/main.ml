(* The benchmark harness: regenerates every experiment in the paper's
   evaluation (Section 6) plus the ablations DESIGN.md commits to.

     dune exec bench/main.exe            -- quick pass over everything
     dune exec bench/main.exe -- full    -- the paper-scale sweeps
     dune exec bench/main.exe -- SECTION ... [--json PATH]

   Sections, in quick-pass order (SECTION-full runs the paper-scale sizes
   of fig10, capacity and incremental):
     fig10 capacity density
     ablate-divisible ablate-sweep ablate-nn ablate-combine ablate-share
     incremental faults telemetry obs persist micro

   With [--json PATH] every section writes one row per measured
   configuration through [Bench_json.emit]; BENCH_*.json at the repository
   root archives the quick pass, and scripts/bench-regress.sh re-runs it
   against that archive.  The indexed tick's phase split (the paper's
   Section 6 and ablation A4) is battle-12k's under
   [benchmark/run.py --trace 1].

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

(* One warm tick outside the clock (compilation, the first cold index
   builds), then [ticks] timed ticks: seconds per tick and the phase
   metrics of the timed ticks alone.  [attach] arms an observer or
   persistence after the warm tick and returns its detach. *)
let timed_run ?(attach = fun _ () -> ()) (sim : Simulation.t) ~(ticks : int) :
    float * Bench_json.metric list =
  Simulation.step sim;
  let detach = attach sim in
  let since = Simulation.report sim in
  let (), seconds = Timer.timed (fun () -> Simulation.run sim ~ticks) in
  detach ();
  (seconds /. float_of_int ticks, Bench_json.phases ~since (Simulation.report sim))

let battle_sim ~(evaluator : Simulation.evaluator_kind) ~(n : int) ~(density : float) :
    Simulation.t =
  Battle.Scenario.simulation ~evaluator
    (Battle.Scenario.setup ~density ~per_side:(Battle.Scenario.standard_mix (n / 2)) ())

(* The row of a timed run: its tick rate, gated, then [extra] and the
   phases. *)
let emit_run ~section ~config ?(extra = []) ((per_tick, phases) : float * Bench_json.metric list)
    : unit =
  Bench_json.emit
    {
      section;
      config;
      metrics = (Bench_json.higher "ticks_per_s" (1. /. per_tick) :: extra) @ phases;
    }

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
    let run = timed_run (battle_sim ~evaluator ~n ~density:0.01) ~ticks:(ticks_for ~evaluator ~n) in
    emit_run ~section:"fig10"
      ~config:[ ("evaluator", Simulation.evaluator_name evaluator); ("units", string_of_int n) ]
      run;
    fst run *. 500.
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
  let tick_time evaluator n = fst (timed_run (battle_sim ~evaluator ~n ~density:0.01) ~ticks:2) in
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
  let report evaluator =
    let n, capped = find evaluator in
    let name = Simulation.evaluator_name evaluator in
    pr "%-8s sustains 10 ticks/s up to ~%d units%s@." name n
      (if capped then " (probe cap reached; the true capacity is higher)" else "");
    Bench_json.emit
      {
        section = "capacity";
        config = [ ("evaluator", name) ];
        metrics =
          [
            Bench_json.higher "units" (float_of_int n);
            Bench_json.info "probe_cap_reached" (if capped then 1. else 0.);
          ];
      }
  in
  report Simulation.Naive;
  report Simulation.Indexed;
  pr "@.(paper, 2 GHz C++: naive < 1100 units, indexed > 12000; the ~10x ratio@.";
  pr " between the two capacities is the reproducible claim)@."

(* ------------------------------------------------------------------ *)
(* Section 6.1 density sweep: 500 units, density 0.5% .. 8% *)

let density_sweep () =
  header "Section 6.1 - unit density sweep (500 units, 5 ticks each)";
  pr "%10s %16s %16s@." "density" "naive (s/tick)" "indexed (s/tick)";
  List.iter
    (fun d ->
      let measure evaluator =
        let run = timed_run (battle_sim ~evaluator ~n:500 ~density:d) ~ticks:5 in
        emit_run ~section:"density"
          ~config:
            [
              ("evaluator", Simulation.evaluator_name evaluator);
              ("density", Printf.sprintf "%.3f" d);
            ]
          run;
        fst run
      in
      let tn = measure Simulation.Naive in
      let ti = measure Simulation.Indexed in
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
  let aggregates = [| agg |] and tel = Telemetry.Registry.create () in
  let ev =
    match kind with
    | `Naive -> Eval.naive ~tel ~aggregates
    | `Indexed -> Eval.indexed ~tel ~schema ~aggregates ()
  in
  ev.Eval.prepare units;
  let rands = Array.map (fun _ -> fun (_ : int) -> 0) units in
  let (), seconds =
    Timer.timed (fun () -> ignore (ev.Eval.eval_agg ~agg_id:0 ~rows:units ~rands))
  in
  seconds

(* Write the row of one ablation variant's time at [n] units. *)
let variant ~section ~n (name : string) (seconds : float) : float =
  Bench_json.emit
    {
      section;
      config = [ ("units", string_of_int n); ("variant", name) ];
      metrics = [ Bench_json.lower "time_ms" (seconds *. 1000.) ];
    };
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
      let variant = variant ~section:"ablate-divisible" ~n in
      let t_fast = variant "prefix" (time_agg_batch ~schema ~units fast ~kind:`Indexed) in
      let t_enum = variant "enumerate" (time_agg_batch ~schema ~units enum ~kind:`Indexed) in
      let t_scan = variant "scan" (time_agg_batch ~schema ~units fast ~kind:`Naive) in
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
      let variant = variant ~section:"ablate-sweep" ~n in
      let t_sweep = variant "sweep" (time_agg_batch ~schema ~units sweep ~kind:`Indexed) in
      let t_enum = variant "enumerate" (time_agg_batch ~schema ~units enum ~kind:`Indexed) in
      let t_scan = variant "scan" (time_agg_batch ~schema ~units sweep ~kind:`Naive) in
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
      let variant = variant ~section:"ablate-nn" ~n in
      let t_kd = variant "kd-tree" (time_agg_batch ~schema ~units nearest ~kind:`Indexed) in
      let t_scan = variant "scan" (time_agg_batch ~schema ~units nearest ~kind:`Naive) in
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
    let tel = Telemetry.Registry.create () in
    let evaluator =
      match kind with
      | `Naive -> Eval.naive ~tel ~aggregates:prog.Core_ir.aggregates
      | `Indexed -> Eval.indexed ~tel ~schema ~aggregates:prog.Core_ir.aggregates ()
    in
    let groups = [ { Exec.script = "healer"; members = Array.init n (fun i -> i) } ] in
    let cols = Sgl_relalg.Colstore.of_tuples schema units in
    let acc = Combine.Acc.create schema ~positions:n in
    let (), seconds =
      Timer.timed (fun () ->
          Exec.run_tick ~cols ~acc compiled ~evaluator ~units ~groups
            ~rand_for:(fun ~key:_ _ -> 0))
    in
    seconds
  in
  pr "%8s %16s %14s %10s@." "units" "indexed (s)" "pairwise (s)" "speedup";
  List.iter
    (fun n ->
      let variant = variant ~section:"ablate-combine" ~n in
      let ti = variant "indexed" (run `Indexed n) in
      let tn = variant "pairwise" (run `Naive n) in
      pr "%8d %16.4f %14.4f %9.1fx@." n ti tn (tn /. ti))
    [ 1000; 2000; 4000; 8000 ]

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
    let tel = Telemetry.Registry.create ~enabled:true () in
    let evaluator = Eval.indexed ~share ~tel ~schema ~aggregates:prog.Core_ir.aggregates () in
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
    let cols = Sgl_relalg.Colstore.of_tuples schema units in
    let acc = Combine.Acc.create schema ~positions:(Array.length units) in
    let (), seconds =
      Timer.timed (fun () ->
          for tick = 0 to ticks - 1 do
            Exec.run_tick ~cols ~acc compiled ~evaluator ~units ~groups
              ~rand_for:(fun ~key i -> (key * 31) + i + tick)
          done)
    in
    let per_tick = seconds /. float_of_int ticks
    and builds = Telemetry.Counter.value (Eval.counters tel).Eval.index_builds in
    Bench_json.emit
      {
        section = "ablate-share";
        config = [ ("units", string_of_int n); ("variant", if share then "shared" else "private") ];
        metrics =
          [
            Bench_json.lower "tick_ms" (per_tick *. 1000.);
            Bench_json.fewer "index_builds" (float_of_int builds);
          ];
      };
    (per_tick, builds)
  in
  pr "%8s %14s %12s %14s %12s@." "units" "shared (s/t)" "builds" "private (s/t)" "builds";
  List.iter
    (fun n ->
      let ts, bs = run ~share:true n in
      let tp, bp = run ~share:false n in
      pr "%8d %14.4f %12d %14.4f %12d@." n ts bs tp bp)
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

let incremental ~full () =
  header "Incremental maintenance - warm cross-tick structure cache vs cold rebuild";
  pr "(sentry scenario: %d scouts probe box counts over a mostly static army;@."
    incremental_scouts;
  pr " churn = fraction of units moving per tick.  Warm revalidates cached@.";
  pr " structures against the tick's delta summary, cold rebuilds per tick.@.";
  pr " Unit states are bit-identical either way - the differential suite pins it.)@.@.";
  let sizes = if full then [ 2_000; 8_000; 20_000 ] else [ 2_000; 8_000 ] in
  let churns = [ 0.01; 0.10; 0.50 ] in
  pr "%-11s %8s %7s %14s %14s %8s %10s@." "evaluator" "units" "churn" "warm (t/s)"
    "cold (t/s)" "speedup" "reuses/t";
  List.iter
    (fun n ->
      List.iter
        (fun churn ->
          let ticks = if n >= 20_000 then 5 else 10 in
          let measure label index_cache =
            let evaluator = Simulation.Indexed in
            let run = timed_run (incremental_sim ~index_cache ~evaluator ~n ~churn) ~ticks in
            emit_run ~section:"incremental"
              ~config:
                [
                  ("evaluator", "indexed");
                  ("units", string_of_int n);
                  ("churn", Printf.sprintf "%.2f" churn);
                  ("cache", label);
                ]
              run;
            let reuses =
              List.find (fun m -> m.Bench_json.name = "index_reuses_per_tick") (snd run)
            in
            (1. /. fst run, reuses.Bench_json.value)
          in
          let warm, reuses = measure "warm" true in
          let cold, _ = measure "cold" false in
          pr "%-11s %8d %6.0f%% %14.1f %14.1f %7.2fx %10.1f@." "indexed" n (churn *. 100.) warm
            cold (warm /. cold) reuses;
          (* a warm row that never reused a structure: the cache is off *)
          if reuses = 0. then
            fail_check
              (Printf.sprintf "incremental: warm units=%d churn=%.2f recorded no reuses" n churn))
        churns)
    sizes;
  pr "@.(warm wins grow with army size and shrink with churn: the statics'@.";
  pr " range trees are the O(n log n) build cost the delta summary avoids)@."

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks of the engine's layers *)

(* Nearest-rank first quartile, median and third quartile of [xs]. *)
let quartiles (xs : float array) : float * float * float =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let at q = a.(int_of_float (Float.round (q *. float_of_int (Array.length a - 1)))) in
  (at 0.25, at 0.5, at 0.75)

(* A round of a row lasts at least this long: a single run of the
   cheapest kernels is too short to time on its own. *)
let min_round_s = 100e-6

(* Same-process interleaved rounds: every round runs each kernel's batch
   once, in forward order on even rounds and reverse order on odd ones,
   so a burst from another tenant of the host lands on every row alike.
   A row's batch is the smallest power of two of runs that lasts
   [min_round_s], found once after a warm-up run.  Each row reports the
   median and quartiles of its per-round times, per run. *)
let interleaved ~(rounds : int) (rows : (string * (unit -> unit)) list) : unit =
  let rows = Array.of_list rows in
  let k = Array.length rows in
  let times = Array.make_matrix k rounds 0. in
  let run_batch f batch =
    let t0 = Timer.now_ns () in
    for _ = 1 to batch do
      f ()
    done;
    Int64.to_float (Int64.sub (Timer.now_ns ()) t0) /. 1e3
  in
  let batches =
    Array.map
      (fun (_, f) ->
        f ();
        let rec size batch =
          if run_batch f batch >= min_round_s *. 1e6 then batch else size (2 * batch)
        in
        size 1)
      rows
  in
  for r = 0 to rounds - 1 do
    for s = 0 to k - 1 do
      let i = if r land 1 = 0 then s else k - 1 - s in
      times.(i).(r) <- run_batch (snd rows.(i)) batches.(i) /. float_of_int batches.(i)
    done
  done;
  pr "Interleaved, %d rounds (us per run)@." rounds;
  pr "%-36s %12s %12s %12s %8s@." "kernel" "median" "q1" "q3" "batch";
  Array.iteri
    (fun i (name, _) ->
      let q1, med, q3 = quartiles times.(i) in
      pr "%-36s %12.3f %12.3f %12.3f %8d@." name med q1 q3 batches.(i);
      Bench_json.emit
        {
          section = "micro";
          config = [ ("kernel", name) ];
          metrics =
            Bench_json.
              [
                lower "median_us" med;
                info "q1_us" q1;
                info "q3_us" q3;
                info "runs_per_round" (float_of_int batches.(i));
              ];
        })
    rows

let micro () =
  header "Micro-benchmarks (monotonic clock)";
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
     same rows, whose committed store its fill reads: it never writes into
     them, only into its own copies. *)
  let n50 = 50_000 in
  let schema = Battle.Unit_types.schema () in
  let units50 =
    Array.init n50 (fun i ->
        Battle.Unit_types.make_unit schema ~key:i ~player:(i land 1) ~klass:Battle.D20.Knight
          ~x:(i mod 4096) ~y:(i / 4096))
  in
  let post_spec = Postprocess.battle_spec ~schema in
  let no_effects = Combine.Acc.create schema ~positions:n50 in
  let movers = Combine.Acc.create schema ~positions:n50 in
  Array.iteri
    (fun i u ->
      if i mod 100 = 0 then
        Combine.Acc.add_attr movers ~base:u ~pos:i (Schema.find schema "movevect_x") (Value.Float 1.))
    units50;
  (* The ⊕ merge layer: 12 000 contributions, a damage and an aura value
     for each of 6000 units, into one accumulator emptied per run as a
     simulation empties its own per tick. *)
  let damage = Schema.find schema "damage" and inaura = Schema.find schema "inaura" in
  let acc12k = Combine.Acc.create schema ~positions:6000 in
  let hit = Value.Float 3. and aura = Value.Float 2. in
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
  let cols50 = Sgl_relalg.Colstore.of_tuples schema units50 in
  let order50 = Array.init n50 Fun.id in
  (* The commit after a tick with a death: a structural delta, so every
     column of the 12k-unit battle's rows is rebuilt. *)
  let battle12k =
    Battle.Scenario.setup ~density:0.01 ~per_side:(Battle.Scenario.standard_mix 6000) ()
  in
  let units12k = battle12k.Battle.Scenario.units in
  let store12k = Sgl_relalg.Colstore.of_tuples battle12k.Battle.Scenario.schema units12k in
  let structural = Delta.create battle12k.Battle.Scenario.schema in
  Delta.record_structural structural;
  let layers =
    [
      ( "acc_add_attr_12k",
        fun () ->
          Combine.Acc.reset acc12k ~positions:6000;
          for pos = 0 to 5999 do
            Combine.Acc.add_attr acc12k ~base:units50.(pos) ~pos damage hit;
            Combine.Acc.add_attr acc12k ~base:units50.(pos) ~pos inaura aura
          done );
      ( "colstore_refresh_12k_structural",
        fun () -> Sgl_relalg.Colstore.refresh ~delta:structural store12k units12k );
      ("shuffle_50k", fun () -> Prng.shuffle_in_place prng [ next (); 17 ] order50);
      ("sort_6000", fun () -> ignore (Float_sort.order x6));
      ( "sort_6000_closure",
        fun () ->
          let order = Array.init n6 Fun.id in
          Array.sort (fun a b -> Float.compare x6.(a) x6.(b)) order );
      ("geometry_6000", fun () -> ignore (Geometry.make ~x:x6 ~y:y6));
      ("cascade_build_4096", fun () -> ignore (Cascade_tree.build geometry ~stats ~m:2));
      ("cascade_build_6000_m3", fun () -> ignore (Cascade_tree.build geometry6 ~stats:stats6 ~m:3));
      ( "cascade_probe",
        fun () ->
          fill_box (next ());
          Cascade_tree.accumulate cascade box ~scratch acc );
      ( "layered_probe",
        fun () ->
          fill_box (next ());
          Range_tree.accumulate layered box ~scratch acc );
      ( "sweepline_6000",
        fun () ->
          Sweepline.run Sweepline.Min geometry6 ~value:health6 ~qx:x6 ~qy:y6 ~rx:2. ~ry:2. best6 );
      ( "sweepline_6000_with_sort",
        fun () ->
          Sweepline.run Sweepline.Min (Geometry.make ~x:x6 ~y:y6) ~value:health6 ~qx:x6 ~qy:y6
            ~rx:2. ~ry:2. best6 );
      ("kd_build_4096", fun () -> ignore (Kd_tree.build geometry ids));
      ("kd_build_6000", fun () -> ignore (Kd_tree.build geometry6 ids6));
      ( "kd_build_6000_with_sort",
        fun () -> ignore (Kd_tree.build (Geometry.make ~x:x6 ~y:y6) ids6) );
      ( "kd_nearest",
        fun () ->
          let q = next () in
          ignore (Kd_tree.nearest kd ~qx:xs.(q) ~qy:ys.(q)) );
      ("prng_script_random", fun () -> ignore (Prng.script_random prng ~tick:3 ~key:(next ()) 1));
      ( "naive_scan_4096",
        fun () ->
          let q = next () in
          let acc = ref 0 in
          for i = 0 to n - 1 do
            if Float.abs (xs.(i) -. xs.(q)) <= 50. && Float.abs (ys.(i) -. ys.(q)) <= 50. then
              incr acc
          done;
          ignore !acc );
    ]
  in
  (* The commit path of a sentry tick over the 50k rows: one unit in a
     hundred moved one cell in x, so one column is dirty.  The digest is
     recomputed for that column from the rows and from the store; the
     refresh copies the column and patches the moved positions. *)
  let posx = Schema.find schema "posx" in
  let moved50 =
    Array.mapi
      (fun i u ->
        if i mod 100 <> 0 then u
        else begin
          let r = Tuple.copy u in
          Tuple.set r posx (Value.Float (Value.to_float (Tuple.get u posx) +. 1.));
          r
        end)
      units50
  in
  let moved_delta = Delta.create schema in
  Array.iteri (fun i _ -> if i mod 100 = 0 then Delta.record moved_delta ~attr:posx ~pos:i) units50;
  let store50 = Sgl_relalg.Colstore.of_tuples schema units50 in
  let rows_cache = Persist.Codec.units_digest_cache units50 in
  let store_cache = Persist.Codec.store_digest_cache store50 in
  Sgl_relalg.Colstore.refresh ~delta:moved_delta store50 moved50;
  let column450k =
    let b = Persist.Codec.W.create ~size:(9 * n50) () in
    Array.iter (fun u -> Persist.Codec.W.value b (Tuple.get u posx)) moved50;
    Persist.Codec.W.contents b
  in
  interleaved ~rounds:61
    (layers
    @ [
      (* Each run records into a fresh change record: a reused one would
         mark the movers' positions as owned, and movement would then write
         into the shared [units50] rows. *)
      ( "post_apply_50k_idle",
        fun () ->
          ignore
            (Postprocess.apply ~delta:(Delta.create schema) post_spec ~schema
               ~rand_for:(fun ~key:_ _ -> 0) ~units:units50 ~acc:no_effects) );
      ( "movement_50k_1pct",
        fun () ->
          Array.blit units50 0 moved 0 n50;
          Movement.run ~delta:(Delta.create schema) ~cols:cols50 grid ~prng ~tick:(next ())
            ~units:moved ~acc:movers );
      ("crc32_450k", fun () -> ignore (Persist.Crc32.string column450k));
      ( "digest_50k_one_dirty_col_rows",
        fun () ->
          ignore (Persist.Codec.units_digest_incremental rows_cache ~dirty:[ posx ] moved50) );
      ( "digest_50k_one_dirty_col_store",
        fun () ->
          ignore (Persist.Codec.store_digest_incremental store_cache ~dirty:[ posx ] store50) );
      ( "colstore_refresh_50k_1pct",
        fun () -> Sgl_relalg.Colstore.refresh ~delta:moved_delta store50 moved50 );
    ])

(* ------------------------------------------------------------------ *)
(* Telemetry: instrumentation overhead on the formation battle.

   Three passes over the same workload: ambient registry disabled (the
   shipped default — every call site pays one atomic load), registry
   enabled (--metrics), and registry + span tracer (--trace-spans).  The
   telemetry-off pass is the one the <2% overhead budget is judged
   against; with --json armed, the metrics document of the instrumented
   pass is archived next to the bench rows. *)

(* One timed 2000-unit indexed battle per mode, the mode attached after
   the warm tick; the first mode is the baseline of the overhead column. *)
let overhead ~section (modes : (string * (Simulation.t -> unit -> unit)) list) : unit =
  let n = 2000 in
  let runs =
    List.map
      (fun (mode, attach) ->
        let sim = battle_sim ~evaluator:Simulation.Indexed ~n ~density:0.01 in
        let run = timed_run ~attach sim ~ticks:20 in
        emit_run ~section ~config:[ ("mode", mode); ("units", string_of_int n) ] run;
        (mode, fst run))
      modes
  in
  let t_off = snd (List.hd runs) in
  pr "@.%-16s %12s %10s@." "mode" "ticks/s" "overhead";
  List.iter
    (fun (mode, per_tick) ->
      pr "%-16s %12.1f %9.1f%%@." mode (1. /. per_tick) ((per_tick /. t_off -. 1.) *. 100.))
    runs

let telemetry_bench () =
  header "Telemetry - instrumentation overhead (indexed evaluator, 2000 units)";
  let enable () =
    Telemetry.reset ();
    Telemetry.set_enabled true
  in
  overhead ~section:"telemetry"
    [
      ("off", fun _ () -> ());
      ( "metrics",
        fun _ ->
          enable ();
          fun () ->
            Option.iter
              (fun p ->
                let mp = p ^ ".metrics.json" in
                Telemetry.Registry.write_json Telemetry.default ~path:mp;
                pr "telemetry: metrics archived to %s@." mp)
              !Bench_json.path;
            Telemetry.set_enabled false );
      ( "metrics+spans",
        fun _ ->
          enable ();
          Telemetry.Span.start ();
          fun () ->
            pr "telemetry: %d span events recorded@." (Telemetry.Span.count ());
            Telemetry.Span.stop ();
            Telemetry.set_enabled false );
    ]

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
  let prog = Battle.Scripts.compile () in
  overhead ~section:"obs"
    [
      ("off", fun _ () -> ());
      ( "flight",
        fun sim ->
          let live = Obs.Live.create ~flight_capacity:1024 ~sim ~prog () in
          fun () -> Obs.Live.stop live );
      ( "flight+sink",
        fun sim ->
          let path = Filename.temp_file "sgl_bench_flight" ".dump" in
          let live = Obs.Live.create ~flight_capacity:1024 ~dump_path:path ~sim ~prog () in
          fun () ->
            Obs.Live.stop live;
            (try Sys.remove path with Sys_error _ -> ()) );
      ( "flight+http",
        fun sim ->
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
          Obs.Live.stop live );
    ]

(* ------------------------------------------------------------------ *)
(* The steering scenario (used by the fault-policy section).

   A decision-heavy scenario: every unit runs a scalar steering script —
   long expression chains over tuning constants, one cheap uniform
   aggregate per batch — so the decision phase is dominated by the
   per-row work of the compiled kernels rather than by index probes. *)

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
     binds).  Each occurrence is a pure-constant subtree the kernel
     compiler folds to one literal at specialization time.  The later
     formulas textually contain the earlier ones, so the trees
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

let fused_sim ?fault_policy ~(evaluator : Simulation.evaluator_kind) ~(n : int) () :
    Simulation.t =
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
  Simulation.create ?fault_policy config ~evaluator ~units:(fused_units schema ~n)

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
      ( "battle-12k-indexed",
        fun fault_policy ->
          Battle.Scenario.simulation ~seed:42 ~fault_policy ~evaluator:Simulation.Indexed
            (Battle.Scenario.setup ~density:0.01
               ~per_side:(Battle.Scenario.standard_mix 6_000)
               ()) );
      ( "steering-12k-fused",
        fun fault_policy ->
          fused_sim ~fault_policy ~evaluator:Simulation.Fused ~n:12_000 () );
    ]
  in
  let rounds = 15 in
  pr "%-22s" "p50 s/tick";
  List.iter (fun (name, _) -> pr " %12s" name) policies;
  pr " %16s %13s@." "quarantine/fail" "degrade/fail";
  List.iter
    (fun (label, make) ->
      (* One simulation per policy, stepped round-robin with the starting
         policy rotating every round, so host drift and collector work
         spread over every column (as in [micro]'s interleaved block).
         Forcing a major collection per step instead grows the heap that
         later sections inherit: on OCaml 5.1 the quick pass then peaked
         at 5.7 GB resident, against 0.25 GB without. *)
      let sims = Array.of_list (List.map (fun (_, policy) -> make policy) policies) in
      Array.iter Simulation.step sims;
      let samples = Array.map (fun _ -> Array.make rounds 0.) sims in
      for r = 0 to rounds - 1 do
        for j = 0 to Array.length sims - 1 do
          let k = (r + j) mod Array.length sims in
          let (), seconds = Timer.timed (fun () -> Simulation.step sims.(k)) in
          samples.(k).(r) <- seconds
        done
      done;
      let p50 = Array.map (fun xs -> (fun (_, med, _) -> med) (quartiles xs)) samples in
      pr "%-22s" label;
      Array.iter (pr " %12.4f") p50;
      List.iteri
        (fun j (policy, _) ->
          Bench_json.emit
            {
              section = "faults";
              config = [ ("workload", label); ("policy", policy) ];
              metrics = [ Bench_json.lower "p50_tick_ms" (p50.(j) *. 1000.) ];
            })
        policies;
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
          let healthy = !healthy /. 4. and after = !after /. float_of_int (ticks - 5) in
          pr "  %-38s healthy %.4fs/t, faulty tick %.4fs, after %.4fs/t (%d retries)@."
            (label ^ " @ " ^ point) healthy !faulty after (Simulation.retries sim);
          Bench_json.emit
            {
              section = "faults";
              config = [ ("recovery", label); ("point", point) ];
              metrics =
                Bench_json.
                  [
                    lower "faulty_tick_ms" (!faulty *. 1000.);
                    info "healthy_tick_ms" (healthy *. 1000.);
                    info "after_tick_ms" (after *. 1000.);
                    fewer "retries" (float_of_int (Simulation.retries sim));
                  ];
            }))
    [
      ("degrade", Simulation.Degrade, Simulation.Indexed, "eval.member",
       Fault_inject.Always);
      ("quarantine", Simulation.Quarantine_script, Simulation.Indexed, "exec.group",
       Fault_inject.At_count 2);
    ];
  pr "@.(the faulty tick pays the failed partial tick plus a full retry - on@.";
  pr " the weaker evaluator for degrade, without the quarantined script for@.";
  pr " quarantine; later ticks run at that configuration's pace)@."

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
    let dir = Option.map fresh_dir (if every >= 0 then Some mode else None) in
    (* the arming snapshot of the durable passes stays outside the clock *)
    let attach sim =
      Option.iter (fun dir -> Simulation.checkpoint_every ~fsync sim ~dir ~every) dir;
      fun () -> Simulation.detach_persistence sim
    in
    let run = timed_run ~attach (battle_sim ~evaluator:Simulation.Indexed ~n ~density) ~ticks in
    let ckpt =
      List.assoc_opt "persist.checkpoint_ns" (Telemetry.Registry.histograms Telemetry.default)
    in
    let ckpt_ms f = Option.fold ~none:0. ~some:(fun s -> f s /. 1e6) ckpt
    and checkpoints = Option.fold ~none:0 ~some:(fun s -> s.Telemetry.count) ckpt in
    let journal_bytes =
      Option.value ~default:0
        (List.assoc_opt "persist.journal_bytes" (Telemetry.Registry.counters Telemetry.default))
    in
    Telemetry.set_enabled false;
    Option.iter rm_rf dir;
    emit_run ~section:"persist"
      ~config:
        [
          ("mode", mode);
          ("units", string_of_int n);
          ("every", string_of_int every);
          ("fsync", string_of_bool fsync);
        ]
      ~extra:
        Bench_json.
          [
            info "checkpoint_mean_ms" (ckpt_ms (fun s -> s.Telemetry.mean));
            info "checkpoint_max_ms" (ckpt_ms (fun s -> s.Telemetry.max));
            info "checkpoints" (float_of_int checkpoints);
            fewer "journal_bytes_per_tick" (float_of_int journal_bytes /. float_of_int ticks);
          ]
      run;
    (mode, fst run, checkpoints, ckpt_ms (fun s -> s.Telemetry.mean), journal_bytes)
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
  let _, t_off, _, _, _ = List.hd rows in
  pr "@.%-18s %10s %9s %7s %12s %12s@." "mode" "ticks/s" "overhead" "ckpts" "ckpt mean ms" "jrnl B/tick";
  List.iter
    (fun (mode, per_tick, checkpoints, mean_ms, journal_bytes) ->
      pr "%-18s %10.1f %8.1f%% %7d %12.2f %12.0f@." mode (1. /. per_tick)
        ((per_tick /. t_off -. 1.) *. 100.)
        checkpoints mean_ms
        (float_of_int journal_bytes /. float_of_int ticks))
    rows;
  pr "@.(the journal append is tens of bytes per tick; the snapshot is@.";
  pr " tens of milliseconds at this population and amortizes with the@.";
  pr " cadence, so the durability tax stays in the single-digit percent@.";
  pr " range - overhead spreads beyond that are run-to-run noise.)@."

(* ------------------------------------------------------------------ *)
(* Driver *)

(* The sections in quick-pass order; [full] swaps in the paper-scale sizes. *)
let sections ~full =
  [
    ("fig10", fig10 ~full);
    ("capacity", capacity ~full);
    ("density", density_sweep);
    ("ablate-divisible", ablate_divisible);
    ("ablate-sweep", ablate_sweep);
    ("ablate-nn", ablate_nn);
    ("ablate-combine", ablate_combine);
    ("ablate-share", ablate_share);
    ("incremental", incremental ~full);
    ("faults", faults_bench);
    ("telemetry", telemetry_bench);
    ("obs", obs_bench);
    ("persist", persist_bench);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* [--json PATH] arms the machine-readable emitter and is stripped before
     section dispatch, so it composes with any section list. *)
  let rec extract_json acc = function
    | "--json" :: path :: rest ->
      Bench_json.path := Some path;
      List.rev_append acc rest
    | [ "--json" ] ->
      Fmt.epr "--json requires an output path@.";
      exit 1
    | x :: rest -> extract_json (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_json [] args in
  pr "SGL benchmark harness - reproduction of White et al., SIGMOD 2007@.";
  let run_all ~full = List.iter (fun (_, section) -> section ()) (sections ~full) in
  Fun.protect ~finally:Bench_json.write (fun () ->
      match args with
      | [] | [ "quick" ] -> run_all ~full:false
      | [ "full" ] -> run_all ~full:true
      | names ->
        List.iter
          (fun name ->
            let full, base =
              match Filename.chop_suffix_opt ~suffix:"-full" name with
              | Some base -> (true, base)
              | None -> (false, name)
            in
            match List.assoc_opt base (sections ~full) with
            | Some section -> section ()
            | None ->
              Fmt.epr "unknown benchmark %S@." name;
              exit 1)
          names);
  if !failed_checks <> [] then begin
    List.iter (Fmt.epr "check failed: %s@.") (List.rev !failed_checks);
    exit 1
  end
