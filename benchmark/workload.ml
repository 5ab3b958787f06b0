(* The three benchmark workloads.

   Each one is a closed loop over one simulation: one process, one domain,
   and every tick starts when the previous one has committed.  A workload
   turns a seed and a unit count into the engine's inputs; the seed feeds
   both unit generation (where the scenario has any freedom) and
   [config.seed], so the engine itself receives only generated inputs. *)

open Sgl

type inputs = {
  units : Tuple.t array;
  config : unit -> Simulation.config;
      (** compiles the scripts; called again by recovery, which must
          rebuild the identical configuration *)
}

type t = {
  name : string;
  units : int;  (** army size of the measured run *)
  smoke_units : int;  (** army size under [--smoke] *)
  evaluator : Simulation.evaluator_kind;
  alternate : Simulation.evaluator_kind;
      (** the evaluator the output check replays the recovery ticks under;
          both are pinned bit-identical, so the digests must agree *)
  durable : bool;
      (** journal every tick, checkpoint every 25, flight recorder on, and
          one /query plus one /metrics through the handler every 5th tick *)
  replay_ticks : int;  (** journaled ticks the recovery probe replays *)
  settle_ticks : int;
      (** untimed ticks after the pin check, until the work per tick has
          levelled off *)
  make : seed:int -> n:int -> inputs;
}

(* ------------------------------------------------------------------ *)
(* The paper's battle (Section 6): mirrored armies in formation at 1%
   density, resurrection keeping the population constant.  The formation
   is fixed by the paper, so the seed drives the dice and the
   resurrection cells through [config.seed]. *)

let battle ~seed ~n =
  let scenario =
    Battle.Scenario.setup ~density:0.01 ~per_side:(Battle.Scenario.standard_mix (n / 2)) ()
  in
  { units = scenario.Battle.Scenario.units; config = (fun () -> Battle.Scenario.sim_config ~seed scenario) }

(* ------------------------------------------------------------------ *)
(* Expression-bound steering: every unit runs a scalar script whose
   tuning constants are spliced inline as compound constant subtrees, plus
   one uniform aggregate per batch.  There are no index builds; the tick
   is kernel work per row, movement and post-processing. *)

let steering_schema () =
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

let steering_source =
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

let steering ~seed ~n =
  let schema = steering_schema () in
  let prng = Prng.create seed in
  let side = int_of_float (sqrt (float_of_int n /. 0.01)) in
  let units =
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
  in
  let config () =
    {
      Simulation.prog = compile ~schema steering_source;
      script_of = (fun _ -> Some "main");
      postprocess = Postprocess.make ~schema ~updates:[] ~remove_when:(Expr.Const (Value.Bool false));
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
      seed;
      optimize = true;
    }
  in
  { units; config }

(* ------------------------------------------------------------------ *)
(* The low-churn sentry: 32 scouts (player 0) probe a box count over the
   other players; 1% of the army (player 1) marches one cell per tick;
   the rest (player 2) never moves or acts.  Every unit owns its grid row,
   so movement never collides and ticks stay non-structural: the
   cross-tick index cache, the incremental digest and column
   copy-on-write all get hits.

   The guard is [c > 0]: a count lies in [0, n], so the interval prover
   discharges [c >= 0] and then deletes the aggregate, leaving nothing
   to measure. *)

let sentry_schema () =
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

let sentry_source =
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

let sentry_scouts = 32
let sentry_churn = 0.01

let sentry ~seed ~n =
  let schema = sentry_schema () in
  let prng = Prng.create seed in
  let wanderers = int_of_float (sentry_churn *. float_of_int (n - sentry_scouts)) in
  let units =
    Array.init n (fun i ->
        let player, x =
          if i < sentry_scouts then (0, 1900 + Prng.int prng ~bound:200 [ i ])
          else if i < sentry_scouts + wanderers then (1, 100 + Prng.int prng ~bound:50 [ i ])
          else (2, 400 + Prng.int prng ~bound:3200 [ i ])
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
  in
  let player_ix = Schema.find schema "player" in
  let config () =
    {
      Simulation.prog = compile ~schema sentry_source;
      script_of =
        (fun u ->
          match Value.to_int (Tuple.get u player_ix) with
          | 0 -> Some "scout"
          | 1 -> Some "wanderer"
          | _ -> None);
      postprocess = Postprocess.make ~schema ~updates:[] ~remove_when:(Expr.Const (Value.Bool false));
      movement =
        Some
          {
            Movement.posx = Schema.find schema "posx";
            posy = Schema.find schema "posy";
            mvx = Schema.find schema "movevect_x";
            mvy = Schema.find schema "movevect_y";
            speed = 1.5;
            speed_attr = None;
            width = 4096;
            height = n;
          };
      death = Simulation.Remove;
      seed;
      optimize = true;
    }
  in
  { units; config }

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "battle-12k";
      units = 12_000;
      smoke_units = 2_000;
      evaluator = Simulation.Indexed;
      alternate = Simulation.Fused;
      durable = false;
      replay_ticks = 4;
      (* index probes per tick climb from ~45k to ~66k over the first 25
         ticks as the front lines close, then stay within a few percent *)
      settle_ticks = 25;
      make = battle;
    };
    {
      name = "steering-12k";
      units = 12_000;
      smoke_units = 2_000;
      evaluator = Simulation.Fused;
      alternate = Simulation.Indexed;
      durable = false;
      replay_ticks = 6;
      settle_ticks = 0;
      make = steering;
    };
    {
      name = "sentry-50k-durable";
      units = 50_000;
      smoke_units = 2_000;
      evaluator = Simulation.Indexed;
      alternate = Simulation.Fused;
      durable = true;
      replay_ticks = 12;
      settle_ticks = 0;
      make = sentry;
    };
  ]

let find (name : string) : t option = List.find_opt (fun w -> w.name = name) all

(* The read every workload's query probe issues through /query. *)
let query = "count(*) where e.player = 1 and e.posx > 120.0"
