(* Health probes: readiness plus cheap anomaly heuristics over the flight
   recorder's recent window vs the run's own baseline.  Flags are
   advisory (the endpoint stays 200 once ready); they exist so a scraper
   can alert on degradation without parsing full stats. *)

open Sgl_util
open Sgl_engine

(* Recent window: enough ticks to smooth one-off spikes (a checkpoint
   tick), few enough to react within seconds at game tick rates. *)
let window = 32

(* A slow tick clears both a relative bar vs the whole run's median and an
   absolute floor, so microsecond jitter on a fast sim never counts.  The
   tick-time flag needs at least [min_slow_ticks] of them in the window:
   one descheduled tick is noise, not degradation.  (The window's p99 is
   still reported, but over at most 32 samples nearest-rank p99 is the
   maximum, which a single outlier decides.) *)
let tick_time_factor = 10.
let tick_time_floor_s = 0.005
let min_slow_ticks = 2

let collapse_fraction = 0.10
let reuse_drop_factor = 0.5
let reuse_min_activity = 8

type status = {
  ready : bool; (* at least one committed tick observed *)
  healthy : bool; (* ready and no flags raised *)
  flags : string list;
  tick : int;
  units : int;
  peak_units : int;
  recent_p99_s : float;
  baseline_p50_s : float;
  recent_reuse_rate : float; (* nan when the window had no index activity *)
  overall_reuse_rate : float;
}

let nearest_rank (sorted : float array) (q : float) : float =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let rate reuses builds =
  let total = reuses + builds in
  if total = 0 then nan else float_of_int reuses /. float_of_int total

let tick_time_degraded ~(baseline_p50_s : float) (recent : Flight.sample list) : bool =
  Float.is_finite baseline_p50_s
  &&
  let slow (s : Flight.sample) =
    let t = s.Simulation.s_tick_s in
    t > tick_time_factor *. baseline_p50_s && t > tick_time_floor_s
  in
  List.length (List.filter slow recent) >= min_slow_ticks

let assess ~(sim : Simulation.t) ~(flight : Flight.t) ~(peak_units : int) : status =
  let recent = Flight.tail ~n:window flight in
  let r = Simulation.report sim in
  match Flight.last flight with
  | None ->
    {
      ready = false;
      healthy = false;
      flags = [];
      tick = 0;
      units = 0;
      peak_units;
      recent_p99_s = nan;
      baseline_p50_s = nan;
      recent_reuse_rate = nan;
      overall_reuse_rate = nan;
    }
  | Some last ->
    let times =
      List.map (fun (s : Flight.sample) -> s.Simulation.s_tick_s) recent |> Array.of_list
    in
    Array.sort compare times;
    let recent_p99_s = nearest_rank times 0.99 in
    let baseline_p50_s = r.Simulation.tick_p50_s in
    let recent_builds =
      List.fold_left (fun a (s : Flight.sample) -> a + s.Simulation.s_index_builds) 0 recent
    and recent_reuses =
      List.fold_left (fun a (s : Flight.sample) -> a + s.Simulation.s_index_reuses) 0 recent
    in
    let recent_reuse_rate = rate recent_reuses recent_builds in
    let overall_reuse_rate = rate r.Simulation.index_reuses r.Simulation.index_builds in
    let flags = ref [] in
    if tick_time_degraded ~baseline_p50_s recent then
      flags := "tick_time_p99_degraded" :: !flags;
    if
      peak_units > 0
      && float_of_int last.Simulation.s_units
         < collapse_fraction *. float_of_int peak_units
    then flags := "population_collapse" :: !flags;
    if
      (not (Float.is_nan overall_reuse_rate))
      && (not (Float.is_nan recent_reuse_rate))
      && recent_builds + recent_reuses >= reuse_min_activity
      && recent_reuse_rate < reuse_drop_factor *. overall_reuse_rate
    then flags := "index_reuse_rate_drop" :: !flags;
    let flags = List.rev !flags in
    {
      ready = true;
      healthy = flags = [];
      flags;
      tick = last.Simulation.s_tick;
      units = last.Simulation.s_units;
      peak_units;
      recent_p99_s;
      baseline_p50_s;
      recent_reuse_rate;
      overall_reuse_rate;
    }

let to_json (s : status) : string =
  let f = Telemetry.json_float in
  Printf.sprintf
    "{\"ready\": %b, \"healthy\": %b, \"flags\": [%s], \"tick\": %d, \"units\": %d, \
     \"peak_units\": %d, \"recent_p99_s\": %s, \"baseline_p50_s\": %s, \"recent_reuse_rate\": %s, \
     \"overall_reuse_rate\": %s}\n"
    s.ready s.healthy
    (String.concat ", " (List.map Telemetry.json_string s.flags))
    s.tick s.units s.peak_units (f s.recent_p99_s) (f s.baseline_p50_s) (f s.recent_reuse_rate)
    (f s.overall_reuse_rate)
