(** Readiness and anomaly flags over the flight recorder's recent window:
    slow ticks vs the run's own median, population collapse vs the
    observed peak, and index-reuse-rate drop vs the run's overall
    rate. *)

open Sgl_engine

type status = {
  ready : bool;  (** at least one committed tick observed *)
  healthy : bool;  (** ready and no flags raised *)
  flags : string list;
      (** subset of ["tick_time_p99_degraded"], ["population_collapse"],
          ["index_reuse_rate_drop"] *)
  tick : int;
  units : int;
  peak_units : int;
  recent_p99_s : float;
  baseline_p50_s : float;
  recent_reuse_rate : float;  (** [nan] when the window had no index activity *)
  overall_reuse_rate : float;
}

(** The tick-time rule over a recent window of samples: true when at
    least two ticks each took more than 10x [baseline_p50_s] and more than
    5 ms.  A single slow tick never raises the flag. *)
val tick_time_degraded : baseline_p50_s:float -> Flight.sample list -> bool

val assess : sim:Simulation.t -> flight:Flight.t -> peak_units:int -> status
val to_json : status -> string
