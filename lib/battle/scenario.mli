(** Battle scenario construction mirroring the paper's experimental setup
    (Section 6): density-controlled grids, front-line deployment, and the
    resurrection rule that keeps the workload constant. *)

open Sgl_relalg
open Sgl_engine

type army = {
  knights : int;
  archers : int;
  healers : int;
}

val army_size : army -> int

(** Half knights, 30% archers, the rest healers. *)
val standard_mix : int -> army

type t = {
  schema : Schema.t;
  units : Tuple.t array;
  width : int;
  height : int;
  density : float;
}

(** [setup ~density ~per_side ()] deploys two mirrored armies on a 2:1 grid
    sized to hold the occupied-cell fraction at [density]. *)
val setup : ?density:float -> per_side:army -> unit -> t

(** The simulation configuration over the scenario (battle scripts,
    post-processing, movement, death rule).  Checkpoint recovery rebuilds
    the same config — same seed, scripts and grid — and hands it to
    {!Simulation.restore}; [simulation] is [Simulation.create] over it. *)
val sim_config :
  ?optimize:bool -> ?seed:int -> ?resurrect:bool -> t -> Simulation.config

(** Assemble the full simulation: battle scripts, post-processing, movement,
    death rule (resurrection by default).  [fault_policy] and
    [index_cache] are forwarded to {!Simulation.create} (cross-tick index
    structure reuse, on by default). *)
val simulation :
  ?optimize:bool ->
  ?seed:int ->
  ?resurrect:bool ->
  ?fault_policy:Simulation.fault_policy ->
  ?index_cache:bool ->
  evaluator:Simulation.evaluator_kind ->
  t ->
  Simulation.t
