(** The movement phase (Section 6): random order, collision detection on an
    integer grid, simple pathfinding. *)

open Sgl_util
open Sgl_relalg

type config = {
  posx : int;
  posy : int;
  mvx : int;
  mvy : int;
  speed : float; (* max cells per tick *)
  speed_attr : int option; (* per-unit speed override (capped by [speed]) *)
  width : int;
  height : int;
}

(** Occupancy grid: the set of occupied cells, in a flat open-addressing
    table that lives as long as the simulation.  {!run} clears and refills
    it each tick. *)
type grid

(** An empty grid over [config]'s world; it grows as cells are added. *)
val create_grid : config -> grid

val in_bounds : grid -> int -> int -> bool
val occupied : grid -> int -> int -> bool

(** Occupy a cell (a no-op when it is occupied already). *)
val add_unit : grid -> int -> int -> unit

(** Vacate a cell (a no-op when it is free). *)
val remove_unit : grid -> int -> int -> unit

(** Vacate [from_], whoever holds it, and occupy [to_]. *)
val move_unit : grid -> from_:int * int -> to_:int * int -> unit

(** The table's slot count (a power of two) and a cell's home slot in it;
    exposed so tests can aim probe chains at collisions and wrap-around. *)
val capacity : grid -> int

val home : grid -> int -> int -> int

(** Deterministic rejection-sampled free cell, for resurrection; [None] on a
    (nearly) full grid. *)
val random_free_cell : grid -> Prng.t -> tick:int -> salt:int -> (int * int) option

(** Execute the phase over the tick's survivors [units] in random order:
    fill [grid] with their cells, then move each unit with a nonzero
    decided vector to the first free candidate of full step, half step,
    x only, y only.  A unit that moves gets a fresh row copy, written back
    into [units], unless [owned.(i)] marks [units.(i)] as a copy the tick
    already made (see {!Postprocess.outcome}), which is then updated in
    place; no other row is written.  Each successful move records
    posx/posy + unit key against [delta] when given (cross-tick index
    cache bookkeeping). *)
val run :
  ?delta:Delta.t ->
  ?owned:bool array ->
  grid ->
  schema:Schema.t ->
  prng:Prng.t ->
  tick:int ->
  units:Tuple.t array ->
  acc:Combine.Acc.t ->
  unit
