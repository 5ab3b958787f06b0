(** Per-tick delta summaries: which attributes changed on which units, and
    whether the population changed structurally: the tick's one change
    record.  Over-reporting attributes or structure is sound (costs
    rebuilds); under-reporting is a correctness bug.  A recorded position
    means the tick owns that unit's row: a phase records one only for a
    row it copied.

    Units are named by position: the unit's index in the tick's unit
    array (the array the decision phase saw).  A position is meaningful
    only in a non-structural delta, where that array and the committed
    one hold the same units at the same positions; a structural delta
    invalidates everything, whatever positions it also records. *)

type t

val create : Schema.t -> t

(** Mark [attr] dirty on the unit at position [pos]. *)
val record : t -> attr:int -> pos:int -> unit

(** Mark the tick structural: units were added, removed, or reordered, so
    positions no longer name the same units. *)
val record_structural : t -> unit

val structural : t -> bool
val dirty_attr : t -> int -> bool

(** Did some attribute of the unit at position [pos] change?  A byte
    load. *)
val dirty_pos : t -> int -> bool

(** Dirty units (positions recorded at least once). *)
val dirty_key_count : t -> int

(** The dirty positions, ascending: one pass over the position map. *)
val dirty_positions : t -> int array

(** Dirty attributes, ascending. *)
val dirty_attrs : t -> int list

(** Ground-truth delta between two unit arrays (positional compare;
    structural when populations differ or keys moved).  For tests. *)
val of_tuples : schema:Schema.t -> before:Tuple.t array -> after:Tuple.t array -> t

(** Does [summary] account for every change [truth] reports (same
    attributes, same positions)? *)
val covers : summary:t -> truth:t -> bool

val pp : t Fmt.t
