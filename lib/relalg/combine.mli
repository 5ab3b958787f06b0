(** The effect-combination operator (+) of Section 4.2. *)

(** [combine r] is [(+)r]: group by key and const attributes, fold effect
    attributes by their tags. *)
val combine : Relation.t -> Relation.t

(** [union_combine r s] is [r (+) s = (+)(r |+| s)]. *)
val union_combine : Relation.t -> Relation.t -> Relation.t

val group_key : Schema.t -> Tuple.t -> Value.t list

(** The engine's mutable accumulator: one slot per position in the tick's
    unit array, O(1) per contribution with no key hashing.  Contributions
    to one position fold by the attributes' tags, exactly as {!combine}
    folds one group; positions stand for groups because in the engine a
    unit's const attributes are its own. *)
module Acc : sig
  type t

  (** An empty accumulator with room for positions [0 .. positions - 1]. *)
  val create : Schema.t -> positions:int -> t

  (** Empty the accumulator, in time proportional to the positions
      touched since the last reset, and make room for [positions]
      positions (allocating only when that is more than it has). *)
  val reset : t -> positions:int -> unit

  (** Contribute one attribute's effect to position [pos].  On the
      position's first touch its const attributes are copied from the
      schema prefix of [base] (a unit row or a longer working row) and its
      effect attributes start neutral.  Raises [Invalid_argument] when
      [pos] is outside the accumulator. *)
  val add_attr : t -> base:Tuple.t -> pos:int -> int -> Value.t -> unit

  (** The accumulated row of position [pos], [None] while untouched. *)
  val find_opt : t -> int -> Tuple.t option

  (** The accumulated rows, in first-touch order. *)
  val to_relation : t -> Relation.t
end
