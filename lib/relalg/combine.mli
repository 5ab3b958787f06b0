(** The effect-combination operator (+) of Section 4.2. *)

(** [combine r] is [(+)r]: group by key and const attributes, fold effect
    attributes by their tags. *)
val combine : Relation.t -> Relation.t

(** [union_combine r s] is [r (+) s = (+)(r |+| s)]. *)
val union_combine : Relation.t -> Relation.t -> Relation.t

val group_key : Schema.t -> Tuple.t -> Value.t list

(** Mutable per-key accumulator used by the engine: O(1) per contribution. *)
module Acc : sig
  type t

  val create : Schema.t -> t

  (** Merge a full effect row. *)
  val add : t -> Tuple.t -> unit

  (** Contribute one attribute for one key; [base] supplies const attributes
      on the group's first touch. *)
  val add_attr : t -> base:Tuple.t -> key:int -> int -> Value.t -> unit

  val find_opt : t -> int -> Tuple.t option
  val to_relation : t -> Relation.t
  val iter : (Tuple.t -> unit) -> t -> unit
  val cardinality : t -> int

  (** Delta surface: did the attribute receive any contribution?  Exact for
      {!add_attr}; {!add} conservatively marks every effect attribute. *)
  val touched_attr : t -> int -> bool

  (** Touched attributes, ascending. *)
  val touched_attrs : t -> int list
end
