(** Segment tree over an arbitrary monoid: point update, range aggregate. *)

type 'a t

(** [create ~neutral ~op n] makes a tree of [n] leaves all holding
    [neutral].  [op] must be associative with identity [neutral]. *)
val create : neutral:'a -> op:('a -> 'a -> 'a) -> int -> 'a t

(** O(n) bulk construction. *)
val build : neutral:'a -> op:('a -> 'a -> 'a) -> 'a array -> 'a t

(** O(log n) point update. *)
val set : 'a t -> int -> 'a -> unit

(** Reset a leaf to the neutral element. *)
val clear : 'a t -> int -> unit

(** Aggregate of the half-open range [\[lo, hi)]; O(log n). *)
val query : 'a t -> lo:int -> hi:int -> 'a

val query_all : 'a t -> 'a
