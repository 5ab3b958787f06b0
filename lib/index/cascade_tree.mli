(** 2-d range tree with fractional cascading and prefix-aggregate levels:
    O(n log n) build, O(log n) per divisible-aggregate box query. *)

type t

(** [build ~x ~y ~stats ~m] indexes the points [0 .. n-1], [n] being
    [Array.length x]: point [k] sits at [(x.(k), y.(k))] and carries the
    statistics [stats.(k*m) .. stats.(k*m + m-1)]. *)
val build : x:float array -> y:float array -> stats:float array -> m:int -> t

(** [accumulate t box ~scratch acc] sums the statistics of the points
    inside [box] (dimension 0 is x, dimension 1 is y) into [scratch] from
    zero, then adds [scratch] into [acc] componentwise.  Summing each tree
    first keeps a total over several trees bit-identical to adding their
    {!query} results with [+.].  Allocates nothing. *)
val accumulate : t -> Interval.box -> scratch:float array -> float array -> unit

(** Componentwise sum of the statistic vectors of all points inside the
    box. *)
val query : t -> x:Interval.t -> y:Interval.t -> float array

val size : t -> int
