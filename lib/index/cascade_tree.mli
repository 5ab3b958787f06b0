(** 2-d range tree with fractional cascading and prefix-aggregate levels:
    O(n log n) build, O(log n) per divisible-aggregate box query. *)

type t

(** [build g ~stats ~m] indexes the points of [g]: point [k] sits at
    [(g.x.(k), g.y.(k))] and carries the statistics
    [stats.(k*m) .. stats.(k*m + m-1)].  The leaves follow [g.by_x]; no
    sort happens here.  Coordinates must not be nan: probes binary-search
    the sorted coordinates. *)
val build : Geometry.t -> stats:float array -> m:int -> t

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
