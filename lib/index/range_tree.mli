(** Layered range trees with prefix-aggregate leaves (Section 5.3.1,
    Figure 8).

    Supports divisible-aggregate box queries in O(log^d n) and enumeration
    of the matching points in O(log^d n + k). *)

type t

(** [build ~dims ~stats ~m n] indexes the points [0 .. n-1].  [dims] holds
    the coordinates of each of the d >= 1 dimensions (outermost first),
    [coords.(k)] for point [k]; [stats] holds point [k]'s m statistics at
    [k*m .. k*m + m-1], or is [None] for an enumeration-only tree (then [m]
    is ignored). *)
val build : dims:float array list -> stats:float array option -> m:int -> int -> t

(** [accumulate t box ~scratch acc] sums the statistics of the points
    inside the box (one dimension per tree level, outermost first) into
    [scratch] from zero, then adds [scratch] into [acc] componentwise, as
    {!Cascade_tree.accumulate} does. *)
val accumulate : t -> Interval.box -> scratch:float array -> float array -> unit

(** Visit the index of every point inside the box. *)
val query_enum : t -> Interval.box -> (int -> unit) -> unit

val query_count : t -> Interval.box -> int

(** Number of levels (= number of dimensions). *)
val depth : t -> int

(** Number of indexed points. *)
val size : t -> int
