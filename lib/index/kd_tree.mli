(** 2-d kD-tree for nearest-neighbour queries (Section 5.3.2). *)

type t

(** [build g ids] indexes the points of [g], point [k] reported as
    [ids.(k)], by splitting [g]'s presorted orders: no sort happens here. *)
val build : Geometry.t -> int array -> t

val size : t -> int

(** [nearest ?filter t ~qx ~qy] is [Some (id, squared_distance)] of the
    nearest point accepted by [filter] (default: all), or [None] when no
    point qualifies.  Distance ties break toward the smaller id. *)
val nearest : ?filter:(int -> bool) -> t -> qx:float -> qy:float -> (int * float) option

(** Visit every point inside the box that the filter accepts. *)
val query_box :
  ?filter:(int -> bool) -> t -> x:Interval.t -> y:Interval.t -> (int -> unit) -> unit
