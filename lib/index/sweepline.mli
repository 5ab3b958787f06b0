(** Sweep-line MIN/MAX over constant-size orthogonal ranges (Section 5.3.1,
    Figure 9): O((n+q) log n) for n data points and q queries. *)

type kind = Min | Max

(** [run kind g ~value ~qx ~qy ~rx ~ry best] sets [best.(q)], for each
    query [q] at [(qx.(q), qy.(q))], to the index [k] of the best point of
    [g] with [|g.x.(k) - qx.(q)| <= rx] and [|g.y.(k) - qy.(q)| <= ry], or
    to [-1] when that window is empty.  The best point has the smallest
    ([Min]) or largest ([Max]) [value.(k)] under [Float.compare]; ties
    break toward the smaller [k].  The points come presorted in [g]; only
    the queries are sorted here. *)
val run :
  kind ->
  Geometry.t ->
  value:float array ->
  qx:float array ->
  qy:float array ->
  rx:float ->
  ry:float ->
  int array ->
  unit
