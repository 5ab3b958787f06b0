(** Sweep-line MIN/MAX over constant-size orthogonal ranges (Section 5.3.1,
    Figure 9): O((n+q) log n) for n data points and q queries. *)

type kind = Min | Max

(** [run kind ~x ~y ~value ~qx ~qy ~rx ~ry best] sets [best.(q)], for each
    query [q] at [(qx.(q), qy.(q))], to the index [k] of the best data point
    at [(x.(k), y.(k))] with [|dx| <= rx] and [|dy| <= ry], or to [-1] when
    that window is empty.  The best point has the smallest ([Min]) or
    largest ([Max]) [value.(k)] under [Float.compare]; ties break toward
    the smaller [k]. *)
val run :
  kind ->
  x:float array ->
  y:float array ->
  value:float array ->
  qx:float array ->
  qy:float array ->
  rx:float ->
  ry:float ->
  int array ->
  unit
