(** The shared geometry of one point set: its coordinates on two axes and
    its order along each.  Built once, it feeds every structure over the
    set ({!Cascade_tree}, {!Sweepline}, {!Kd_tree}), so each axis is sorted
    once however many structures read it. *)

type t = private {
  x : float array;  (** point [k]'s first coordinate *)
  y : float array;  (** point [k]'s second coordinate *)
  by_x : int array;  (** the points in [Float.compare] order of [x], ties by [k] *)
  by_y : int array;  (** likewise for [y] *)
}

(** [make ~x ~y] sorts the points [0 .. n-1] along both axes; [x] and [y]
    must have the same length and are kept, not copied. *)
val make : x:float array -> y:float array -> t

val size : t -> int
