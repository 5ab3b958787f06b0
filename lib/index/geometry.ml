(* Per-point-set coordinates plus one stable sort per axis.  The index
   structures read the orders instead of sorting their own copies. *)

open Sgl_util

type t = {
  x : float array;
  y : float array;
  by_x : int array;
  by_y : int array;
}

let make ~(x : float array) ~(y : float array) : t =
  if Array.length x <> Array.length y then invalid_arg "Geometry.make: x and y differ in length";
  { x; y; by_x = Float_sort.order x; by_y = Float_sort.order y }

let size t = Array.length t.x
