(** Stable sorting of index arrays by float keys.

    The order is [Float.compare]'s: nan below every other float and equal
    to itself, -0. equal to 0.  Equal keys keep their input order, so the
    result is exactly [Array.stable_sort] with a [Float.compare] closure,
    without the closure.  O(n log n) time, O(n) scratch. *)

(** [sort_by keys ids] reorders [ids] so that [keys.(ids.(i))] ascends. *)
val sort_by : float array -> int array -> unit

(** [order keys] is the permutation of [0 .. n-1] that sorts [keys]: ties
    break toward the smaller index. *)
val order : float array -> int array
