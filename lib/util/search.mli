(** Binary search over sorted data. *)

(** First index whose element is [>= x]; array length when none. *)
val lower_bound : float array -> float -> int

(** First index whose element is [> x]; array length when none. *)
val upper_bound : float array -> float -> int

(** Number of elements inside the closed interval [\[lo, hi\]]. *)
val count_in_range : float array -> lo:float -> hi:float -> int
