(** Possibly-open float intervals: one dimension of an orthogonal range
    query. *)

type t = {
  lo : float;
  lo_strict : bool;
  hi : float;
  hi_strict : bool;
}

val make : ?lo:float -> ?lo_strict:bool -> ?hi:float -> ?hi_strict:bool -> unit -> t

(** The unbounded interval. *)
val everything : t

val mem : t -> float -> bool
val is_empty : t -> bool

val inter : t -> t -> t
val pp : t Fmt.t

(** A box: one interval per dimension, held as parallel arrays so a prober
    can overwrite its bounds in place ([lows.(d) <- v]) instead of
    allocating intervals. *)
type box = {
  lows : float array;
  highs : float array;
  low_strict : bool array;
  high_strict : bool array;
}

(** A fresh box with one dimension per interval, in order. *)
val box : t list -> box

(** The members of dimension [d] within a sorted array occupy positions
    [\[first b d coords, last b d coords)]; none when [last <= first]. *)
val first : box -> int -> float array -> int

val last : box -> int -> float array -> int

(** [box_mem b d x]: does [x] lie inside dimension [d]? *)
val box_mem : box -> int -> float -> bool
