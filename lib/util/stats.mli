(** Streaming and one-shot statistics. *)

type t

val create : unit -> t

(** [add t x] folds the observation [x] into the accumulator (Welford). *)
val add : t -> float -> unit

val count : t -> int
val mean : t -> float
val total : t -> float

(** Sample variance (n-1 denominator); 0 when fewer than two samples. *)
val variance : t -> float

val stddev : t -> float
val min_value : t -> float
val max_value : t -> float

(** [percentile t q] estimates the [q]-quantile ([0. <= q <= 1.]) from a
    fixed grid of logarithmic buckets (8 per octave): the clamped
    geometric midpoint of the bucket containing the nearest rank, so the
    relative error is bounded by the bucket width (about 9%).  [nan] when
    empty; [q <= 0.]/[q >= 1.] return the exact min/max. *)
val percentile : t -> float -> float

val reset : t -> unit

val mean_of : float array -> float
val population_variance_of : float array -> float
val population_stddev_of : float array -> float
