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
    relative error is bounded by the bucket width (about 9%).  Because
    the grid is fixed, merged accumulators give bit-identical
    percentiles regardless of how samples were partitioned.  [nan] when
    empty; [q <= 0.]/[q >= 1.] return the exact min/max. *)
val percentile : t -> float -> float

val reset : t -> unit

(** [merge ~into src] folds [src]'s samples into [into] as if each had
    been [add]ed individually (Chan et al.'s parallel Welford update, so
    the result is independent of how samples were partitioned across
    accumulators, up to float rounding).  [src] is unchanged.  Used to
    aggregate per-shard telemetry histograms. *)
val merge : into:t -> t -> unit

val copy : t -> t

val mean_of : float array -> float
val population_variance_of : float array -> float
val population_stddev_of : float array -> float
