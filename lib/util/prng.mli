(** Deterministic, replayable pseudo-random numbers.

    All draws are pure functions of the root seed and the supplied integer
    coordinates, implementing the paper's requirement that [Random(i)] is
    stable within a clock tick but varies across ticks. *)

type t

(** [create seed] makes a generator rooted at [seed]. *)
val create : int -> t

(** [bits t coords] returns 64 mixed bits determined by [coords]. *)
val bits : t -> int list -> int64

(** [int t ~bound coords] is uniform in [\[0, bound)].  Raises
    [Invalid_argument] if [bound <= 0]. *)
val int : t -> bound:int -> int list -> int

(** [float t coords] is uniform in [\[0, 1)]. *)
val float : t -> int list -> float

(** [float_range t ~lo ~hi coords] is uniform in [\[lo, hi)]. *)
val float_range : t -> lo:float -> hi:float -> int list -> float

(** [script_random t ~tick ~key i] is the SGL [Random(i)] primitive for the
    unit identified by [key] during [tick]: stable within the tick, fresh
    across ticks. *)
val script_random : t -> tick:int -> key:int -> int -> int

(** [shuffle_in_place t coords arr] permutes [arr] deterministically: a
    Fisher-Yates pass swapping index [i] with
    [int t ~bound:(i + 1) (i :: coords)], without allocating per element. *)
val shuffle_in_place : t -> int list -> 'a array -> unit
