(* Streaming statistics: used by benchmark reporting and by the engine's
   per-phase timing accumulators. *)

(* Percentiles come from a fixed grid of logarithmic buckets (8 per
   octave, covering 2^-40 .. 2^40).  Because the grid is the same in
   every accumulator, merging is an exact count sum: percentiles of a
   merged accumulator are bit-identical no matter how the samples were
   partitioned — unlike sampling-based sketches.  Bucket 0 collects
   non-positive samples (durations are >= 0; an exact-zero tick simply
   reports the observed minimum). *)
let buckets_per_octave = 8
let octave_range = 40 (* 2^-40 .. 2^40 *)
let n_log_buckets = 2 * octave_range * buckets_per_octave (* 640 *)
let n_buckets = n_log_buckets + 1 (* + the x <= 0 bucket *)

let bucket_of x =
  if x <= 0. || Float.is_nan x then 0
  else begin
    let raw =
      int_of_float (Float.floor (float_of_int buckets_per_octave *. Float.log2 x))
    in
    let shifted = raw + (octave_range * buckets_per_octave) in
    1 + max 0 (min (n_log_buckets - 1) shifted)
  end

(* Geometric midpoint of bucket [i >= 1]; callers clamp to [min,max]. *)
let representative i =
  let lo = i - 1 - (octave_range * buckets_per_octave) in
  Float.exp2 ((float_of_int lo +. 0.5) /. float_of_int buckets_per_octave)

type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations (Welford) *)
  mutable min : float;
  mutable max : float;
  buckets : int array; (* log-bucketed counts for percentiles *)
}

let create () =
  {
    n = 0;
    mean = 0.;
    m2 = 0.;
    min = infinity;
    max = neg_infinity;
    buckets = Array.make n_buckets 0;
  }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  let b = bucket_of x in
  t.buckets.(b) <- t.buckets.(b) + 1

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let total t = t.mean *. float_of_int t.n
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t = if t.n = 0 then nan else t.min
let max_value t = if t.n = 0 then nan else t.max

let reset t =
  t.n <- 0;
  t.mean <- 0.;
  t.m2 <- 0.;
  t.min <- infinity;
  t.max <- neg_infinity;
  Array.fill t.buckets 0 n_buckets 0

(* Nearest-rank percentile over the bucket counts.  The answer is the
   clamped geometric midpoint of the bucket holding the target rank, so
   the relative error is bounded by the bucket width (2^(1/8) ~ 9%) and
   the result depends only on the merged counts — never on merge order. *)
let percentile t q =
  if t.n = 0 then nan
  else if q <= 0. then t.min
  else if q >= 1. then t.max
  else begin
    let target = Float.max 1. (Float.round (q *. float_of_int t.n)) in
    let rank = int_of_float target in
    let idx = ref 0 in
    let cum = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + t.buckets.(i);
         if !cum >= rank then begin
           idx := i;
           raise Exit
         end
       done;
       idx := n_buckets - 1
     with Exit -> ());
    if !idx = 0 then t.min
    else Float.min t.max (Float.max t.min (representative !idx))
  end

(* Chan et al.'s parallel Welford combination: merging per-shard
   accumulators gives the same mean/M2 as folding every sample into one
   (up to float rounding), independent of how samples were partitioned.
   The qcheck merge-order-invariance law pins that. *)
let merge ~(into : t) (src : t) : unit =
  if src.n > 0 then begin
    if into.n = 0 then begin
      into.n <- src.n;
      into.mean <- src.mean;
      into.m2 <- src.m2;
      into.min <- src.min;
      into.max <- src.max
    end
    else begin
      let n = into.n + src.n in
      let delta = src.mean -. into.mean in
      let fn = float_of_int n in
      into.mean <- into.mean +. (delta *. float_of_int src.n /. fn);
      into.m2 <-
        into.m2 +. src.m2 +. (delta *. delta *. float_of_int into.n *. float_of_int src.n /. fn);
      into.n <- n;
      if src.min < into.min then into.min <- src.min;
      if src.max > into.max then into.max <- src.max
    end;
    for i = 0 to n_buckets - 1 do
      into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
    done
  end

let copy t =
  { n = t.n; mean = t.mean; m2 = t.m2; min = t.min; max = t.max; buckets = Array.copy t.buckets }

(* One-shot helpers over arrays; population variance to match the battle
   scripts' "standard deviation of all troop positions" aggregate. *)
let mean_of arr =
  let n = Array.length arr in
  if n = 0 then nan else Array.fold_left ( +. ) 0. arr /. float_of_int n

let population_variance_of arr =
  let n = Array.length arr in
  if n = 0 then nan
  else begin
    let m = mean_of arr in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. arr in
    acc /. float_of_int n
  end

let population_stddev_of arr = sqrt (population_variance_of arr)
