(* Binary searches over sorted float arrays.

   All the geometric indexes reduce range decomposition to lower/upper bound
   searches, so these live in one place and are tested once.  Element and
   key are annotated [float] so the comparisons compile to unboxed float
   tests, never to the polymorphic compare. *)

(* Index of the first element >= [x]; [Array.length arr] when none. *)
let[@inline] lower_bound (arr : float array) (x : float) =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get arr mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of the first element > [x]; [Array.length arr] when none. *)
let[@inline] upper_bound (arr : float array) (x : float) =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get arr mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Count of elements in the closed interval [lo, hi]. *)
let count_in_range arr ~lo ~hi =
  let a = lower_bound arr lo and b = upper_bound arr hi in
  max 0 (b - a)
