(* Deterministic pseudo-random number generation for the simulation engine.

   The paper's [Random(i)] primitive must return the same number for the same
   seed [i] within a single clock tick, but not necessarily across ticks
   (Section 4.1).  We realize this with a counter-mode splitmix64 generator:
   every draw is a pure function of (stream seed, tick, unit key, i), so the
   naive and indexed evaluators observe exactly the same random values and
   whole simulations are replayable from a single root seed. *)

type t = { seed : int64 }

let create seed = { seed = Int64.of_int seed }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_raw state counter =
  mix64 (Int64.add state (Int64.mul (Int64.of_int counter) golden_gamma))

(* Combine several integer coordinates into one 64-bit state.  Each component
   is mixed before xor so that nearby coordinates land far apart. *)
let[@inline] absorb acc c = mix64 (Int64.add (Int64.logxor acc (Int64.of_int c)) golden_gamma)
let combine t coords = List.fold_left absorb t.seed coords

let bits t coords = next_raw (combine t coords) 1

(* A non-negative int in [0, bound).  Mask to 62 bits so the Int64 value
   always fits OCaml's native int without wrapping negative. *)
let int t ~bound coords =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.logand (bits t coords) 0x3FFFFFFFFFFFFFFFL) in
  r mod bound

(* A float uniform in [0, 1). *)
let float t coords =
  let r = Int64.to_float (Int64.shift_right_logical (bits t coords) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let float_range t ~lo ~hi coords =
  lo +. ((hi -. lo) *. float t coords)

(* The per-tick random function handed to scripts: [random tick key i]. *)
let script_random t ~tick ~key i = int t ~bound:1_000_000 [ 7; tick; key; i ]

(* Fisher-Yates shuffle of an array, deterministic in the coords: swap
   [i] with [int t ~bound:(i + 1) (i :: coords)], computed inline so that
   neither the coordinate list nor the 64-bit intermediates are
   allocated. *)
let shuffle_in_place t coords arr =
  let coords = Array.of_list coords in
  for i = Array.length arr - 1 downto 1 do
    let state = ref (absorb t.seed i) in
    for k = 0 to Array.length coords - 1 do
      state := absorb !state (Array.unsafe_get coords k)
    done;
    let r = Int64.to_int (Int64.logand (next_raw !state 1) 0x3FFFFFFFFFFFFFFFL) in
    let j = r mod (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
