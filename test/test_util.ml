(* Tests for the utility substrate. *)

open Sgl_util

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for i = 0 to 100 do
    check_int "same stream" (Prng.int a ~bound:1000 [ i ]) (Prng.int b ~bound:1000 [ i ])
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for i = 0 to 99 do
    if Prng.int a ~bound:1_000_000 [ i ] = Prng.int b ~bound:1_000_000 [ i ] then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_prng_bounds () =
  let t = Prng.create 7 in
  for i = 0 to 999 do
    let v = Prng.int t ~bound:17 [ i ] in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let f = Prng.float t [ i ] in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 1.)
  done

let test_prng_bad_bound () =
  let t = Prng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t ~bound:0 [ 1 ]))

let test_script_random_stable_within_tick () =
  let t = Prng.create 5 in
  check_int "stable" (Prng.script_random t ~tick:3 ~key:9 1) (Prng.script_random t ~tick:3 ~key:9 1);
  Alcotest.(check bool)
    "varies across ticks" true
    (let same = ref 0 in
     for tick = 0 to 50 do
       if Prng.script_random t ~tick ~key:9 1 = Prng.script_random t ~tick:(tick + 1) ~key:9 1
       then incr same
     done;
     !same < 3)

let test_shuffle_is_permutation () =
  let t = Prng.create 11 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle_in_place t [ 1; 2 ] arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* The in-place shuffle draws exactly what a [Prng.int] per index would:
   the same permutation as the list-building reference, for several seeds,
   coordinate lists (empty, negative, long) and sizes past 10k. *)
let test_shuffle_matches_reference () =
  let reference t coords arr =
    for i = Array.length arr - 1 downto 1 do
      let j = Prng.int t ~bound:(i + 1) (i :: coords) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done
  in
  List.iter
    (fun (seed, coords, n) ->
      let t = Prng.create seed in
      let expected = Array.init n (fun i -> i) and got = Array.init n (fun i -> i) in
      reference t coords expected;
      Prng.shuffle_in_place t coords got;
      Alcotest.(check (array int))
        (Printf.sprintf "seed %d, %d coords, n=%d" seed (List.length coords) n)
        expected got)
    [
      (42, [ 3; 17 ], 10_000);
      (7, [], 12_345);
      (1, [ 0 ], 10_000);
      (99, [ -3; max_int; 5; 17 ], 10_007);
      (5, [ 40; 17 ], 2);
      (5, [ 40; 17 ], 1);
    ]

(* ------------------------------------------------------------------ *)
(* Vec2 *)

let test_vec2_arithmetic () =
  let a = Vec2.make 3. 4. in
  check_float "norm" 5. (Vec2.norm a);
  check_float "dist" 5. (Vec2.dist Vec2.zero a);
  let b = Vec2.add a (Vec2.make 1. (-2.)) in
  check_float "add x" 4. b.Vec2.x;
  check_float "add y" 2. b.Vec2.y;
  let n = Vec2.normalize a in
  check_float "unit" 1. (Vec2.norm n)

let test_vec2_normalize_zero () =
  Alcotest.(check bool) "zero stays zero" true (Vec2.equal Vec2.zero (Vec2.normalize Vec2.zero))

let test_vec2_clamp () =
  let a = Vec2.make 30. 40. in
  check_float "clamped" 5. (Vec2.norm (Vec2.clamp_norm 5. a));
  let b = Vec2.make 0.3 0.4 in
  check_float "short unchanged" (Vec2.norm b) (Vec2.norm (Vec2.clamp_norm 5. b))

(* ------------------------------------------------------------------ *)
(* Varray *)

let test_varray_push_get () =
  let v = Varray.create 0 in
  for i = 0 to 99 do
    Varray.push v (i * i)
  done;
  check_int "length" 100 (Varray.length v);
  check_int "get" 49 (Varray.get v 7);
  Varray.set v 7 1;
  check_int "set" 1 (Varray.get v 7)

let test_varray_bounds () =
  let v = Varray.create 0 in
  Varray.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Varray.get: index out of bounds")
    (fun () -> ignore (Varray.get v 1))

let test_varray_pop_clear () =
  let v = Varray.of_array 0 [| 1; 2; 3 |] in
  check_int "pop" 3 (Varray.pop v);
  check_int "len" 2 (Varray.length v);
  Varray.clear v;
  check_int "cleared" 0 (Varray.length v)

let test_varray_swap_remove () =
  let v = Varray.of_array 0 [| 10; 20; 30; 40 |] in
  Varray.swap_remove v 1;
  let l = List.sort compare (Varray.to_list v) in
  Alcotest.(check (list int)) "removed 20" [ 10; 30; 40 ] l

let test_varray_fold_iter () =
  let v = Varray.of_array 0 [| 1; 2; 3; 4 |] in
  check_int "fold" 10 (Varray.fold_left ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Varray.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Varray.exists (fun x -> x = 9) v)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_welford () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5. (Stats.mean s);
  check_float "min" 2. (Stats.min_value s);
  check_float "max" 9. (Stats.max_value s);
  check_int "count" 8 (Stats.count s);
  (* Sample variance of this classic data set is 32/7. *)
  check_float "variance" (32. /. 7.) (Stats.variance s)

let test_stats_population () =
  let arr = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "pop stddev" 2. (Stats.population_stddev_of arr)

let test_stats_empty () =
  let s = Stats.create () in
  check_int "count" 0 (Stats.count s);
  Alcotest.(check bool) "mean is nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "min is nan" true (Float.is_nan (Stats.min_value s));
  Alcotest.(check bool) "max is nan" true (Float.is_nan (Stats.max_value s));
  check_float "variance" 0. (Stats.variance s);
  check_float "total" 0. (Stats.total s)

let test_stats_single_sample () =
  let s = Stats.create () in
  Stats.add s 3.5;
  check_int "count" 1 (Stats.count s);
  check_float "mean" 3.5 (Stats.mean s);
  check_float "min" 3.5 (Stats.min_value s);
  check_float "max" 3.5 (Stats.max_value s);
  (* fewer than two samples: sample variance defined as 0 *)
  check_float "variance" 0. (Stats.variance s);
  check_float "stddev" 0. (Stats.stddev s)

(* Welford against the naive two-pass reference on a fixed data set. *)
let test_stats_vs_two_pass () =
  let data = [| 1.25; -3.5; 0.; 7.75; 2.5; -0.125; 4.; 4.; -8.25; 3. |] in
  let n = Array.length data in
  let s = Stats.create () in
  Array.iter (Stats.add s) data;
  let mean = Array.fold_left ( +. ) 0. data /. float_of_int n in
  let sq = Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. data in
  let sample_variance = sq /. float_of_int (n - 1) in
  Alcotest.(check (float 1e-12)) "mean" mean (Stats.mean s);
  Alcotest.(check (float 1e-12)) "variance" sample_variance (Stats.variance s)

(* ------------------------------------------------------------------ *)
(* Percentiles *)

let test_percentile_basic () =
  let s = Stats.create () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i)
  done;
  (* log-bucketed: the answer is within one bucket width (2^(1/8) ~ 9%)
     of the exact quantile *)
  let check_close name expect got =
    if Float.abs (got -. expect) > 0.1 *. expect then
      Alcotest.failf "%s: expected ~%g, got %g" name expect got
  in
  check_close "p50" 500. (Stats.percentile s 0.50);
  check_close "p90" 900. (Stats.percentile s 0.90);
  check_close "p99" 990. (Stats.percentile s 0.99);
  (* q <= 0 / q >= 1 are the exact extremes *)
  check_float "p0 is min" 1. (Stats.percentile s 0.);
  check_float "p100 is max" 1000. (Stats.percentile s 1.)

let test_percentile_edges () =
  let s = Stats.create () in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile s 0.5));
  (* non-positive samples land in the sign bucket and report the minimum *)
  Stats.add s (-4.);
  Stats.add s 0.;
  Stats.add s 8.;
  check_float "p50 over sign bucket" (-4.) (Stats.percentile s 0.5);
  check_float "p100" 8. (Stats.percentile s 1.);
  (* a single sample answers every quantile with itself (clamped) *)
  let one = Stats.create () in
  Stats.add one 42.;
  check_float "single p50" 42. (Stats.percentile one 0.5);
  check_float "single p99" 42. (Stats.percentile one 0.99);
  (* reset clears the buckets too *)
  Stats.reset s;
  Alcotest.(check bool) "reset -> nan" true (Float.is_nan (Stats.percentile s 0.9))

(* ------------------------------------------------------------------ *)
(* Search *)

let test_search_bounds () =
  let arr = [| 1.; 2.; 2.; 2.; 5.; 8. |] in
  check_int "lower 2" 1 (Search.lower_bound arr 2.);
  check_int "upper 2" 4 (Search.upper_bound arr 2.);
  check_int "lower 0" 0 (Search.lower_bound arr 0.);
  check_int "lower 9" 6 (Search.lower_bound arr 9.);
  check_int "count [2,5]" 4 (Search.count_in_range arr ~lo:2. ~hi:5.);
  check_int "count empty" 0 (Search.count_in_range arr ~lo:3. ~hi:4.)

let search_matches_scan =
  QCheck.Test.make ~name:"lower/upper bound match linear scan" ~count:200
    QCheck.(pair (list (float_bound_inclusive 100.)) (float_bound_inclusive 100.))
    (fun (l, x) ->
      let arr = Array.of_list (List.sort compare l) in
      let lower = Search.lower_bound arr x and upper = Search.upper_bound arr x in
      let scan_lower = Array.fold_left (fun acc v -> if v < x then acc + 1 else acc) 0 arr in
      let scan_upper = Array.fold_left (fun acc v -> if v <= x then acc + 1 else acc) 0 arr in
      lower = scan_lower && upper = scan_upper)

let timer_accumulates () =
  let t = Timer.create () in
  Timer.start t;
  Timer.stop t;
  Alcotest.(check bool) "non-negative" true (Timer.elapsed t >= 0.);
  Alcotest.check_raises "double stop" (Invalid_argument "Timer.stop: not running") (fun () ->
      Timer.stop t)

(* The clock behind the timers is monotonic: successive readings never go
   backwards (Unix.gettimeofday, the previous source, can). *)
let timer_monotonic () =
  let prev = ref (Timer.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Timer.now_ns () in
    if Int64.compare t !prev < 0 then Alcotest.fail "now_ns went backwards";
    prev := t
  done;
  let a = Timer.now () in
  let b = Timer.now () in
  Alcotest.(check bool) "now () nondecreasing" true (b >= a)

(* ------------------------------------------------------------------ *)
(* Float_sort *)

(* Tie-heavy keys: both zeros, nans of either sign, both infinities and a
   few finite values.  Sizes cluster around multiples of the sort's
   24-element insertion runs, where the merge passes change shape. *)
let tie_key_gen =
  QCheck.Gen.oneofl [ nan; -.nan; -0.; 0.; infinity; neg_infinity; 1.; -1.; 0.5; 2.; 1e300 ]

let tie_keys_gen =
  QCheck.Gen.(
    oneof
      [
        int_range 0 200;
        oneofl [ 23; 24; 25; 47; 48; 49; 71; 72; 73; 95; 96; 97; 191; 192; 193; 385 ];
      ]
    >>= fun n -> array_repeat n tie_key_gen)

let print_keys = QCheck.Print.(array float)

let stable_reference (keys : float array) (ids : int array) : int array =
  let ids = Array.copy ids in
  Array.stable_sort (fun a b -> Float.compare keys.(a) keys.(b)) ids;
  ids

let float_sort_order_is_stable_sort =
  QCheck.Test.make ~name:"Float_sort.order = Array.stable_sort by Float.compare" ~count:500
    (QCheck.make ~print:print_keys tie_keys_gen)
    (fun keys ->
      Float_sort.order keys = stable_reference keys (Array.init (Array.length keys) Fun.id))

(* [sort_by] over an arbitrary id sequence (repeats included) keeps the
   input order of equal keys, not the id order. *)
let float_sort_by_is_stable_sort =
  QCheck.Test.make ~name:"Float_sort.sort_by = Array.stable_sort over any ids" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair print_keys (array int))
       QCheck.Gen.(
         tie_keys_gen >>= fun keys ->
         let n = Array.length keys in
         if n = 0 then return (keys, [||])
         else map (fun ids -> (keys, ids)) (array_size (int_range 0 (2 * n)) (int_range 0 (n - 1)))))
    (fun (keys, ids) ->
      let got = Array.copy ids in
      Float_sort.sort_by keys got;
      got = stable_reference keys ids)

let test_float_sort_edges () =
  Alcotest.(check (array int)) "empty" [||] (Float_sort.order [||]);
  Alcotest.(check (array int)) "nans first, zeros tie, by position"
    [| 2; 4; 5; 1; 3; 0 |]
    (Float_sort.order [| infinity; 0.; nan; -0.; -.nan; neg_infinity |])

let suite =
  let tc = Alcotest.test_case in
  [
    ( "util.prng",
      [
        tc "deterministic" `Quick test_prng_deterministic;
        tc "seed sensitivity" `Quick test_prng_seed_sensitivity;
        tc "bounds" `Quick test_prng_bounds;
        tc "bad bound" `Quick test_prng_bad_bound;
        tc "script random stable within tick" `Quick test_script_random_stable_within_tick;
        tc "shuffle is a permutation" `Quick test_shuffle_is_permutation;
        tc "shuffle matches the per-index reference" `Quick test_shuffle_matches_reference;
      ] );
    ( "util.vec2",
      [
        tc "arithmetic" `Quick test_vec2_arithmetic;
        tc "normalize zero" `Quick test_vec2_normalize_zero;
        tc "clamp norm" `Quick test_vec2_clamp;
      ] );
    ( "util.varray",
      [
        tc "push/get/set" `Quick test_varray_push_get;
        tc "bounds checking" `Quick test_varray_bounds;
        tc "pop and clear" `Quick test_varray_pop_clear;
        tc "swap_remove" `Quick test_varray_swap_remove;
        tc "fold/iter/exists" `Quick test_varray_fold_iter;
      ] );
    ( "util.stats",
      [
        tc "welford" `Quick test_stats_welford;
        tc "population stddev" `Quick test_stats_population;
        tc "empty accumulator" `Quick test_stats_empty;
        tc "single sample" `Quick test_stats_single_sample;
        tc "welford vs two-pass reference" `Quick test_stats_vs_two_pass;
        tc "percentile basic" `Quick test_percentile_basic;
        tc "percentile edges" `Quick test_percentile_edges;
      ] );
    ( "util.search",
      [
        tc "bounds on duplicates" `Quick test_search_bounds;
        QCheck_alcotest.to_alcotest search_matches_scan;
      ] );
    ( "util.float_sort",
      [
        tc "edges" `Quick test_float_sort_edges;
        QCheck_alcotest.to_alcotest float_sort_order_is_stable_sort;
        QCheck_alcotest.to_alcotest float_sort_by_is_stable_sort;
      ] );
    ( "util.timer",
      [ tc "accumulates" `Quick timer_accumulates; tc "monotonic" `Quick timer_monotonic ] );
  ]
