(* Property tests for the index structures: every index must agree exactly
   with a brute-force scan on random inputs. *)

open Sgl_index

let qtest = QCheck_alcotest.to_alcotest

(* Random geometry generators.  Coordinates are drawn from a small integer
   lattice scaled by 0.5 so duplicates and boundary hits are common — the
   regimes where range trees typically break. *)
let coord_gen = QCheck.Gen.(map (fun i -> float_of_int i *. 0.5) (int_range (-20) 20))

let point2_gen = QCheck.Gen.pair coord_gen coord_gen

let points2_gen = QCheck.Gen.(list_size (int_range 0 120) point2_gen)

let interval_gen =
  QCheck.Gen.(
    map
      (fun (a, b, ls, hs) ->
        let lo = Float.min a b and hi = Float.max a b in
        Interval.make ~lo ~lo_strict:ls ~hi ~hi_strict:hs ())
      (tup4 coord_gen coord_gen bool bool))

let arbitrary_points2 = QCheck.make ~print:(fun l -> QCheck.Print.(list (pair float float)) l) points2_gen

(* ------------------------------------------------------------------ *)
(* Interval *)

let interval_mem_matches_positions =
  QCheck.Test.make ~name:"interval: positions = members of sorted array" ~count:300
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 60) coord_gen) interval_gen))
    (fun (l, iv) ->
      let arr = Array.of_list (List.sort compare l) in
      let box = Interval.box [ iv ] in
      let a = Interval.first box 0 arr in
      let b = max a (Interval.last box 0 arr) in
      let expected = Array.to_list arr |> List.filter (Interval.mem iv) |> List.length in
      b - a = expected
      && Array.for_all (fun x -> not (Interval.mem iv x))
           (Array.append (Array.sub arr 0 a) (Array.sub arr b (Array.length arr - b))))

let test_interval_inter () =
  let a = Interval.make ~lo:0. ~hi:10. () in
  let b = Interval.make ~lo:5. ~lo_strict:true ~hi:20. () in
  let c = Interval.inter a b in
  Alcotest.(check bool) "left strict" true c.Interval.lo_strict;
  Alcotest.(check (float 0.)) "lo" 5. c.Interval.lo;
  Alcotest.(check (float 0.)) "hi" 10. c.Interval.hi;
  Alcotest.(check bool) "5 excluded" false (Interval.mem c 5.);
  Alcotest.(check bool) "10 included" true (Interval.mem c 10.)

let test_interval_empty () =
  Alcotest.(check bool) "reversed" true (Interval.is_empty (Interval.make ~lo:3. ~hi:1. ()));
  Alcotest.(check bool) "point strict" true
    (Interval.is_empty (Interval.make ~lo:3. ~hi:3. ~hi_strict:true ()));
  Alcotest.(check bool) "point closed" false (Interval.is_empty (Interval.make ~lo:3. ~hi:3. ()))

(* ------------------------------------------------------------------ *)
(* Range tree *)

(* Brute-force statistic sum over a boxed point set. *)
let brute_stats points box stats m =
  let acc = Array.make m 0. in
  Array.iteri
    (fun id coords ->
      if List.for_all2 (fun iv c -> Interval.mem iv c) box coords then begin
        let s = stats id in
        for j = 0 to m - 1 do
          acc.(j) <- acc.(j) +. s.(j)
        done
      end)
    points;
  acc

(* The statistic sums of the points inside [box], from a fresh buffer. *)
let range_stats tree box ~m =
  let acc = Array.make m 0. in
  Range_tree.accumulate tree (Interval.box box) ~scratch:(Array.make m 0.) acc;
  acc

let float_array_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-6) a b

(* Per-point statistic vectors laid out flat, point after point. *)
let flat_stats n stats = Array.concat (List.init n stats)

let range_tree_test ~name ~dims_count =
  QCheck.Test.make ~name ~count:150
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 0 80) (list_repeat dims_count coord_gen))
           (list_repeat dims_count interval_gen)))
    (fun (pts, box) ->
      let points = Array.of_list pts in
      let n = Array.length points in
      let dims = List.init dims_count (fun d -> Array.map (fun p -> List.nth p d) points) in
      (* stats: [1; first coordinate] so both count and sum paths are hit *)
      let stats id = [| 1.; List.nth points.(id) 0 |] in
      let tree = Range_tree.build ~dims ~stats:(Some (flat_stats n stats)) ~m:2 n in
      let got = range_stats tree box ~m:2 in
      let expected = brute_stats points box stats 2 in
      let enum = ref [] in
      Range_tree.query_enum tree (Interval.box box) (fun id -> enum := id :: !enum);
      let expected_ids =
        List.init n (fun id -> id)
        |> List.filter (fun id ->
               List.for_all2 (fun iv c -> Interval.mem iv c) box points.(id))
      in
      float_array_eq got expected
      && List.sort compare !enum = List.sort compare expected_ids)

let range_tree_1d = range_tree_test ~name:"range tree 1d = brute force" ~dims_count:1
let range_tree_2d = range_tree_test ~name:"range tree 2d = brute force" ~dims_count:2
let range_tree_3d = range_tree_test ~name:"range tree 3d = brute force" ~dims_count:3

let test_range_tree_empty () =
  let tree = Range_tree.build ~dims:[ [||]; [||] ] ~stats:None ~m:0 0 in
  let box = Interval.box [ Interval.everything; Interval.everything ] in
  Alcotest.(check int) "no points" 0 (Range_tree.query_count tree box);
  (* An empty tree collapses to its first (empty) level. *)
  Alcotest.(check int) "depth" 1 (Range_tree.depth tree)

let test_range_tree_bad_arity () =
  let tree = Range_tree.build ~dims:[ [| 0. |] ] ~stats:None ~m:0 1 in
  Alcotest.check_raises "arity"
    (Invalid_argument "Range_tree.query_enum: box arity does not match tree depth") (fun () ->
      Range_tree.query_enum tree (Interval.box [ Interval.everything; Interval.everything ]) ignore)

(* ------------------------------------------------------------------ *)
(* Cascade tree *)

(* A cascade tree over 2-d points with statistics [stats k] for point k. *)
let cascade_of points stats ~m =
  Cascade_tree.build
    (Geometry.make ~x:(Array.map fst points) ~y:(Array.map snd points))
    ~stats:(flat_stats (Array.length points) stats) ~m

let cascade_matches_brute =
  QCheck.Test.make ~name:"cascade tree = brute force" ~count:300
    (QCheck.make QCheck.Gen.(pair points2_gen (pair interval_gen interval_gen)))
    (fun (pts, (ivx, ivy)) ->
      let points = Array.of_list pts in
      let n = Array.length points in
      let x id = fst points.(id) and y id = snd points.(id) in
      let stats id = [| 1.; x id; y id; x id *. x id |] in
      let tree = cascade_of points stats ~m:4 in
      let got = Cascade_tree.query tree ~x:ivx ~y:ivy in
      let expected = Array.make 4 0. in
      for id = 0 to n - 1 do
        if Interval.mem ivx (x id) && Interval.mem ivy (y id) then begin
          let s = stats id in
          for j = 0 to 3 do
            expected.(j) <- expected.(j) +. s.(j)
          done
        end
      done;
      float_array_eq got expected)

let cascade_matches_range_tree =
  QCheck.Test.make ~name:"cascade tree = layered range tree" ~count:200
    (QCheck.make QCheck.Gen.(pair points2_gen (pair interval_gen interval_gen)))
    (fun (pts, (ivx, ivy)) ->
      let points = Array.of_list pts in
      let n = Array.length points in
      let stats id = [| 1.; snd points.(id) |] in
      let cascade = cascade_of points stats ~m:2 in
      let layered =
        Range_tree.build
          ~dims:[ Array.map fst points; Array.map snd points ]
          ~stats:(Some (flat_stats n stats)) ~m:2 n
      in
      float_array_eq (Cascade_tree.query cascade ~x:ivx ~y:ivy)
        (range_stats layered [ ivx; ivy ] ~m:2))

(* Two partitions summed into one buffer must equal the per-partition
   [query] results added with [+.], bit for bit.  The statistics are not
   dyadic, so the sums round and any other order of additions shows. *)
let cascade_accumulate_matches_query =
  QCheck.Test.make ~name:"cascade accumulate = per-tree query sums, bitwise" ~count:200
    (QCheck.make QCheck.Gen.(triple points2_gen points2_gen (pair interval_gen interval_gen)))
    (fun (pa, pb, (ivx, ivy)) ->
      let tree pts =
        let points = Array.of_list pts in
        cascade_of points
          (fun k -> [| 0.1 *. float_of_int (k + 1); (fst points.(k) /. 3.) +. 0.7 |])
          ~m:2
      in
      let ta = tree pa and tb = tree pb in
      let acc = Array.make 2 0. and scratch = Array.make 2 0. in
      let box = Interval.box [ ivx; ivy ] in
      Cascade_tree.accumulate ta box ~scratch acc;
      Cascade_tree.accumulate tb box ~scratch acc;
      let expected =
        Array.map2 ( +. ) (Cascade_tree.query ta ~x:ivx ~y:ivy) (Cascade_tree.query tb ~x:ivx ~y:ivy)
      in
      Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) acc
        expected)

let test_cascade_empty () =
  let tree = Cascade_tree.build (Geometry.make ~x:[||] ~y:[||]) ~stats:[||] ~m:3 in
  let got = Cascade_tree.query tree ~x:Interval.everything ~y:Interval.everything in
  Alcotest.(check int) "zero vector" 3 (Array.length got);
  Alcotest.(check bool) "all zero" true (Array.for_all (fun v -> v = 0.) got)

let test_cascade_single () =
  let tree =
    Cascade_tree.build (Geometry.make ~x:[| 2. |] ~y:[| 3. |]) ~stats:[| 1.; 5. |] ~m:2
  in
  Alcotest.(check int) "size" 1 (Cascade_tree.size tree);
  let inside = Cascade_tree.query tree ~x:(Interval.make ~lo:2. ~hi:2. ()) ~y:Interval.everything in
  Alcotest.(check bool) "point hit" true (inside = [| 1.; 5. |]);
  let outside =
    Cascade_tree.query tree ~x:(Interval.make ~lo:2. ~hi:2. ~hi_strict:true ()) ~y:Interval.everything
  in
  Alcotest.(check bool) "strict bound misses" true (outside = [| 0.; 0. |])

(* Every point at the same coordinates: the degenerate tree the paper's
   hashtable levels otherwise hide.  All-or-nothing per query. *)
let test_cascade_duplicates () =
  let n = 9 in
  let tree =
    cascade_of (Array.make n (1.5, -4.)) (fun id -> [| 1.; float_of_int id |]) ~m:2
  in
  let all = Cascade_tree.query tree ~x:Interval.everything ~y:Interval.everything in
  Alcotest.(check bool) "all duplicates counted" true
    (all = [| float_of_int n; float_of_int (n * (n - 1) / 2) |]);
  let none =
    Cascade_tree.query tree ~x:(Interval.make ~lo:2. ~hi:9. ()) ~y:Interval.everything
  in
  Alcotest.(check bool) "none" true (none = [| 0.; 0. |])

(* ------------------------------------------------------------------ *)
(* kD-tree *)

(* A kD-tree over 2-d points, point k reported as [ids.(k)]. *)
let kd_of points ids =
  Kd_tree.build (Geometry.make ~x:(Array.map fst points) ~y:(Array.map snd points)) ids

let kd_nearest_matches_scan =
  QCheck.Test.make ~name:"kd tree nearest = linear scan" ~count:300
    (QCheck.make QCheck.Gen.(pair points2_gen point2_gen))
    (fun (pts, (qx, qy)) ->
      let points = Array.of_list pts in
      let n = Array.length points in
      let x id = fst points.(id) and y id = snd points.(id) in
      let tree = kd_of points (Array.init n (fun i -> i)) in
      let d2 id =
        let dx = x id -. qx and dy = y id -. qy in
        (dx *. dx) +. (dy *. dy)
      in
      let scan filter =
        let best = ref None in
        for id = 0 to n - 1 do
          if filter id then begin
            match !best with
            | Some (bid, bd2) when bd2 < d2 id || (bd2 = d2 id && bid < id) -> ()
            | _ -> best := Some (id, d2 id)
          end
        done;
        !best
      in
      let all _ = true in
      let even id = id mod 2 = 0 in
      Kd_tree.nearest tree ~qx ~qy = scan all
      && Kd_tree.nearest ~filter:even tree ~qx ~qy = scan even)

let kd_box_matches_scan =
  QCheck.Test.make ~name:"kd tree box query = linear scan" ~count:200
    (QCheck.make QCheck.Gen.(pair points2_gen (pair interval_gen interval_gen)))
    (fun (pts, (ivx, ivy)) ->
      let points = Array.of_list pts in
      let n = Array.length points in
      let x id = fst points.(id) and y id = snd points.(id) in
      let tree = kd_of points (Array.init n (fun i -> i)) in
      let got = ref [] in
      Kd_tree.query_box tree ~x:ivx ~y:ivy (fun id -> got := id :: !got);
      let expected =
        List.init n (fun id -> id)
        |> List.filter (fun id -> Interval.mem ivx (x id) && Interval.mem ivy (y id))
      in
      List.sort compare !got = expected)

(* Few distinct coordinates, so most points are duplicates, reported
   under shuffled labels: ties must break toward the smaller label, not
   the smaller position, whichever presorted order put them first. *)
let kd_nearest_duplicates =
  let coord = QCheck.Gen.(map float_of_int (int_range 0 3)) in
  QCheck.Test.make ~name:"presorted kd nearest = scan over duplicates" ~count:300
    (QCheck.make
       QCheck.Gen.(
         tup3
           (list_size (int_range 0 80) (pair coord coord))
           (pair coord coord) int))
    (fun (pts, (qx, qy), seed) ->
      let points = Array.of_list pts in
      let n = Array.length points in
      let labels = Array.init n (fun k -> ((k * 7919) + seed) land 0xffff) in
      let tree = kd_of points labels in
      let scan filter =
        let best = ref None in
        Array.iteri
          (fun k (x, y) ->
            let id = labels.(k) in
            if filter id then begin
              let d2 = ((x -. qx) *. (x -. qx)) +. ((y -. qy) *. (y -. qy)) in
              match !best with
              | Some (bid, bd2) when bd2 < d2 || (bd2 = d2 && bid <= id) -> ()
              | _ -> best := Some (id, d2)
            end)
          points;
        !best
      in
      let odd id = id land 1 = 1 in
      Kd_tree.nearest tree ~qx ~qy = scan (fun _ -> true)
      && Kd_tree.nearest ~filter:odd tree ~qx ~qy = scan odd)

let test_kd_empty () =
  let tree = kd_of [||] [||] in
  Alcotest.(check bool) "no nearest" true (Kd_tree.nearest tree ~qx:0. ~qy:0. = None);
  let visited = ref 0 in
  Kd_tree.query_box tree ~x:Interval.everything ~y:Interval.everything (fun _ -> incr visited);
  Alcotest.(check int) "box visits nothing" 0 !visited

let test_kd_single () =
  let tree = kd_of [| (3., 4.) |] [| 42 |] in
  Alcotest.(check int) "size" 1 (Kd_tree.size tree);
  (match Kd_tree.nearest tree ~qx:0. ~qy:0. with
  | Some (42, d2) -> Alcotest.(check (float 0.)) "distance" 25. d2
  | other -> Alcotest.failf "expected the single point, got %s"
               (match other with None -> "None" | Some (id, _) -> Printf.sprintf "id %d" id));
  Alcotest.(check bool) "filtered out" true
    (Kd_tree.nearest ~filter:(fun _ -> false) tree ~qx:0. ~qy:0. = None)

(* Co-located points: ties must break toward the smaller id and box queries
   must visit every duplicate exactly once. *)
let test_kd_duplicates () =
  let tree = kd_of (Array.make 4 (1., 1.)) [| 5; 3; 9; 3 |] in
  (match Kd_tree.nearest tree ~qx:1. ~qy:1. with
  | Some (3, 0.) -> ()
  | _ -> Alcotest.fail "tie must break toward the smaller id");
  let visited = ref [] in
  Kd_tree.query_box tree ~x:(Interval.make ~lo:1. ~hi:1. ()) ~y:Interval.everything (fun id ->
      visited := id :: !visited);
  Alcotest.(check (list int)) "all duplicates visited" [ 3; 3; 5; 9 ]
    (List.sort compare !visited)

(* ------------------------------------------------------------------ *)
(* Sweepline *)

(* The brute-force answer of a sweep query: the best point in the window,
   the first of equal values in index order. *)
let sweep_brute kind ~x ~y ~value ~rx ~ry (qx, qy) =
  let best = ref (-1) in
  Array.iteri
    (fun k v ->
      if Float.abs (x.(k) -. qx) <= rx && Float.abs (y.(k) -. qy) <= ry then begin
        let beats =
          !best < 0
          ||
          let c = Float.compare v value.(!best) in
          match kind with Sweepline.Min -> c < 0 | Sweepline.Max -> c > 0
        in
        if beats then best := k
      end)
    value;
  !best

(* Hundreds of points on the half-unit lattice with values in 0..4, so
   coordinates and values repeat, leaf counts are rarely powers of two, and
   zero-width windows (rx = ry = 0) hit only exact coordinates. *)
let sweep_case kind =
  let half_width = QCheck.Gen.(oneof [ return 0.; map Float.abs coord_gen ]) in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "sweepline %s = brute force"
         (match kind with Sweepline.Min -> "min" | Sweepline.Max -> "max"))
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         tup4
           (list_size (int_range 0 400)
              (tup3 coord_gen coord_gen (map float_of_int (int_range 0 4))))
           (list_size (int_range 0 100) point2_gen)
           half_width half_width))
    (fun (data_l, query_l, rx, ry) ->
      let data = Array.of_list data_l and queries = Array.of_list query_l in
      let x = Array.map (fun (x, _, _) -> x) data
      and y = Array.map (fun (_, y, _) -> y) data
      and value = Array.map (fun (_, _, v) -> v) data in
      let qx = Array.map fst queries and qy = Array.map snd queries in
      let got = Array.make (Array.length queries) 0 in
      Sweepline.run kind (Geometry.make ~x ~y) ~value ~qx ~qy ~rx ~ry got;
      Array.for_all2 (fun g q -> g = sweep_brute kind ~x ~y ~value ~rx ~ry q) got queries)

let sweep_min = sweep_case Sweepline.Min
let sweep_max = sweep_case Sweepline.Max

(* Sparse queries over a tall point cloud: most points' y-bands fall
   between two consecutive queries, so they enter and leave unseen; the
   rest repeat coordinates and values.  A few nan coordinates lie in no
   window.  One geometry serves a Min and a Max sweep in turn, so a sweep
   that disturbed the shared orders would show in the second. *)
let sweep_presorted =
  let coord = QCheck.Gen.(map (fun i -> float_of_int i *. 0.5) (int_range (-6) 6)) in
  let tall = QCheck.Gen.(map (fun i -> float_of_int i *. 0.5) (int_range (-200) 200)) in
  let maybe_nan g = QCheck.Gen.(frequency [ (30, g); (1, return nan) ]) in
  QCheck.Test.make ~name:"sweepline on a shared presorted geometry = brute force" ~count:150
    (QCheck.make
       QCheck.Gen.(
         tup4
           (list_size (int_range 0 300)
              (tup3 (maybe_nan coord) (maybe_nan tall) (map float_of_int (int_range 0 3))))
           (list_size (int_range 0 12) (pair (maybe_nan coord) (maybe_nan tall)))
           (oneofl [ 0.; 0.5; 1. ])
           (oneofl [ 0.; 0.5; 2. ])))
    (fun (data_l, query_l, rx, ry) ->
      let data = Array.of_list data_l and queries = Array.of_list query_l in
      let x = Array.map (fun (x, _, _) -> x) data
      and y = Array.map (fun (_, y, _) -> y) data
      and value = Array.map (fun (_, _, v) -> v) data in
      let g = Geometry.make ~x ~y in
      let qx = Array.map fst queries and qy = Array.map snd queries in
      List.for_all
        (fun kind ->
          let got = Array.make (Array.length queries) 0 in
          Sweepline.run kind g ~value ~qx ~qy ~rx ~ry got;
          Array.for_all2 (fun k q -> k = sweep_brute kind ~x ~y ~value ~rx ~ry q) got queries)
        [ Sweepline.Min; Sweepline.Max; Sweepline.Min ])

(* ------------------------------------------------------------------ *)
(* Cat index *)

let test_cat_index_partitions () =
  let ids = Array.init 20 (fun i -> i) in
  let keys id = [ id mod 2; id mod 3 ] in
  let built = ref 0 in
  let t =
    Cat_index.create ~keys ~ids ~builder:(fun members ->
        incr built;
        Array.length members)
  in
  Alcotest.(check int) "6 partitions" 6 (Cat_index.partition_count t);
  Alcotest.(check int) "lazy" 0 !built;
  (match Cat_index.find t [ 0; 0 ] with
  | Some n -> Alcotest.(check int) "partition size" 4 n (* ids 0,6,12,18 *)
  | None -> Alcotest.fail "partition missing");
  ignore (Cat_index.find t [ 0; 0 ]);
  Alcotest.(check int) "cached" 1 !built;
  let others = Cat_index.find_matching t ~accept:(fun k -> List.hd k <> 0) in
  Alcotest.(check int) "odd partitions" 3 (List.length others);
  Alcotest.(check int) "missing partition" 0 (Array.length (Cat_index.members t [ 9; 9 ]));
  Alcotest.(check bool) "missing find" true (Cat_index.find t [ 9; 9 ] = None)

(* No ids at all: every partition is absent (never empty-but-present), so
   probes see [None]/[[||]] and the builder is never invoked. *)
let test_cat_index_empty () =
  let built = ref 0 in
  let t =
    Cat_index.create ~keys:(fun id -> [ id ]) ~ids:[||] ~builder:(fun members ->
        incr built;
        Array.length members)
  in
  Alcotest.(check int) "no partitions" 0 (Cat_index.partition_count t);
  Alcotest.(check bool) "find misses" true (Cat_index.find t [ 0 ] = None);
  Alcotest.(check int) "members empty" 0 (Array.length (Cat_index.members t [ 0 ]));
  Alcotest.(check int) "nothing matches" 0
    (List.length (Cat_index.find_matching t ~accept:(fun _ -> true)));
  Cat_index.iter_built (fun _ _ -> Alcotest.fail "nothing was built") t;
  Alcotest.(check int) "builder never ran" 0 !built

let test_cat_index_single () =
  let t = Cat_index.create ~keys:(fun _ -> [ 7 ]) ~ids:[| 0 |] ~builder:Array.length in
  Alcotest.(check int) "one partition" 1 (Cat_index.partition_count t);
  Alcotest.(check bool) "found" true (Cat_index.find t [ 7 ] = Some 1)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "index.interval",
      [
        qtest interval_mem_matches_positions;
        tc "intersection" `Quick test_interval_inter;
        tc "emptiness" `Quick test_interval_empty;
      ] );
    ( "index.range_tree",
      [
        qtest range_tree_1d;
        qtest range_tree_2d;
        qtest range_tree_3d;
        tc "empty tree" `Quick test_range_tree_empty;
        tc "arity mismatch" `Quick test_range_tree_bad_arity;
      ] );
    ( "index.cascade_tree",
      [
        qtest cascade_matches_brute;
        qtest cascade_matches_range_tree;
        qtest cascade_accumulate_matches_query;
        tc "empty tree" `Quick test_cascade_empty;
        tc "single element" `Quick test_cascade_single;
        tc "duplicate coordinates" `Quick test_cascade_duplicates;
      ] );
    ( "index.kd_tree",
      [
        qtest kd_nearest_matches_scan;
        qtest kd_box_matches_scan;
        qtest kd_nearest_duplicates;
        tc "empty" `Quick test_kd_empty;
        tc "single element" `Quick test_kd_single;
        tc "duplicate coordinates" `Quick test_kd_duplicates;
      ] );
    ("index.sweepline", [ qtest sweep_min; qtest sweep_max; qtest sweep_presorted ]);
    ( "index.cat_index",
      [
        tc "partitions, laziness, caching" `Quick test_cat_index_partitions;
        tc "empty input" `Quick test_cat_index_empty;
        tc "single element" `Quick test_cat_index_single;
      ] );
  ]

let _ = arbitrary_points2
