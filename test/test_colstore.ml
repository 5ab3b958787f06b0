(* The columnar store (struct-of-arrays) of the unit relation: the
   materializing view must reproduce every row bit-identically — same
   [Value.t] constructor tags — every row must have the schema arity, and
   the copy-on-write [refresh] must land exactly on the new row array
   while keeping clean columns physically shared.  Also the row-bag
   [Relation]'s isolation contract. *)

open Sgl_util
open Sgl_relalg

module Codec = Sgl_persist.Codec
module Checkpoint = Sgl_persist.Checkpoint
module Journal = Sgl_persist.Journal
module Flight = Sgl_obs.Flight

let qtest = QCheck_alcotest.to_alcotest

(* Tag-strict equality: [Value.equal] identifies [Int 2] with [Float 2.],
   but the store must preserve the exact constructor (the codec encodes
   tags, so they are digest-relevant). *)
let value_strict_eq (a : Value.t) (b : Value.t) : bool =
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Bool x, Value.Bool y -> x = y
  | Value.Vec u, Value.Vec v ->
    Int64.equal (Int64.bits_of_float u.Vec2.x) (Int64.bits_of_float v.Vec2.x)
    && Int64.equal (Int64.bits_of_float u.Vec2.y) (Int64.bits_of_float v.Vec2.y)
  | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.Vec _), _ -> false

let row_strict_eq (a : Tuple.t) (b : Tuple.t) : bool =
  Array.length a = Array.length b && Array.for_all2 value_strict_eq a b

let rows_strict_eq (a : Tuple.t array) (b : Tuple.t array) : bool =
  Array.length a = Array.length b && Array.for_all2 row_strict_eq a b

(* ------------------------------------------------------------------ *)
(* Random schemas and rows of schema arity: every type, plus mismatched
   tags (ints in float columns and vice versa — [Value.equal]-compatible
   but tag-distinct, exactly what sends a column to [Boxed]). *)

let gen_ty : Value.ty QCheck.Gen.t =
  QCheck.Gen.oneofl [ Value.TInt; Value.TFloat; Value.TBool; Value.TVec ]

let gen_schema : Schema.t QCheck.Gen.t =
  QCheck.Gen.(
    let* extra = list_size (int_range 0 5) gen_ty in
    let attrs =
      Schema.attr "key" Value.TInt
      :: List.mapi (fun i ty -> Schema.attr (Printf.sprintf "a%d" i) ty) extra
    in
    return (Schema.create attrs))

(* A value for a slot of declared type [ty]; sometimes deliberately
   mismatched in a way the engine actually produces (numeric widening). *)
let gen_value_for (ty : Value.ty) : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    let int_v = map (fun i -> Value.Int i) small_signed_int in
    let float_v = map (fun f -> Value.Float f) (float_range (-1e6) 1e6) in
    let bool_v = map (fun b -> Value.Bool b) bool in
    let vec_v =
      map2 (fun x y -> Value.Vec (Vec2.make x y)) (float_range (-100.) 100.)
        (float_range (-100.) 100.)
    in
    match ty with
    | Value.TInt -> frequency [ (4, int_v); (1, float_v) ]
    | Value.TFloat -> frequency [ (4, float_v); (1, int_v) ]
    | Value.TBool -> frequency [ (4, bool_v); (1, int_v) ]
    | Value.TVec -> vec_v)

(* Tag-exact values only: rows whose every non-vec column stays typed. *)
let gen_exact_value_for (ty : Value.ty) : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    match ty with
    | Value.TInt -> map (fun i -> Value.Int i) small_signed_int
    | Value.TFloat -> map (fun f -> Value.Float f) (float_range (-1e6) 1e6)
    | Value.TBool -> map (fun b -> Value.Bool b) bool
    | Value.TVec ->
      map2 (fun x y -> Value.Vec (Vec2.make x y)) (float_range (-100.) 100.)
        (float_range (-100.) 100.))

let gen_row (schema : Schema.t) : Tuple.t QCheck.Gen.t =
  QCheck.Gen.(
    let slot j = gen_value_for (Schema.ty_at schema j) in
    map Array.of_list (flatten_l (List.init (Schema.arity schema) slot)))

let gen_store_input : (Schema.t * Tuple.t array) QCheck.Gen.t =
  QCheck.Gen.(
    let* schema = gen_schema in
    let* rows = array_size (int_range 0 60) (gen_row schema) in
    return (schema, rows))

let law_roundtrip =
  QCheck.Test.make ~name:"of_tuples/to_array round-trips bit-identically" ~count:500
    (QCheck.make gen_store_input) (fun (schema, rows) ->
      let store = Colstore.of_tuples schema rows in
      rows_strict_eq rows (Colstore.to_array store) && Colstore.length store = Array.length rows)

(* The physical columns the decision phase and the checkpoint read: a
   column is typed exactly when every row carries the schema type's
   constructor, every cell reads the row's value, and [int_reader] answers
   only for [Ints]. *)
let law_col =
  QCheck.Test.make ~name:"col agrees with materialize on every slot" ~count:300
    (QCheck.make gen_store_input) (fun (schema, rows) ->
      let store = Colstore.of_tuples schema rows in
      let ids = Array.init (Array.length rows) Fun.id in
      List.for_all
        (fun j ->
          let cell i : Value.t =
            match Colstore.col store j with
            | Colstore.Floats a -> Value.Float a.(i)
            | Colstore.Ints a -> Value.Int a.(i)
            | Colstore.Bools a -> Value.Bool (Bytes.get a i <> '\000')
            | Colstore.Boxed a -> a.(i)
          in
          let typed =
            Schema.ty_at schema j <> Value.TVec
            && Array.for_all
              (fun row ->
                match (Schema.ty_at schema j, row.(j)) with
                | Value.TFloat, Value.Float _ | Value.TInt, Value.Int _ | Value.TBool, Value.Bool _
                  ->
                  true
                | _ -> false)
              rows
          in
          let boxed = match Colstore.col store j with Colstore.Boxed _ -> true | _ -> false in
          let ints_ok =
            match (Colstore.col store j, Colstore.int_reader store j) with
            | Colstore.Ints a, Some read -> Array.for_all (fun i -> read i = a.(i)) ids
            | Colstore.Ints _, None -> false
            | _, reader -> Option.is_none reader
          in
          boxed = not typed
          && ints_ok
          && Array.for_all (fun i -> value_strict_eq rows.(i).(j) (cell i)) ids)
        (List.init (Schema.arity schema) Fun.id))

(* Every row of the store has the schema arity: building or refreshing
   from a longer (let-extended) or shorter (projected) row raises rather
   than storing or dropping slots. *)
let test_arity_enforced () =
  let schema = Schema.create [ Schema.attr "key" Value.TInt; Schema.attr "x" Value.TFloat ] in
  let good = Array.init 4 (fun i -> [| Value.Int i; Value.Float (float_of_int i) |]) in
  let longer = Array.copy good and shorter = Array.copy good in
  longer.(2) <- [| Value.Int 2; Value.Float 2.; Value.Float 20. |];
  shorter.(2) <- [| Value.Int 2 |];
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted a row not of schema arity" what
    | exception Invalid_argument _ -> ()
  in
  raises "of_tuples, longer row" (fun () -> ignore (Colstore.of_tuples schema longer));
  raises "of_tuples, shorter row" (fun () -> ignore (Colstore.of_tuples schema shorter));
  let store = Colstore.of_tuples schema good in
  let clean = Delta.create schema in
  let dirty_x = Delta.create schema in
  Delta.record dirty_x ~attr:1 ~pos:2;
  List.iter
    (fun (what, delta, rows) ->
      raises what (fun () -> Colstore.refresh ?delta store rows);
      Alcotest.(check bool) (what ^ ": store unchanged") true
        (rows_strict_eq good (Colstore.to_array store)))
    [
      ("refresh, longer row", None, longer);
      ("refresh, shorter row", None, shorter);
      ("copy-on-write refresh, longer row", Some clean, longer);
      ("copy-on-write refresh, longer dirty row", Some dirty_x, longer);
      ("copy-on-write refresh, shorter row", Some dirty_x, shorter);
    ]

(* ------------------------------------------------------------------ *)
(* COW refresh: tag-exact rows, a mutation pass recorded in a delta.
   The refreshed store must land exactly on the new rows; clean columns
   must keep their physical arrays. *)

let gen_rect_input : (Schema.t * Tuple.t array) QCheck.Gen.t =
  QCheck.Gen.(
    let* schema = gen_schema in
    let arity = Schema.arity schema in
    let full_row =
      let slot j = gen_exact_value_for (Schema.ty_at schema j) in
      map Array.of_list (flatten_l (List.init arity slot))
    in
    let* rows = array_size (int_range 1 40) full_row in
    (* keys must be unique for a meaningful per-key delta *)
    Array.iteri (fun i row -> row.(0) <- Value.Int i) rows;
    return (schema, rows))

let law_refresh =
  QCheck.Test.make ~name:"refresh with the ground-truth delta lands on the new rows" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* schema, rows = gen_rect_input in
         let arity = Schema.arity schema in
         let* after =
           array_size (return (Array.length rows))
             (map Array.of_list
                (flatten_l (List.init arity (fun j -> gen_value_for (Schema.ty_at schema j)))))
         in
         (* mutate a random subset of attrs, keep keys fixed *)
         let* dirty = list_size (int_range 0 arity) (int_range 1 (max 1 (arity - 1))) in
         let after =
           Array.mapi
             (fun i row ->
               let out = Tuple.copy rows.(i) in
               List.iter (fun j -> if j < arity then out.(j) <- row.(j)) dirty;
               out)
             after
         in
         return (schema, rows, after)))
    (fun (schema, rows, after) ->
      let store = Colstore.of_tuples schema rows in
      let delta = Delta.of_tuples ~schema ~before:rows ~after in
      let before_cols = List.init (Schema.arity schema) (Colstore.col store) in
      Colstore.refresh ~delta store after;
      rows_strict_eq after (Colstore.to_array store)
      && (Delta.structural delta
         || List.for_all2
              (fun j col0 ->
                Delta.dirty_attr delta j
                ||
                (* clean column: physically the same representation *)
                match (col0, Colstore.col store j) with
                | Colstore.Floats a, Colstore.Floats b -> a == b
                | Colstore.Ints a, Colstore.Ints b -> a == b
                | Colstore.Bools a, Colstore.Bools b -> a == b
                | Colstore.Boxed a, Colstore.Boxed b -> a == b
                | _ -> false)
              (List.init (Schema.arity schema) Fun.id)
              before_cols))

let test_refresh_shares_clean_columns () =
  let schema =
    Schema.create
      [ Schema.attr "key" Value.TInt; Schema.attr "x" Value.TFloat; Schema.attr "hp" Value.TInt ]
  in
  let rows =
    Array.init 32 (fun i -> [| Value.Int i; Value.Float (float_of_int i *. 0.5); Value.Int 100 |])
  in
  let store = Colstore.of_tuples schema rows in
  let x0 = Colstore.col store 1 and hp0 = Colstore.col store 2 in
  (* dirty only "x" *)
  let after =
    Array.map (fun r -> [| r.(0); Value.Float (Value.to_float r.(1) +. 1.); r.(2) |]) rows
  in
  let delta = Delta.create schema in
  Array.iteri (fun i _ -> Delta.record delta ~attr:1 ~pos:i) rows;
  Colstore.refresh ~delta store after;
  Alcotest.(check bool) "lands on after" true (rows_strict_eq after (Colstore.to_array store));
  (match (hp0, Colstore.col store 2) with
  | Colstore.Ints a, Colstore.Ints b -> Alcotest.(check bool) "hp column shared" true (a == b)
  | _ -> Alcotest.fail "hp column not int-typed");
  (match (x0, Colstore.col store 1) with
  | Colstore.Floats a, Colstore.Floats b ->
    Alcotest.(check bool) "x column copied" true (a != b);
    (* the old array still holds the old tick's values for captured readers *)
    Alcotest.(check (float 0.) ) "old array untouched" 0.5 a.(1)
  | _ -> Alcotest.fail "x column not float-typed")

(* A snapshot is the simulation's rollback point: refreshing the live
   store, copy-on-write or structurally, must not change what it reads. *)
let test_snapshot_survives_refresh () =
  let schema =
    Schema.create
      [
        Schema.attr "key" Value.TInt; Schema.attr "x" Value.TFloat; Schema.attr "hp" Value.TInt;
        Schema.attr "alive" Value.TBool;
      ]
  in
  let rows =
    Array.init 32 (fun i ->
        [| Value.Int i; Value.Float (float_of_int i); Value.Int 100; Value.Bool (i mod 2 = 0) |])
  in
  let store = Colstore.of_tuples schema rows in
  let snap = Colstore.snapshot store in
  (* dirty "x" and "alive"; the new "x" mixes tags, so its column boxes *)
  let moved =
    Array.map
      (fun r ->
        let k = Value.to_int r.(0) in
        [| r.(0); (if k = 3 then Value.Int 7 else Value.Float (Value.to_float r.(1) +. 1.));
           r.(2); Value.Bool (k mod 2 = 1) |])
      rows
  in
  let delta = Delta.create schema in
  Array.iteri
    (fun i _ ->
      Delta.record delta ~attr:1 ~pos:i;
      Delta.record delta ~attr:3 ~pos:i)
    rows;
  Colstore.refresh ~delta store moved;
  Alcotest.(check bool) "live store lands on the moved rows" true
    (rows_strict_eq moved (Colstore.to_array store));
  Alcotest.(check bool) "snapshot keeps the rows after a copy-on-write refresh" true
    (rows_strict_eq rows (Colstore.to_array snap));
  (* a structural tick: one unit dies, the rest reorder *)
  let snap2 = Colstore.snapshot store in
  let fewer = Array.of_list (List.rev (List.tl (Array.to_list moved))) in
  let structural = Delta.create schema in
  Delta.record_structural structural;
  Colstore.refresh ~delta:structural store fewer;
  Alcotest.(check bool) "live store lands on the fewer rows" true
    (rows_strict_eq fewer (Colstore.to_array store));
  Alcotest.(check bool) "first snapshot still unchanged" true
    (rows_strict_eq rows (Colstore.to_array snap));
  Alcotest.(check bool) "second snapshot keeps the moved rows" true
    (rows_strict_eq moved (Colstore.to_array snap2))

(* ------------------------------------------------------------------ *)
(* Copy-on-write refresh as a patch: random non-structural deltas whose
   writes are tag-exact, tag-mismatched (the column must box), or the
   value already there; and deltas with no dirty position at all.  The
   refreshed store must be exactly the store [of_tuples] builds from the
   new rows — the same column kinds and cells — and a snapshot taken
   before must still read the old rows. *)

type write = Exact | Mismatched | Same

let mismatched_for (ty : Value.ty) : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    match ty with
    | Value.TFloat | Value.TBool -> map (fun i -> Value.Int i) small_signed_int
    | Value.TInt -> map (fun f -> Value.Float f) (float_range (-1e3) 1e3)
    | Value.TVec -> gen_exact_value_for Value.TVec)

let gen_patch_input =
  QCheck.Gen.(
    let* schema = gen_schema in
    let arity = Schema.arity schema in
    let* rows = array_size (int_range 1 40) (gen_row schema) in
    Array.iteri (fun i row -> row.(0) <- Value.Int i) rows;
    let n = Array.length rows in
    let gen_write =
      let* kind = frequencyl [ (3, Exact); (1, Mismatched); (1, Same) ] in
      let* attr = if arity > 1 then int_range 1 (arity - 1) else return 0 in
      let* pos = int_bound (n - 1) in
      let ty = Schema.ty_at schema attr in
      let+ v =
        match kind with
        | Exact -> gen_exact_value_for ty
        | Mismatched -> mismatched_for ty
        | Same -> return rows.(pos).(attr)
      in
      (attr, pos, v)
    in
    let* writes = frequency [ (1, return []); (5, list_size (int_range 1 12) gen_write) ] in
    return (schema, rows, writes))

let cells store j =
  Array.init (Colstore.length store) (fun i -> (Colstore.materialize store i).(j))

let same_kind (a : Colstore.col) (b : Colstore.col) =
  match (a, b) with
  | Colstore.Floats _, Colstore.Floats _
  | Colstore.Ints _, Colstore.Ints _
  | Colstore.Bools _, Colstore.Bools _
  | Colstore.Boxed _, Colstore.Boxed _ ->
    true
  | _ -> false

let law_refresh_patch =
  QCheck.Test.make ~name:"copy-on-write refresh patches to exactly of_tuples of the new rows"
    ~count:400 (QCheck.make gen_patch_input) (fun (schema, rows, writes) ->
      let store = Colstore.of_tuples schema rows in
      let snap = Colstore.snapshot store in
      let after = Array.map Tuple.copy rows in
      let delta = Delta.create schema in
      List.iter
        (fun (attr, pos, v) ->
          after.(pos).(attr) <- v;
          Delta.record delta ~attr ~pos)
        writes;
      Colstore.refresh ~delta store after;
      let expected = Colstore.of_tuples schema after in
      rows_strict_eq after (Colstore.to_array store)
      && List.for_all
           (fun j ->
             same_kind (Colstore.col expected j) (Colstore.col store j)
             && Array.for_all2 value_strict_eq (cells expected j) (cells store j))
           (List.init (Schema.arity schema) Fun.id)
      && rows_strict_eq rows (Colstore.to_array snap))

(* ------------------------------------------------------------------ *)
(* The state digest read from the store equals the digest of its rows,
   full and after an incremental refresh, on every kind of column and on
   the bit patterns a float or an int can hold at its edges; and the row
   digest is the CRC of the documented column-major [W.value] encoding. *)

let digest_schema =
  Schema.create
    [
      Schema.attr "key" Value.TInt; Schema.attr "f" Value.TFloat; Schema.attr "i" Value.TInt;
      Schema.attr "b" Value.TBool; Schema.attr "m" Value.TFloat; Schema.attr "v" Value.TVec;
    ]

let gen_edge_float =
  QCheck.Gen.(
    oneof [ float; oneofl [ nan; -.nan; -0.; 0.; infinity; neg_infinity; Float.min_float ] ])

let gen_edge_int = QCheck.Gen.(oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ])

(* Column "m" is float-typed but holds an [Int] in some row whenever there
   are rows, so it is [Boxed] by the tag-mismatch rule. *)
let gen_digest_row i : Tuple.t QCheck.Gen.t =
  QCheck.Gen.(
    let* f = gen_edge_float and* n = gen_edge_int and* b = bool and* m = gen_edge_float in
    let* x = gen_edge_float and* y = gen_edge_float in
    return
      [|
        Value.Int i; Value.Float f; Value.Int n; Value.Bool b;
        (if i = 0 then Value.Int (Float.to_int m) else Value.Float m); Value.Vec (Vec2.make x y);
      |])

let gen_digest_input =
  QCheck.Gen.(
    let* n = int_range 0 30 in
    let* rows = flatten_a (Array.init n gen_digest_row) in
    let* fresh = flatten_a (Array.init n (fun i -> gen_digest_row i)) in
    let* dirty = list_size (int_range 0 5) (int_range 1 5) in
    let* every = int_range 1 3 in
    return (rows, fresh, List.sort_uniq compare dirty, every))

(* CRC-32 of the encoding the codec documents: u32 count, u16 arity, then
   each column's [W.value] bytes down the rows. *)
let reference_digest (rows : Tuple.t array) : int =
  let b = Codec.W.create () in
  let arity = if Array.length rows = 0 then 0 else Array.length rows.(0) in
  Codec.W.u32 b (Array.length rows);
  Codec.W.u16 b arity;
  for j = 0 to arity - 1 do
    Array.iter (fun row -> Codec.W.value b row.(j)) rows
  done;
  Crc32.string (Codec.W.contents b)

let law_store_digest =
  QCheck.Test.make ~name:"store digest = units_digest of its rows, full and incremental"
    ~count:300 (QCheck.make gen_digest_input) (fun (rows, fresh, dirty, every) ->
      let store = Colstore.of_tuples digest_schema rows in
      let full = Codec.store_digest_cache store in
      let kinds_covered =
        Array.length rows = 0
        || (match List.init 6 (Colstore.col store) with
           | [ Colstore.Ints _; Colstore.Floats _; Colstore.Ints _; Colstore.Bools _;
               Colstore.Boxed _; Colstore.Boxed _ ] ->
             true
           | _ -> false)
      in
      (* rewrite the dirty attributes on every [every]-th row *)
      let after = Array.map Tuple.copy rows in
      let delta = Delta.create digest_schema in
      Array.iteri
        (fun i row ->
          if i mod every = 0 then
            List.iter
              (fun j ->
                row.(j) <- fresh.(i).(j);
                Delta.record delta ~attr:j ~pos:i)
              dirty)
        after;
      Colstore.refresh ~delta store after;
      let incr = Codec.store_digest_incremental full ~dirty store in
      kinds_covered
      && Codec.digest_of_cache full = Codec.units_digest rows
      && Codec.units_digest rows = reference_digest rows
      && Codec.digest_of_cache incr = Codec.units_digest (Colstore.to_array store)
      && Codec.digest_of_cache incr = Codec.units_digest after
      && Codec.digest_of_cache (Codec.store_digest_cache store) = Codec.units_digest after)

(* ------------------------------------------------------------------ *)
(* Relation view: map/filter preserve extension slots (satellite fix). *)

let test_relation_preserves_extensions () =
  let schema = Schema.create [ Schema.attr "key" Value.TInt; Schema.attr "x" Value.TFloat ] in
  let r = Relation.create schema in
  Relation.add r [| Value.Int 0; Value.Float 1.; Value.Float 10. |];
  Relation.add r [| Value.Int 1; Value.Float 2.; Value.Float 20.; Value.Bool true |];
  let mapped = Relation.map_rows (fun row -> row) r in
  Alcotest.(check int) "mapped ext slot count" 4 (Array.length (Relation.row mapped 1));
  Alcotest.(check bool) "mapped rows identical" true
    (rows_strict_eq (Relation.to_array r) (Relation.to_array mapped));
  let filtered = Relation.filter_rows (fun row -> Value.to_int row.(0) = 1 && Array.length row = 4) r in
  Alcotest.(check int) "filtered keeps the extended row" 1 (Relation.cardinality filtered);
  Alcotest.(check bool) "filtered row bit-identical" true
    (row_strict_eq (Relation.row r 1) (Relation.row filtered 0))

(* [Relation] stores copies and hands out copies: mutating the array given
   to [add], or any row a reader returned, leaves the relation as it was —
   let-extended and projected rows included. *)
let test_relation_isolation () =
  let schema = Schema.create [ Schema.attr "key" Value.TInt; Schema.attr "x" Value.TFloat ] in
  let given =
    [|
      [| Value.Int 0; Value.Float 1. |];
      [| Value.Int 1; Value.Float 2.; Value.Float 20.; Value.Bool true |];
      [| Value.Int 2 |];
    |]
  in
  let expected = Array.map Tuple.copy given in
  let r = Relation.create schema in
  Array.iter (Relation.add r) given;
  let scribble (row : Tuple.t) = Array.fill row 0 (Array.length row) (Value.Int (-7)) in
  let unchanged what =
    Alcotest.(check bool) what true (rows_strict_eq expected (Relation.to_array r))
  in
  Array.iter scribble given;
  unchanged "after mutating the rows given to add";
  for i = 0 to Relation.cardinality r - 1 do
    scribble (Relation.row r i)
  done;
  unchanged "after mutating rows from row";
  Relation.iter scribble r;
  unchanged "after mutating rows from iter";
  Relation.iteri (fun _ row -> scribble row) r;
  unchanged "after mutating rows from iteri";
  Relation.fold (fun () row -> scribble row) () r;
  unchanged "after mutating rows from fold";
  Array.iter scribble (Relation.to_array r);
  unchanged "after mutating rows from to_array";
  List.iter scribble (Relation.to_list r);
  unchanged "after mutating rows from to_list";
  let mapped = Relation.map_rows Fun.id r in
  Relation.iter scribble mapped;
  Array.iter scribble (Relation.to_array mapped);
  Alcotest.(check bool) "map_rows copy unchanged" true
    (rows_strict_eq expected (Relation.to_array mapped));
  unchanged "after mutating rows of a mapped copy"

(* ------------------------------------------------------------------ *)
(* 100k-unit population smoke test: building the store, column scans and
   the materializing view all behave at the sharding-target scale. *)

let test_100k_population () =
  let schema =
    Schema.create
      [
        Schema.attr "key" Value.TInt;
        Schema.attr "posx" Value.TFloat;
        Schema.attr "posy" Value.TFloat;
        Schema.attr "health" Value.TInt;
        Schema.attr "alive" Value.TBool;
      ]
  in
  let n = 100_000 in
  let rows =
    Array.init n (fun i ->
        [|
          Value.Int i;
          Value.Float (float_of_int (i mod 317));
          Value.Float (float_of_int (i mod 119));
          Value.Int (50 + (i mod 50));
          Value.Bool (i mod 7 <> 0);
        |])
  in
  let store = Colstore.of_tuples schema rows in
  Alcotest.(check int) "length" n (Colstore.length store);
  (* contiguous column scan equals the boxed sum *)
  let xs =
    match Colstore.col store 1 with
    | Colstore.Floats a -> a
    | _ -> Alcotest.fail "posx column not float-typed"
  in
  Alcotest.(check int) "column length" n (Array.length xs);
  let sum = ref 0. in
  for i = 0 to n - 1 do
    sum := !sum +. xs.(i)
  done;
  let boxed_sum = ref 0. in
  Array.iter (fun row -> boxed_sum := !boxed_sum +. Value.to_float row.(1)) rows;
  Alcotest.(check (float 0.)) "column sum" !boxed_sum !sum;
  (* spot-check the materializing view *)
  List.iter
    (fun i -> Alcotest.(check bool) "row" true (row_strict_eq rows.(i) (Colstore.materialize store i)))
    [ 0; 1; 4_999; 77_777; n - 1 ]

(* ------------------------------------------------------------------ *)
(* Checkpoint compatibility: a version-1 (row-major UNIT) file must load
   to the same state the version-2 columnar writer round-trips. *)


let encode_v1 ~schema (st : Checkpoint.state) : string =
  let b = Buffer.create 4096 in
  Codec.write_header b ~magic:"SGLCKPT\x01" ~version:1;
  let section tag fill =
    let w = Codec.W.create () in
    fill w;
    Codec.write_section b ~tag (Codec.W.contents w)
  in
  section "META" (fun w ->
      Codec.W.int w st.Checkpoint.tick;
      Codec.W.int w st.Checkpoint.seed;
      Codec.W.int w st.Checkpoint.cache_epoch;
      Codec.W.u32 w (Array.length st.Checkpoint.units));
  section "SCHM" (fun w -> Codec.W.schema w schema);
  section "UNIT" (fun w ->
      Codec.W.u32 w (Array.length st.Checkpoint.units);
      Array.iter (Codec.W.tuple w) st.Checkpoint.units);
  section "QUAR" (fun w ->
      Codec.W.u16 w (List.length st.Checkpoint.quarantined);
      List.iter (Codec.W.str w) st.Checkpoint.quarantined);
  section "CNTR" (fun w ->
      Codec.W.u16 w (List.length st.Checkpoint.counters);
      List.iter
        (fun (name, v) ->
          Codec.W.str w name;
          Codec.W.int w v)
        st.Checkpoint.counters);
  section "DEGR" (fun w ->
      Codec.W.u32 w (List.length st.Checkpoint.degradations);
      List.iter
        (fun (tick, from_, to_) ->
          Codec.W.int w tick;
          Codec.W.str w from_;
          Codec.W.str w to_)
        st.Checkpoint.degradations);
  Codec.write_section b ~tag:Codec.end_tag "";
  Buffer.contents b

let test_checkpoint_v1_compat () =
  let schema =
    Schema.create
      [ Schema.attr "key" Value.TInt; Schema.attr "x" Value.TFloat; Schema.attr "up" Value.TBool ]
  in
  let units =
    Array.init 64 (fun i ->
        (* mixed tags in the float column: forces a boxed column in v2 *)
        let x = if i mod 9 = 0 then Value.Int i else Value.Float (float_of_int i *. 1.5) in
        [| Value.Int i; x; Value.Bool (i mod 2 = 0) |])
  in
  let st =
    {
      Checkpoint.tick = 42;
      seed = 7;
      cache_epoch = 3;
      units;
      quarantined = [ "healer" ];
      counters = [ ("sim.deaths", 5) ];
      degradations = [ (17, "fused", "indexed") ];
    }
  in
  let dir = Filename.temp_file "sgl_ckpt_v1" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      (* v2 writer round-trips *)
      let p2 = Test_persist.save ~dir ~schema st in
      let got2 = Checkpoint.load ~schema p2 in
      Alcotest.(check bool) "v2 units round-trip" true (rows_strict_eq units got2.Checkpoint.units);
      Alcotest.(check int) "v2 tick" 42 got2.Checkpoint.tick;
      (* a v1 file (row-major UNIT) still loads, to the identical state *)
      let p1 = Filename.concat dir "ckpt-0000000041.sglc" in
      let oc = open_out_bin p1 in
      output_string oc (encode_v1 ~schema { st with Checkpoint.tick = 41 });
      close_out oc;
      let got1 = Checkpoint.load ~schema p1 in
      Alcotest.(check bool) "v1 units load identically" true
        (rows_strict_eq units got1.Checkpoint.units);
      Alcotest.(check int) "v1 tick" 41 got1.Checkpoint.tick;
      Alcotest.(check (list string)) "v1 quarantine" [ "healer" ] got1.Checkpoint.quarantined)

(* Golden files: a fixed small checkpoint, journal and flight dump.  The
   CRC-32 of each file's bytes pins its encoding.  The checkpoint state
   holds one column of each kind — pure floats, a float column holding
   one [Int] (so boxed), bools and vecs — so a changed promotion rule in
   [Colstore.of_tuples] shows here; the journal and the flight dump pin
   the shared [u32 len | payload | u32 crc] record frame. *)
let golden_checkpoint_crc = "e7e08d63"
let golden_journal_crc = "ae966a25"
let golden_flight_crc = "b725219e"

let golden_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt; Schema.attr "x" Value.TFloat; Schema.attr "hp" Value.TFloat;
      Schema.attr "up" Value.TBool; Schema.attr "aim" Value.TVec;
    ]

let golden_state () : Checkpoint.state =
  let units =
    Array.init 6 (fun i ->
        let f = float_of_int i in
        [|
          Value.Int (10 + i);
          Value.Float ((f *. 1.25) -. 3.);
          (if i = 4 then Value.Int 9 else Value.Float (100. -. (f *. 7.5)));
          Value.Bool (i mod 3 = 0);
          Value.Vec (Vec2.make (f *. 0.5) (-.f));
        |])
  in
  {
    Checkpoint.tick = 3;
    seed = 42;
    cache_epoch = 2;
    units;
    quarantined = [];
    counters = [ ("sim.deaths", 1) ];
    degradations = [];
  }

let golden_journal_entries = [ Test_persist.entry ~tick:1 ~digest:0xABCD; Test_persist.entry ~tick:2 ~digest:7 ]
let golden_flight_samples = List.init 3 (fun i -> Test_obs.mk_sample (i + 1))

(* Each writer's file bytes, written into [dir]. *)
let golden_files dir : [ `Checkpoint of string | `Journal of string | `Flight of string ] list =
  let schema = golden_schema () and st = golden_state () in
  let ckpt =
    Checkpoint.save ~dir ~fsync:false ~schema ~store:(Colstore.of_tuples schema st.Checkpoint.units) st
  in
  let w = Journal.create ~dir ~base:0 ~fsync:false in
  List.iter (Journal.append w) golden_journal_entries;
  Journal.close w;
  let fl = Flight.create ~capacity:8 in
  List.iter (Flight.record fl) golden_flight_samples;
  let flight = Filename.concat dir "golden.flight" in
  Flight.dump fl ~path:flight;
  let read p = In_channel.with_open_bin p In_channel.input_all in
  [ `Checkpoint (read ckpt); `Journal (read (Journal.path ~dir ~base:0)); `Flight (read flight) ]

let test_golden_files () =
  let schema = golden_schema () in
  let store = Colstore.of_tuples schema (golden_state ()).Checkpoint.units in
  (match (Colstore.col store 1, Colstore.col store 2, Colstore.col store 3, Colstore.col store 4) with
  | Colstore.Floats _, Colstore.Boxed _, Colstore.Bools _, Colstore.Boxed _ -> ()
  | _ -> Alcotest.fail "golden state does not hold one column of each kind");
  Test_persist.with_dir (fun dir ->
      List.iter
        (fun file ->
          let what, crc, bytes =
            match file with
            | `Checkpoint b -> ("checkpoint", golden_checkpoint_crc, b)
            | `Journal b -> ("journal", golden_journal_crc, b)
            | `Flight b -> ("flight dump", golden_flight_crc, b)
          in
          Alcotest.(check string) (what ^ " file CRC-32") crc (Crc32.to_hex (Crc32.string bytes)))
        (golden_files dir))

(* Byte fuzz over the three readers: a truncation or a single-byte flip
   of a golden file must load as the original state, as a prefix of the
   original records (a torn tail), or be refused with [Codec.Corrupt] or
   [Error] — never raise anything else. *)
let is_prefix (short : 'a list) (long : 'a list) : bool =
  List.length short <= List.length long && List.filteri (fun i _ -> i < List.length short) long = short

let fuzz_readers =
  QCheck.Test.make ~count:400 ~name:"readers survive truncations and byte flips"
    QCheck.(triple (int_range 0 2) bool (pair (int_range 0 100_000) (int_range 1 255)))
    (fun (which, truncate, (at, mask)) ->
      Test_persist.with_dir (fun dir ->
          let file = List.nth (golden_files dir) which in
          let mutate bytes =
            let at = at mod String.length bytes in
            if truncate then String.sub bytes 0 at
            else
              String.mapi (fun i c -> if i = at then Char.chr (Char.code c lxor mask) else c) bytes
          in
          let scratch = Filename.concat dir "fuzz" in
          Sys.mkdir scratch 0o755;
          match file with
          | `Checkpoint bytes -> (
            let p = Checkpoint.path ~dir:scratch ~tick:3 in
            Test_persist.write_file p (mutate bytes);
            match Checkpoint.load ~schema:(golden_schema ()) p with
            | st -> rows_strict_eq st.Checkpoint.units (golden_state ()).Checkpoint.units
            | exception Codec.Corrupt _ -> true)
          | `Journal bytes -> (
            Test_persist.write_file (Journal.path ~dir:scratch ~base:0) (mutate bytes);
            match Journal.read ~dir:scratch ~base:0 with
            | entries, _torn -> is_prefix entries golden_journal_entries
            | exception Codec.Corrupt _ -> true)
          | `Flight bytes -> (
            let p = Filename.concat scratch "golden.flight" in
            Test_persist.write_file p (mutate bytes);
            match Flight.load ~path:p with
            | Ok (samples, _torn) -> is_prefix samples golden_flight_samples
            | Error _ -> true)))

let suite =
  [
    ( "colstore",
      [
        qtest law_roundtrip;
        qtest law_col;
        Alcotest.test_case "rows must have the schema arity" `Quick test_arity_enforced;
        qtest law_refresh;
        Alcotest.test_case "refresh shares clean columns" `Quick test_refresh_shares_clean_columns;
        Alcotest.test_case "snapshot survives refresh" `Quick test_snapshot_survives_refresh;
        qtest law_refresh_patch;
        qtest law_store_digest;
        Alcotest.test_case "relation map/filter preserve extensions" `Quick
          test_relation_preserves_extensions;
        Alcotest.test_case "relation isolates callers from stored rows" `Quick
          test_relation_isolation;
        Alcotest.test_case "100k-unit population" `Quick test_100k_population;
        Alcotest.test_case "checkpoint v1 compatibility" `Quick test_checkpoint_v1_compat;
        Alcotest.test_case "checkpoint golden CRC" `Quick test_golden_files;
        qtest fuzz_readers;
      ] );
  ]
