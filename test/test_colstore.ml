(* The columnar store (struct-of-arrays) behind [Relation]: the
   materializing view must reproduce every row bit-identically — same
   [Value.t] constructor tags, extensions and short rows included — and
   the copy-on-write [refresh] must land exactly on the new row array
   while keeping clean columns physically shared. *)

open Sgl_util
open Sgl_relalg

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
(* Random schemas and rows: every type, plus mismatched tags (ints in
   float columns and vice versa — [Value.equal]-compatible but
   tag-distinct, exactly the promotion hazard), let-extension overflow
   and short (projected) rows. *)

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

(* Tag-exact values only: rows that must stay rectangular (one typed
   array per column). *)
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
    let arity = Schema.arity schema in
    let slot j = gen_value_for (Schema.ty_at schema j) in
    let* shape = int_range 0 9 in
    let* ext = list_size (int_range 1 3) (gen_value_for Value.TFloat) in
    let full = List.init arity slot in
    let* base = flatten_l full in
    match shape with
    | 0 | 1 ->
      (* let-extension overflow *)
      return (Array.of_list (base @ ext))
    | 2 when arity > 1 ->
      (* short (projected) row *)
      let* keep = int_range 1 (arity - 1) in
      return (Array.of_list (List.filteri (fun j _ -> j < keep) base))
    | _ -> return (Array.of_list base))

let gen_store_input : (Schema.t * Tuple.t array) QCheck.Gen.t =
  QCheck.Gen.(
    let* schema = gen_schema in
    let* rows = array_size (int_range 0 60) (gen_row schema) in
    return (schema, rows))

let law_roundtrip =
  QCheck.Test.make ~name:"of_tuples/to_array round-trips bit-identically" ~count:500
    (QCheck.make gen_store_input) (fun (schema, rows) ->
      let store = Colstore.of_tuples schema rows in
      rows_strict_eq rows (Colstore.to_array store)
      && Colstore.length store = Array.length rows
      && Array.for_all2
           (fun row i -> Colstore.row_len store i = Array.length row)
           rows
           (Array.init (Array.length rows) Fun.id))

let law_get =
  QCheck.Test.make ~name:"get agrees with materialize on every slot" ~count:300
    (QCheck.make gen_store_input) (fun (schema, rows) ->
      let store = Colstore.of_tuples schema rows in
      Array.for_all
        (fun i ->
          let m = Colstore.materialize store i in
          Array.for_all
            (fun j -> value_strict_eq m.(j) (Colstore.get store i j))
            (Array.init (Array.length m) Fun.id))
        (Array.init (Array.length rows) Fun.id))

let law_float_reader =
  QCheck.Test.make ~name:"float_reader agrees with Value.to_float" ~count:300
    (QCheck.make gen_store_input) (fun (schema, rows) ->
      let store = Colstore.of_tuples schema rows in
      List.for_all
        (fun j ->
          match Colstore.float_reader store j with
          | None -> true
          | Some read ->
            Array.for_all
              (fun i ->
                (* short rows leave the slot unspecified — skip those *)
                Array.length rows.(i) <= j
                ||
                let direct = read i in
                let boxed = Value.to_float (Colstore.get store i j) in
                Int64.equal (Int64.bits_of_float direct) (Int64.bits_of_float boxed))
              (Array.init (Array.length rows) Fun.id))
        (List.init (Schema.arity schema) Fun.id))

(* ------------------------------------------------------------------ *)
(* COW refresh: rectangular rows, a mutation pass recorded in a delta.
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
      && ((not (Colstore.rectangular store)) || Delta.structural delta
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
  Array.iteri (fun i _ -> Delta.record delta ~attr:1 ~key:i) rows;
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
  Alcotest.(check bool) "rectangular" true (Colstore.rectangular store);
  (* contiguous column scan equals the boxed sum *)
  let read = Option.get (Colstore.float_reader store 1) in
  let sum = ref 0. in
  for i = 0 to n - 1 do
    sum := !sum +. read i
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

module Codec = Sgl_persist.Codec
module Checkpoint = Sgl_persist.Checkpoint

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
      let p2 = Checkpoint.save ~dir ~fsync:false ~schema st in
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

let suite =
  [
    ( "colstore",
      [
        qtest law_roundtrip;
        qtest law_get;
        qtest law_float_reader;
        qtest law_refresh;
        Alcotest.test_case "refresh shares clean columns" `Quick test_refresh_shares_clean_columns;
        Alcotest.test_case "relation map/filter preserve extensions" `Quick
          test_relation_preserves_extensions;
        Alcotest.test_case "100k-unit population" `Quick test_100k_population;
        Alcotest.test_case "checkpoint v1 compatibility" `Quick test_checkpoint_v1_compat;
      ] );
  ]
