(* Struct-of-arrays storage for the unit relation.

   Layout: one array per schema attribute, indexed by row id, every row of
   exactly the schema arity.  A column is typed ([Floats]/[Ints]/[Bools])
   when every value carries its schema type's constructor and [Boxed]
   otherwise — materialized rows must reproduce the exact [Value.t] tags
   (the codec encodes tags, so [Int 0] and [Float 0.] are digest-distinct
   even though [Value.equal] identifies them). *)

open Sgl_util

type col =
  | Floats of float array
  | Ints of int array
  | Bools of Bytes.t
  | Boxed of Value.t array

type t = {
  schema : Schema.t;
  arity : int;
  mutable len : int;
  mutable cols : col array; (* one per schema attribute, each [len] long *)
}

let tel_column_copies = Telemetry.counter "relalg.column_copies"
let tel_cow_hits = Telemetry.counter "persist.snapshot_cow_hits"

let check_arity who arity (rows : Tuple.t array) =
  for i = 0 to Array.length rows - 1 do
    let len = Array.length (Array.unsafe_get rows i) in
    if len <> arity then
      invalid_arg (Printf.sprintf "%s: a row of length %d, schema arity %d" who len arity)
  done

(* Build fresh columns for the attributes [js] from boxed rows, in one
   row-major pass (a pass per column re-reads every row: 1.7x slower on
   the 12k-unit battle's 18-attribute rows).  A column starts in its schema type's
   representation; the first value without that constructor boxes it,
   re-reading the rows before it.  Never mutates a previous array, so
   readers captured at an earlier tick keep seeing that tick's values. *)
let build_cols schema (rows : Tuple.t array) (js : int array) : col array =
  let n = Array.length rows in
  let cols =
    Array.map
      (fun j ->
        match Schema.ty_at schema j with
        | Value.TFloat -> Floats (Array.make n 0.)
        | Value.TInt -> Ints (Array.make n 0)
        | Value.TBool -> Bools (Bytes.make n '\000')
        | Value.TVec -> Boxed (Array.make n (Value.Int 0)))
      js
  in
  let box k i =
    let a = Array.make n (Value.Int 0) in
    for i' = 0 to i - 1 do
      a.(i') <- rows.(i').(js.(k))
    done;
    cols.(k) <- Boxed a;
    a
  in
  for i = 0 to n - 1 do
    let row = rows.(i) in
    for k = 0 to Array.length js - 1 do
      match (cols.(k), row.(js.(k))) with
      | Floats a, Value.Float f -> a.(i) <- f
      | Ints a, Value.Int v -> a.(i) <- v
      | Bools a, Value.Bool b -> Bytes.set a i (if b then '\001' else '\000')
      | Boxed a, v -> a.(i) <- v
      | (Floats _ | Ints _ | Bools _), v -> (box k i).(i) <- v
    done
  done;
  cols

let of_tuples schema rows =
  let arity = Schema.arity schema in
  check_arity "Colstore.of_tuples" arity rows;
  let cols = build_cols schema rows (Array.init arity Fun.id) in
  { schema; arity; len = Array.length rows; cols }

let schema t = t.schema
let length t = t.len

let col_get t j i =
  match t.cols.(j) with
  | Floats a -> Value.Float a.(i)
  | Ints a -> Value.Int a.(i)
  | Bools a -> Value.Bool (Bytes.get a i <> '\000')
  | Boxed a -> a.(i)

let materialize t i =
  if i < 0 || i >= t.len then invalid_arg "Colstore.materialize";
  Array.init t.arity (fun j -> col_get t j i)

let to_array t = Array.init t.len (materialize t)
let col t j = t.cols.(j)

let int_reader t j =
  match t.cols.(j) with
  | Ints a -> Some (fun i -> Array.unsafe_get a i)
  | Floats _ | Bools _ | Boxed _ -> None

(* Fresh copies of the columns [js] with only the positions [ps]
   (ascending) rewritten from [rows], in one row-major pass as in
   [build_cols].  A column comes back [None] when a written value lacks
   its constructor, or when it is a [Boxed] column of a non-vec type (a
   write may have removed its last mismatched value): the caller rebuilds
   those under the typed-or-[Boxed] rule. *)
let patch_cols schema (rows : Tuple.t array) (ps : int array) (js : int array) (cols : col array) :
    col option array =
  let np = Array.length ps in
  if np > 0 && ps.(np - 1) >= Array.length rows then Array.map (fun _ -> None) js
  else begin
    let fresh =
      Array.map
        (fun j ->
          match cols.(j) with
          | Floats a -> Some (Floats (Array.copy a))
          | Ints a -> Some (Ints (Array.copy a))
          | Bools a -> Some (Bools (Bytes.copy a))
          | Boxed a when Schema.ty_at schema j = Value.TVec -> Some (Boxed (Array.copy a))
          | Boxed _ -> None)
        js
    in
    for q = 0 to np - 1 do
      let i = ps.(q) in
      let row = rows.(i) in
      for k = 0 to Array.length js - 1 do
        match (fresh.(k), row.(js.(k))) with
        | None, _ -> ()
        | Some (Floats a), Value.Float f -> a.(i) <- f
        | Some (Ints a), Value.Int v -> a.(i) <- v
        | Some (Bools a), Value.Bool b -> Bytes.set a i (if b then '\001' else '\000')
        | Some (Boxed a), v -> a.(i) <- v
        | Some (Floats _ | Ints _ | Bools _), _ -> fresh.(k) <- None
      done
    done;
    fresh
  end

let refresh ?delta t rows =
  check_arity "Colstore.refresh" t.arity rows;
  let rebuild () =
    t.len <- Array.length rows;
    t.cols <- build_cols t.schema rows (Array.init t.arity Fun.id);
    Telemetry.Counter.add tel_column_copies t.arity
  in
  let body () =
    match delta with
    | None -> rebuild ()
    | Some d ->
      if Delta.structural d || Array.length rows <> t.len then rebuild ()
      else begin
        (* Copy-on-write: a dirty column becomes its old array with the
           dirty positions rewritten, and the columns no patch can keep
           rebuild from the rows in one pass.  Past half the positions
           written, every dirty column rebuilds: that reads barely more
           rows than the patch and skips the copies (with every position
           of 12k rows dirty, patching timed about 1.3x slower). *)
        let dirty =
          Array.of_list (List.filter (Delta.dirty_attr d) (List.init t.arity Fun.id))
        in
        let patched =
          if 2 * Delta.dirty_key_count d > t.len then Array.map (fun _ -> None) dirty
          else patch_cols t.schema rows (Delta.dirty_positions d) dirty t.cols
        in
        Array.iteri (fun k c -> Option.iter (fun c -> t.cols.(dirty.(k)) <- c) c) patched;
        let unpatched =
          Array.of_list
            (List.filteri (fun k _ -> Option.is_none patched.(k)) (Array.to_list dirty))
        in
        let fresh = build_cols t.schema rows unpatched in
        Array.iteri (fun k j -> t.cols.(j) <- fresh.(k)) unpatched;
        Telemetry.Counter.add tel_column_copies (Array.length dirty);
        Telemetry.Counter.add tel_cow_hits (t.arity - Array.length dirty)
      end
  in
  if Telemetry.Span.enabled () then Telemetry.Span.with_ ~cat:"col" "col:refresh" body
  else body ()

let snapshot t = { t with cols = Array.copy t.cols }
