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
  Array.iter
    (fun row ->
      if Array.length row <> arity then
        invalid_arg
          (Printf.sprintf "%s: a row of length %d, schema arity %d" who (Array.length row) arity))
    rows

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
        let dirty = Array.of_list (List.filter (Delta.dirty_attr d) (List.init t.arity Fun.id)) in
        let fresh = build_cols t.schema rows dirty in
        Array.iteri (fun k j -> t.cols.(j) <- fresh.(k)) dirty;
        Telemetry.Counter.add tel_column_copies (Array.length dirty);
        Telemetry.Counter.add tel_cow_hits (t.arity - Array.length dirty)
      end
  in
  if Telemetry.Span.enabled () then Telemetry.Span.with_ ~cat:"col" "col:refresh" body
  else body ()

let snapshot t = { t with cols = Array.copy t.cols }
