(* Multiset relations.

   The environment E is a multiset (Section 4: "it need not have keys"), and
   intermediate script relations carry let-extended rows, so rows may be
   longer than the schema arity; the schema always describes a prefix.

   Storage is a growable array of rows.  [add] stores a copy of the
   caller's row and every reader hands out a copy, so no caller ever holds
   a stored row. *)

open Sgl_util

type t = { schema : Schema.t; rows : Tuple.t Varray.t }

let create schema = { schema; rows = Varray.create [||] }
let add t row = Varray.push t.rows (Tuple.copy row)

let of_tuples schema tuples =
  let t = create schema in
  List.iter (add t) tuples;
  t

let of_rows schema rows =
  let t = create schema in
  Varray.iter (add t) rows;
  t

let schema t = t.schema
let cardinality t = Varray.length t.rows
let row t i = Tuple.copy (Varray.get t.rows i)
let iter f t = Varray.iter (fun r -> f (Tuple.copy r)) t.rows
let iteri f t = Varray.iteri (fun i r -> f i (Tuple.copy r)) t.rows
let fold f init t = Varray.fold_left (fun acc r -> f acc (Tuple.copy r)) init t.rows
let to_list t = List.init (cardinality t) (row t)
let to_array t = Array.init (cardinality t) (row t)

let map_rows f t =
  let out = create t.schema in
  iter (fun row -> add out (f row)) t;
  out

let filter_rows p t =
  let out = create t.schema in
  iter (fun row -> if p row then add out row) t;
  out

(* Multiset equality up to row order: sort exact row keys and compare.
   Floats are keyed by every bit (hex), so a last-bit difference shows.
   The key identifies what [Value.equal] identifies: [-0.] with [0.], and
   [Int n] with [Float (float n)] for |n| <= 2^53, where the conversion
   is exact.  A NaN is keyed by its bits, so it matches the same NaN.  Only used by
   tests and assertions, so the cost is acceptable. *)
let equal_as_multiset a b =
  let num f = Printf.sprintf "%h" (if f = 0. then 0. else f) in
  let value = function
    | Value.Float f -> num f
    | Value.Int n when abs n <= 1 lsl 53 -> num (float_of_int n)
    | Value.Int n -> string_of_int n
    | Value.Bool b -> string_of_bool b
    | Value.Vec v -> Printf.sprintf "<%s %s>" (num v.Vec2.x) (num v.Vec2.y)
  in
  let keyed r =
    List.sort compare
      (List.map (fun t -> String.concat ";" (Array.to_list (Array.map value t))) (to_list r))
  in
  cardinality a = cardinality b && keyed a = keyed b

let pp ppf t =
  Fmt.pf ppf "@[<v>%a (%d rows)@,%a@]" Schema.pp (schema t) (cardinality t)
    Fmt.(list ~sep:cut Tuple.pp)
    (to_list t)
