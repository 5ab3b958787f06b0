(* Multiset relations.

   The environment E is a multiset (Section 4: "it need not have keys"), and
   intermediate script relations carry let-extended rows, so rows may be
   longer than the schema arity; the schema always describes a prefix.

   Storage is columnar (struct-of-arrays, see {!Colstore}): one typed array
   per schema attribute plus a boxed overflow column for let-extension
   slots.  The row-oriented API below is a materializing view over it — a
   returned [Tuple.t] is a fresh boxed copy of the row, bit-identical to
   the row as added, and mutating it does not write back. *)

open Sgl_util

type t = { store : Colstore.t }

let create schema = { store = Colstore.create schema }

let of_tuples schema tuples =
  let t = create schema in
  List.iter (Colstore.append t.store) tuples;
  t

let of_rows schema rows =
  let t = create schema in
  Varray.iter (Colstore.append t.store) rows;
  t

let schema t = Colstore.schema t.store
let cardinality t = Colstore.length t.store
let add t row = Colstore.append t.store row
let row t i = Colstore.materialize t.store i
let iter f t = Colstore.iter f t.store
let iteri f t = Colstore.iteri f t.store
let fold f init t = Colstore.fold f init t.store
let to_list t = List.init (cardinality t) (row t)
let to_array t = Colstore.to_array t.store

let map_rows f t =
  let out = create (schema t) in
  iter (fun row -> add out (f row)) t;
  out

let filter_rows p t =
  let out = create (schema t) in
  iter (fun row -> if p row then add out row) t;
  out

module Col = struct
  let store t = t.store
  let float_reader t j = Colstore.float_reader t.store j
  let int_reader t j = Colstore.int_reader t.store j

  let float_get t ~attr ~row =
    match Colstore.col t.store attr with
    | Colstore.Floats a ->
      if row < 0 || row >= Colstore.length t.store then invalid_arg "Relation.Col.float_get";
      a.(row)
    | _ -> Value.to_float (Colstore.get t.store row attr)

  let unsafe_float_get t ~attr ~row =
    match Colstore.col t.store attr with
    | Colstore.Floats a -> Array.unsafe_get a row
    | _ -> Value.to_float (Colstore.get t.store row attr)

  let iter_floats t j f =
    match Colstore.float_reader t.store j with
    | Some read ->
      for i = 0 to Colstore.length t.store - 1 do
        f i (read i)
      done
    | None ->
      for i = 0 to Colstore.length t.store - 1 do
        f i (Value.to_float (Colstore.get t.store i j))
      done
end

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
