(* The combination operator (+) of Section 4.2.

   (+)R groups an effect relation by its key and const attributes and folds
   every group's effect attributes with the attribute's tag (sum for
   stackable effects, max/min for non-stackable ones).  The operator is
   associative, commutative and idempotent (equation (3)); the qcheck suite
   verifies those laws against this implementation. *)

(* Group identity: the key together with every const attribute, so two rows
   merge exactly when the paper's GROUP BY clause would merge them. *)
let group_key schema (row : Tuple.t) : Value.t list =
  List.map (fun i -> Tuple.get row i) (Schema.const_indices schema)

let combine (r : Relation.t) : Relation.t =
  let schema = Relation.schema r in
  let effect_attrs = Schema.effect_indices schema in
  let groups : (Value.t list, Tuple.t) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Relation.iter
    (fun row ->
      let row = Tuple.restrict schema row in
      let k = group_key schema row in
      match Hashtbl.find_opt groups k with
      | None ->
        (* Seed the accumulator with neutral effect values, then merge the
           first contribution like any other, so f_j aggregates all rows. *)
        let acc = Tuple.copy row in
        List.iter (fun i -> Tuple.set acc i (Schema.neutral_of schema i)) effect_attrs;
        List.iter
          (fun i ->
            Tuple.set acc i (Schema.combine_values schema i (Tuple.get acc i) (Tuple.get row i)))
          effect_attrs;
        Hashtbl.add groups k acc;
        order := k :: !order
      | Some acc ->
        List.iter
          (fun i ->
            Tuple.set acc i (Schema.combine_values schema i (Tuple.get acc i) (Tuple.get row i)))
          effect_attrs)
    r;
  let out = Relation.create schema in
  List.iter (fun k -> Relation.add out (Hashtbl.find groups k)) (List.rev !order);
  out

(* R (+) S = (+)(R |+| S), per the paper's shorthand. *)
let union_combine (r : Relation.t) (s : Relation.t) : Relation.t =
  let schema = Relation.schema r in
  let both = Relation.create schema in
  Relation.iter (Relation.add both) r;
  Relation.iter (Relation.add both) s;
  combine both

(* Mutable per-key accumulator: the engine's O(1)-per-contribution
   implementation of (+).  Rows are identified by key alone, which is valid
   in the engine because const attributes are functionally determined by the
   key there. *)
module Acc = struct
  (* Keys are unit keys; the movement phase probes this table once per
     unit, so it is specialised to ints (no polymorphic hash or compare).
     The multiply-and-shift keeps strided keys apart in the low bits the
     table indexes by. *)
  module Key_tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash k = (k * 0x1E3779B97F4A7C15) lsr 31
  end)

  type t = {
    schema : Schema.t;
    effect_attrs : int list;
    table : Tuple.t Key_tbl.t;
    mutable order : int list;
    (* delta surface: effect attributes that received at least one
       contribution this tick (conservative for [add], exact for
       [add_attr]) — downstream phases use it to predict what a tick can
       possibly change before comparing values. *)
    touched : bool array;
  }

  let create schema =
    {
      schema;
      effect_attrs = Schema.effect_indices schema;
      table = Key_tbl.create 256;
      order = [];
      touched = Array.make (Schema.arity schema) false;
    }

  (* Merge the effect attributes of [row] into the accumulator. *)
  let add t (row : Tuple.t) =
    List.iter (fun i -> t.touched.(i) <- true) t.effect_attrs;
    let key = Tuple.key t.schema row in
    match Key_tbl.find_opt t.table key with
    | None ->
      let acc = Tuple.restrict t.schema (Tuple.copy row) in
      List.iter
        (fun i ->
          let neutral = Schema.neutral_of t.schema i in
          Tuple.set acc i (Schema.combine_values t.schema i neutral (Tuple.get row i)))
        t.effect_attrs;
      Key_tbl.add t.table key acc;
      t.order <- key :: t.order
    | Some acc ->
      List.iter
        (fun i ->
          Tuple.set acc i (Schema.combine_values t.schema i (Tuple.get acc i) (Tuple.get row i)))
        t.effect_attrs

  (* Contribute a single attribute's effect for [key]; the const part of the
     accumulator row is taken from [base] on first touch. *)
  let add_attr t ~base ~key attr v =
    t.touched.(attr) <- true;
    let acc =
      match Key_tbl.find_opt t.table key with
      | Some acc -> acc
      | None ->
        let acc = Tuple.restrict t.schema (Tuple.copy base) in
        List.iter (fun i -> Tuple.set acc i (Schema.neutral_of t.schema i)) t.effect_attrs;
        Key_tbl.add t.table key acc;
        t.order <- key :: t.order;
        acc
    in
    Tuple.set acc attr (Schema.combine_values t.schema attr (Tuple.get acc attr) v)

  let find_opt t key = Key_tbl.find_opt t.table key

  let to_relation t =
    let out = Relation.create t.schema in
    List.iter (fun k -> Relation.add out (Key_tbl.find t.table k)) (List.rev t.order);
    out

  let iter f t = List.iter (fun k -> f (Key_tbl.find t.table k)) (List.rev t.order)
  let cardinality t = Key_tbl.length t.table

  let touched_attr t attr = t.touched.(attr)

  let touched_attrs t =
    let out = ref [] in
    for i = Array.length t.touched - 1 downto 0 do
      if t.touched.(i) then out := i :: !out
    done;
    !out
end
