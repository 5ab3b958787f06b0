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

(* The engine's accumulator for (+): one slot per position in the tick's
   unit array, so a contribution costs an array load and a producer that
   knows its target's position (every producer in the engine does) never
   hashes a key.  Slots are per unit, not per (key, const attributes)
   group: in the engine a unit's const attributes are its own.  One
   accumulator lives as long as its simulation; [reset] empties it in
   O(touched) and grows it only when the population does. *)
module Acc = struct
  type t = {
    schema : Schema.t;
    arity : int;
    neutrals : (int * Value.t) list; (* every effect attribute, with its neutral value *)
    (* by position: the slot's accumulator row, or [||] while untouched *)
    mutable slots : Tuple.t array;
    (* the touched positions, first touch first: [order.(0 .. n_touched - 1)];
       [reset] walks them, [to_relation] keeps their order *)
    mutable order : int array;
    mutable n_touched : int;
  }

  let create schema ~positions =
    {
      schema;
      arity = Schema.arity schema;
      neutrals = List.map (fun i -> (i, Schema.neutral_of schema i)) (Schema.effect_indices schema);
      slots = Array.make positions [||];
      order = Array.make positions 0;
      n_touched = 0;
    }

  let reset t ~positions =
    for j = 0 to t.n_touched - 1 do
      t.slots.(t.order.(j)) <- [||]
    done;
    t.n_touched <- 0;
    if Array.length t.slots < positions then begin
      t.slots <- Array.make positions [||];
      t.order <- Array.make positions 0
    end

  (* Contribute a single attribute's effect to position [pos]; on the
     slot's first touch its const part is the schema prefix of [base]. *)
  let add_attr t ~(base : Tuple.t) ~pos attr v =
    let acc = t.slots.(pos) in
    let acc =
      if Array.length acc > 0 then acc
      else begin
        let acc = Array.sub base 0 t.arity in
        List.iter (fun (i, neutral) -> acc.(i) <- neutral) t.neutrals;
        t.slots.(pos) <- acc;
        t.order.(t.n_touched) <- pos;
        t.n_touched <- t.n_touched + 1;
        acc
      end
    in
    acc.(attr) <- Schema.combine_values t.schema attr acc.(attr) v

  let find_opt t pos =
    if pos < Array.length t.slots && Array.length t.slots.(pos) > 0 then Some t.slots.(pos)
    else None

  let to_relation t =
    let out = Relation.create t.schema in
    for j = 0 to t.n_touched - 1 do
      Relation.add out t.slots.(t.order.(j))
    done;
    out
end
