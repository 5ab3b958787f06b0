(* The post-processing step (Example 4.1): apply the tick's combined
   effects to the unit state.

   The step is itself a query — "SELECT u.key, ..., u.health - u.damage +
   u.inaura AS health ... FROM E u" — so we keep it programmable: each
   state attribute gets an update expression over [u] (the old state) and
   [e] (the unit's combined-effect row).  Movement is excluded here; the
   movement phase (Section 6) owns positions. *)

open Sgl_relalg

type t = {
  updates : (int * Expr.t) list; (* state attr := expr(u = old state, e = effects) *)
  remove_when : Expr.t; (* e.g. health <= 0: the unit dies *)
}

exception Postprocess_error of string

let make ~(schema : Schema.t) ~(updates : (int * Expr.t) list) ~(remove_when : Expr.t) : t =
  List.iter
    (fun (i, _) ->
      if Schema.tag_at schema i <> Schema.Const then
        raise
          (Postprocess_error
             (Fmt.str "post-processing writes state, but %S is an effect attribute"
                (Schema.name_at schema i))))
    updates;
  { updates; remove_when }

(* Effect attributes the step consumes: the [e]-slots of its update
   expressions and death rule.  The static analyzer treats any other
   effect attribute a script writes as a dead contribution. *)
let reads (t : t) : int list =
  List.sort_uniq compare
    (List.concat_map (fun (_, e) -> Expr.e_slots e) t.updates @ Expr.e_slots t.remove_when)

type outcome = {
  survivors : Tuple.t array;
  positions : int array;
  dead : Tuple.t array;
}

(* Apply the step.  Unit [p]'s combined effects are slot [p] of [acc]:
   initialized zeros folded with whatever the slot collected (max-tagged
   attrs see max(0, contribution), matching the paper's initialize-to-zero
   semantics), written into one scratch row the call reuses; units without
   a slot read one shared, read-only zero effects row.

   Committed rows are immutable and shared: a unit keeps its input row
   (physically) unless an update writes a value that is not
   [Value.identical] to the old one, and then gets one fresh copy holding
   every change.  Every such write is recorded against [delta] (attribute
   and unit position), so a position is recorded exactly when its row is
   copied: the record of which rows the tick owns, and the column set the
   index cache, the incremental digest and the column store trust — a
   change this phase fails to record would let a stale structure survive. *)
let apply ~(delta : Delta.t) (t : t) ~(schema : Schema.t) ~(rand_for : key:int -> int -> int)
    ~(units : Tuple.t array) ~(acc : Combine.Acc.t) : outcome =
  Sgl_util.Fault_inject.hit "post.apply";
  match (t.updates, t.remove_when) with
  | [], Expr.Const (Value.Bool false) ->
    (* nothing to write and nobody dies *)
    { survivors = Array.copy units; positions = [||]; dead = [||] }
  | updates, remove_when ->
    let n = Array.length units in
    let zero = Some (Tuple.create schema) in
    let scratch = Tuple.create schema in
    let effects = Some scratch in
    let zeros =
      List.map (fun i -> (i, Value.zero_of (Schema.ty_at schema i))) (Schema.effect_indices schema)
    in
    let survivors = Array.make n [||] and n_alive = ref 0 in
    let positions = ref [||] and dead = ref [] in
    for p = 0 to n - 1 do
      let u = units.(p) in
      let key = Tuple.key schema u in
      let e =
        match Combine.Acc.find_opt acc p with
        | None -> zero
        | Some contributions ->
          List.iter
            (fun (i, z) -> scratch.(i) <- Schema.combine_values schema i z contributions.(i))
            zeros;
          effects
      in
      let ctx = { Expr.u; e; rand = rand_for ~key } in
      let row = ref u in
      List.iter
        (fun (i, expr) ->
          let v = Expr.eval ctx expr in
          if not (Value.identical v (Tuple.get u i)) then begin
            Delta.record delta ~attr:i ~pos:p;
            if !row == u then row := Tuple.copy u;
            Tuple.set !row i v
          end)
        updates;
      if Expr.eval_bool ctx remove_when then begin
        (* the first death ends the identity: survivors so far sit at
           their own positions *)
        if Array.length !positions = 0 then positions := Array.init n Fun.id;
        dead := !row :: !dead
      end
      else begin
        if Array.length !positions > 0 then !positions.(!n_alive) <- p;
        survivors.(!n_alive) <- !row;
        incr n_alive
      end
    done;
    {
      survivors = (if !n_alive = n then survivors else Array.sub survivors 0 !n_alive);
      positions = !positions;
      dead = Array.of_list (List.rev !dead);
    }

(* ------------------------------------------------------------------ *)
(* A ready-made specification for battle-style schemas: the Example 4.1
   query minus movement.  The cooldown restarts from the unit's own
   "reload" attribute when it acted this tick. *)
let battle_spec ~(schema : Schema.t) : t =
  let a name = Schema.find schema name in
  let health = a "health"
  and max_health = a "max_health"
  and cooldown = a "cooldown"
  and damage = a "damage"
  and inaura = a "inaura"
  and reload = a "reload"
  and weaponused = a "weaponused" in
  let open Expr in
  let new_health =
    (* min(max_health, health - damage + inaura), never healed beyond the
       initial health (Section 3.2) *)
    MinOf
      ( UAttr max_health,
        Binop (Add, Binop (Sub, UAttr health, EAttr damage), EAttr inaura) )
  in
  let new_cooldown =
    (* max(0, cooldown - 1) + weaponused * u.reload *)
    Binop
      ( Add,
        MaxOf (Const (Value.Int 0), Binop (Sub, UAttr cooldown, Const (Value.Int 1))),
        Binop (Mul, EAttr weaponused, UAttr reload) )
  in
  make ~schema
    ~updates:[ (health, new_health); (cooldown, new_cooldown) ]
    ~remove_when:(Cmp (Le, UAttr health, Binop (Add, EAttr damage, Neg (EAttr inaura))))
