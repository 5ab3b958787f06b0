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

(* The unit's combined-effect row: initialized zeros folded with whatever
   the accumulator collected (max-tagged attrs see max(0, contribution),
   matching the paper's initialize-to-zero semantics). *)
let effects_row (schema : Schema.t) (acc : Combine.Acc.t) (key : int) : Tuple.t =
  let row = Tuple.create schema in
  (match Combine.Acc.find_opt acc key with
  | None -> ()
  | Some contributions ->
    List.iter
      (fun i ->
        let zero = Value.zero_of (Schema.ty_at schema i) in
        Tuple.set row i (Schema.combine_values schema i zero (Tuple.get contributions i)))
      (Schema.effect_indices schema));
  row

type outcome = {
  survivors : Tuple.t array;
  dead : Tuple.t array;
  owned : bool array;
}

(* Apply the step.  Committed rows are immutable and shared: a unit keeps
   its input row (physically) unless an update writes a value that is not
   [Value.identical] to the old one, and then gets one fresh copy holding
   every change.  Units without an accumulator entry read one shared,
   read-only zero effects row.  When [delta] is given, every such write is
   recorded against it (attribute and unit key) — the mutation-side half of
   the cross-tick index cache's contract, and the column set the
   incremental digest and the columnar mirror re-encode: a change this
   phase fails to record would let a stale structure survive. *)
let apply ?(delta : Delta.t option) (t : t) ~(schema : Schema.t)
    ~(rand_for : key:int -> int -> int) ~(units : Tuple.t array) ~(acc : Combine.Acc.t) :
    outcome =
  Sgl_util.Fault_inject.hit "post.apply";
  match (t.updates, t.remove_when) with
  | [], Expr.Const (Value.Bool false) ->
    (* nothing to write and nobody dies *)
    { survivors = Array.copy units; dead = [||]; owned = [||] }
  | updates, remove_when ->
    let n = Array.length units in
    let zero = Some (Tuple.create schema) in
    let survivors = Array.make n [||] and n_alive = ref 0 in
    let dead = ref [] and owned = ref [||] in
    Array.iter
      (fun u ->
        let key = Tuple.key schema u in
        let e =
          match Combine.Acc.find_opt acc key with
          | None -> zero
          | Some _ -> Some (effects_row schema acc key)
        in
        let ctx = { Expr.u; e; rand = rand_for ~key } in
        let row = ref u in
        List.iter
          (fun (i, expr) ->
            let v = Expr.eval ctx expr in
            if not (Value.identical v (Tuple.get u i)) then begin
              (match delta with Some d -> Delta.record d ~attr:i ~key | None -> ());
              if !row == u then row := Tuple.copy u;
              Tuple.set !row i v
            end)
          updates;
        if Expr.eval_bool ctx remove_when then dead := !row :: !dead
        else begin
          if !row != u then begin
            if !owned == [||] then owned := Array.make n false;
            !owned.(!n_alive) <- true
          end;
          survivors.(!n_alive) <- !row;
          incr n_alive
        end)
      units;
    {
      survivors = (if !n_alive = n then survivors else Array.sub survivors 0 !n_alive);
      dead = Array.of_list (List.rev !dead);
      owned = !owned;
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
