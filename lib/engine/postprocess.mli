(** The post-processing step (Example 4.1): a programmable query applying
    the tick's combined effects to unit state. *)

open Sgl_relalg

type t

exception Postprocess_error of string

(** [make ~schema ~updates ~remove_when] builds a step.  Each update writes
    a *state* (const-tagged) attribute from an expression over [u] (the old
    state) and [e] (the unit's combined-effect row); [remove_when] decides
    death.  Raises {!Postprocess_error} if an update targets an effect
    attribute. *)
val make : schema:Schema.t -> updates:(int * Expr.t) list -> remove_when:Expr.t -> t

(** Effect attributes the step consumes: the [e]-slots of its update
    expressions and death rule (sorted, deduplicated).  Used by the static
    analyzer's dead-effect lint. *)
val reads : t -> int list

(** What one application of the step produced. *)
type outcome = {
  survivors : Tuple.t array;
      (** Surviving units in input order, in a fresh array the caller owns.
          A row is the input row itself (physically) unless an update
          changed it, and then one fresh copy. *)
  positions : int array;
      (** [positions.(i)] is the input position of [survivors.(i)], the
          slot of its effects in the accumulator.  [[||]] when no unit
          died: the mapping is then the identity and no array is built.
          May be longer than [survivors]. *)
  dead : Tuple.t array; (** Units the death rule removed, in input order. *)
}

(** Apply the step to every unit.  [units.(p)]'s combined effects are
    slot [p] of [acc] (see {!Sgl_qopt.Exec.run_tick}), folded onto zeros: one array
    load per unit, with no key lookup, into one scratch effects row the
    call reuses.  Input rows are never written: a unit whose updates all
    yield {!Value.identical} values keeps its row, and units without an
    accumulator slot share one read-only zero effects row.  A step with
    no updates and the constant-false death rule evaluates nothing per
    unit.  Each update that changes the attribute's value (tag or bits)
    is recorded against [delta] (a fresh one: attribute + unit position),
    so [survivors.(i)] is a copy this call made, which the caller may
    write into, exactly when [Delta.dirty_pos delta positions.(i)]. *)
val apply :
  delta:Delta.t ->
  t ->
  schema:Schema.t ->
  rand_for:(key:int -> int -> int) ->
  units:Tuple.t array ->
  acc:Combine.Acc.t ->
  outcome

(** Ready-made battle-style step: health := min(max_health, health - damage
    + inaura); cooldown := max(0, cooldown-1) + weaponused * reload; death
    when health would drop to zero.  Requires attributes named health,
    max_health, cooldown, damage, inaura, reload, weaponused. *)
val battle_spec : schema:Schema.t -> t
