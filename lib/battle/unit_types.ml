(* The battle simulation's environment schema and unit construction.

   Positions are kept on an integer lattice (stored in float attributes),
   so every aggregate over positions is exact and the naive and indexed
   engines stay bit-for-bit identical. *)

open Sgl_relalg

(* Declared attribute ranges are the contract the interval analyses lean
   on: keys are assigned from 0, unit classes and armor are non-negative
   profile data, positions live on the non-negative map lattice (movement
   only ever targets in-bounds cells and resurrection re-places on the
   grid).  Health is deliberately unranged — it transiently goes negative
   before the death rule fires.  Likewise morale/reload/cooldown, which
   post-processing decays. *)
let inf = infinity

(* Finite upper bounds for the profile-sourced attributes, computed from
   the profiles themselves so the declared contract cannot drift from the
   data. *)
let max_profile f =
  List.fold_left
    (fun m c -> Float.max m (f (D20.profile_of c)))
    0.
    [ D20.Knight; D20.Archer; D20.Healer ]

let schema () : Schema.t =
  Schema.create
    [
      Schema.attr ~range:(0., inf) "key" Value.TInt;
      Schema.attr ~range:(0., inf) "player" Value.TInt;
      Schema.attr ~range:(0., inf) "kind" Value.TInt; (* D20.class_id *)
      Schema.attr ~range:(0., inf) "posx" Value.TFloat;
      Schema.attr ~range:(0., inf) "posy" Value.TFloat;
      Schema.attr "health" Value.TFloat;
      Schema.attr
        ~range:(0., max_profile (fun p -> float_of_int p.D20.max_health))
        "max_health" Value.TFloat;
      Schema.attr
        ~range:(0., max_profile (fun p -> float_of_int p.D20.armor))
        "armor" Value.TInt;
      Schema.attr
        ~range:(0., max_profile (fun p -> p.D20.attack_range))
        "attack_range" Value.TFloat;
      Schema.attr ~range:(0., max_profile (fun p -> p.D20.sight)) "sight" Value.TFloat;
      Schema.attr "morale" Value.TInt;
      Schema.attr "reload" Value.TInt;
      Schema.attr "cooldown" Value.TInt;
      (* effect attributes *)
      Schema.attr ~tag:Schema.Max "weaponused" Value.TInt;
      Schema.attr ~tag:Schema.Sum "movevect_x" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "movevect_y" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "damage" Value.TFloat;
      Schema.attr ~tag:Schema.Max "inaura" Value.TFloat;
    ]

let make_unit (s : Schema.t) ~(key : int) ~(player : int) ~(klass : D20.unit_class) ~(x : int)
    ~(y : int) : Tuple.t =
  let p = D20.profile_of klass in
  Tuple.of_list s
    [
      Value.Int key;
      Value.Int player;
      Value.Int (D20.class_id klass);
      Value.Float (float_of_int x);
      Value.Float (float_of_int y);
      Value.Float (float_of_int p.D20.max_health);
      Value.Float (float_of_int p.D20.max_health);
      Value.Int p.D20.armor;
      Value.Float p.D20.attack_range;
      Value.Float p.D20.sight;
      Value.Int p.D20.morale;
      Value.Int p.D20.reload;
      Value.Int 0;
      Value.Int 0;
      Value.Float 0.;
      Value.Float 0.;
      Value.Float 0.;
      Value.Float 0.;
    ]

let klass_of (s : Schema.t) (u : Tuple.t) : D20.unit_class =
  D20.class_of_id (Value.to_int (Tuple.get u (Schema.find s "kind")))

let player_of (s : Schema.t) (u : Tuple.t) : int = Value.to_int (Tuple.get u (Schema.find s "player"))
let health_of (s : Schema.t) (u : Tuple.t) : float = Value.to_float (Tuple.get u (Schema.find s "health"))
let pos_of (s : Schema.t) (u : Tuple.t) : float * float =
  ( Value.to_float (Tuple.get u (Schema.find s "posx")),
    Value.to_float (Tuple.get u (Schema.find s "posy")) )
