(* Battle scenario construction and simulation assembly.

   Mirrors the paper's experimental setup (Section 6): two players on an
   integer grid whose size is chosen to hold the unit density at a target
   percentage of occupied squares; armies arranged with knights in front,
   archers behind, healers in the rear; dead units resurrected at uniform
   random positions so the workload stays constant. *)

open Sgl_util
open Sgl_relalg
open Sgl_engine

type army = {
  knights : int;
  archers : int;
  healers : int;
}

let army_size a = a.knights + a.archers + a.healers

(* The paper's default mix: mostly knights, some archers, few healers. *)
let standard_mix n =
  let knights = n / 2 in
  let archers = (n * 3) / 10 in
  let healers = n - knights - archers in
  { knights; archers; healers }

type t = {
  schema : Schema.t;
  units : Tuple.t array;
  width : int;
  height : int;
  density : float;
}

(* Column-major deployment of one army in its half of the field. *)
let deploy (s : Schema.t) ~(army : army) ~(player : int) ~(width : int) ~(height : int)
    ~(next_key : int ref) (out : Tuple.t Varray.t) : unit =
  (* player 0 faces right from the left edge; player 1 faces left *)
  let columns klass count ~x0 ~dx =
    let placed = ref 0 in
    let col = ref 0 in
    while !placed < count do
      let x = x0 + (dx * !col) in
      let rows = min (count - !placed) height in
      let y0 = (height - rows) / 2 in
      for r = 0 to rows - 1 do
        let key = !next_key in
        incr next_key;
        Varray.push out (Unit_types.make_unit s ~key ~player ~klass ~x ~y:(y0 + r));
        incr placed
      done;
      incr col
    done
  in
  let front = if player = 0 then (width / 2) - 4 else (width / 2) + 4 in
  let dx = if player = 0 then -2 else 2 in
  columns D20.Knight army.knights ~x0:front ~dx;
  let knight_cols = ((army.knights + height - 1) / height) * 2 in
  columns D20.Archer army.archers ~x0:(front + (dx * (knight_cols + 1))) ~dx;
  let archer_cols = ((army.archers + height - 1) / height) * 2 in
  columns D20.Healer army.healers ~x0:(front + (dx * (knight_cols + archer_cols + 2))) ~dx

(* [setup ~density ~per_side] builds a two-player battlefield whose grid
   holds the occupancy at [density] (fraction of squares occupied). *)
let setup ?(density = 0.01) ~(per_side : army) () : t =
  let s = Unit_types.schema () in
  let n = 2 * army_size per_side in
  (* a 2:1 battlefield with width * height ~ n / density *)
  let area = float_of_int n /. density in
  let height = max 8 (int_of_float (ceil (sqrt (area /. 2.)))) in
  let width = max 16 (int_of_float (ceil (area /. float_of_int height))) in
  let out = Varray.create [||] in
  let next_key = ref 0 in
  deploy s ~army:per_side ~player:0 ~width ~height ~next_key out;
  deploy s ~army:per_side ~player:1 ~width ~height ~next_key out;
  { schema = s; units = Varray.to_array out; width; height; density }

(* The simulation configuration over the scenario — shared between fresh
   assembly and checkpoint recovery, which must rebuild the exact same
   config (same seed, same scripts, same movement grid) for the journal
   replay to be bit-identical. *)
let sim_config ?(optimize = true) ?(seed = 42) ?(resurrect = true) (t : t) : Simulation.config =
  let s = t.schema in
  let prog = Scripts.compile () in
  let kind_ix = Schema.find s "kind" in
  let script_of u =
    Some (Scripts.script_for (D20.class_of_id (Value.to_int (Tuple.get u kind_ix))))
  in
  let movement =
    {
      Movement.posx = Schema.find s "posx";
      posy = Schema.find s "posy";
      mvx = Schema.find s "movevect_x";
      mvy = Schema.find s "movevect_y";
      speed = D20.walk_dist_per_tick;
      speed_attr = None;
      width = t.width;
      height = t.height;
    }
  in
  {
    Simulation.prog;
    script_of;
    postprocess = Postprocess.battle_spec ~schema:s;
    movement = Some movement;
    death =
      (if resurrect then
         Simulation.Resurrect
           { health = Schema.find s "health"; max_health = Schema.find s "max_health" }
       else Simulation.Remove);
    seed;
    optimize;
  }

(* Assemble a full simulation over the scenario. *)
let simulation ?optimize ?seed ?resurrect ?fault_policy ?index_cache
    ~(evaluator : Simulation.evaluator_kind) (t : t) : Simulation.t =
  let config = sim_config ?optimize ?seed ?resurrect t in
  Simulation.create ?fault_policy ?index_cache config ~evaluator ~units:t.units
