(* Set-at-a-time execution of optimized plans (Section 5).

   One tick's decision + action work for one script: every unit running the
   script becomes a full-width row (schema attributes plus bind registers),
   and the script's kernel — its optimized plan lowered through
   [Loop_ir.Lower] and compiled once by [Loop_ir.Compile] — partitions and
   extends the row set and emits effects into a combination accumulator.
   All aggregate evaluation and area-effect combination is delegated to the
   pluggable [Eval.t], which stays a run-time parameter of the kernels. *)

open Sgl_relalg
open Sgl_lang

type compiled = {
  prog : Core_ir.program;
  plans : (string * Plan.t) list; (* per entry script *)
  kernels : (string * Loop_ir.Compile.kernel) list; (* per entry script *)
  width : int; (* register count for row allocation *)
  rewrites : Rewrite.rewrite_stats;
  keyed : bool; (* some plan has a [Core_ir.Key] target: ticks need the key table *)
}

(* Does [plan] address any effect by key? *)
let rec has_key_target : Plan.t -> bool = function
  | Plan.Nop -> false
  | Plan.Bind (_, _, k) -> has_key_target k
  | Plan.Select (_, a, b) -> has_key_target a || has_key_target b
  | Plan.Both plans -> List.exists has_key_target plans
  | Plan.Act clauses ->
    List.exists
      (fun (c : Core_ir.effect_clause) ->
        match c.Core_ir.target with Core_ir.Key _ -> true | Core_ir.Self | Core_ir.All _ -> false)
      clauses

let compile ?(optimize = true) ?(prove = fun (_ : string) (_ : Expr.t) -> None)
    ?(fold = fun (_ : string) (_ : Expr.t) -> None) (prog : Core_ir.program) : compiled =
  let schema = prog.Core_ir.schema in
  let stats = Rewrite.no_stats () in
  let plans =
    List.map
      (fun (s : Core_ir.script) ->
        let plan = Plan.of_core schema s.Core_ir.body in
        let plan =
          if optimize then
            Rewrite.optimize ~stats ~prove:(prove s.Core_ir.name) ~aggs:prog.Core_ir.aggregates
              plan
          else plan
        in
        (s.Core_ir.name, plan))
      prog.Core_ir.scripts
  in
  let width =
    List.fold_left (fun acc (_, p) -> max acc (Plan.width schema p)) (Schema.arity schema) plans
  in
  let kernels =
    List.map
      (fun (name, plan) ->
        (name, Loop_ir.Compile.compile ~oracle:(fold name) (Loop_ir.Lower.lower plan)))
      plans
  in
  { prog; plans; kernels; width; rewrites = stats;
    keyed = List.exists (fun (_, p) -> has_key_target p) plans }

let find_plan (c : compiled) name = List.assoc_opt name c.plans

exception Exec_error of string

(* Telemetry: rows entering the script groups, and the kernels run over
   them with the rows they processed.  Gated on one atomic load when
   disabled. *)
let tel_rows_in = Sgl_util.Telemetry.counter "exec.group_rows_in"
let tel_kernels = Sgl_util.Telemetry.counter "fused.kernels"
let tel_kernel_rows = Sgl_util.Telemetry.counter "fused.rows"

(* A full-width working row for a unit: schema values copied, registers
   zeroed. *)
let make_row (width : int) (unit_row : Tuple.t) : Tuple.t =
  let row = Array.make width (Value.Int 0) in
  Array.blit unit_row 0 row 0 (Array.length unit_row);
  row

type group = {
  script : string;
  members : int array; (* indexes into the tick's unit array *)
}

(* Unit keys, hashed without the polymorphic hash: the multiply-and-shift
   keeps strided keys apart in the low bits the table indexes by. *)
module Key_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x1E3779B97F4A7C15) lsr 31
end)

(* The tick's key table: the position of every unit by key, for
   [Core_ir.Key] targets ([-1]: no such unit; a duplicated key names its
   last unit).  Built once per tick, and only when some plan has such a
   target. *)
let key_table (c : compiled) (units : Tuple.t array) : int -> int =
  if not c.keyed then fun _ -> -1
  else begin
    let schema = c.prog.Core_ir.schema in
    let table = Key_tbl.create (2 * Array.length units) in
    (* [add] shadows an earlier binding, so [find] answers the last unit *)
    Array.iteri (fun pos row -> Key_tbl.add table (Tuple.key schema row) pos) units;
    fun k -> match Key_tbl.find table k with pos -> pos | exception Not_found -> -1
  end

type group_fault = {
  gf_script : string;
  gf_exn : exn;
  gf_backtrace : Printexc.raw_backtrace;
}

exception Group_failed of group_fault

(* One group's decision+action work: materialize the members' working rows
   and random streams, then run the script's kernel into [acc].  The
   ["exec.group"] injection point fires first.  Whatever the group raises
   comes back as [Group_failed], naming the script. *)
let run_group (c : compiled) ~(schema : Schema.t) ~(evaluator : Eval.t)
    ~(find_key : int -> int) ~(acc : Combine.Acc.t) ~(units : Tuple.t array)
    ~(rand_for : key:int -> int -> int) (g : group) : unit =
  let body () =
    match List.assoc_opt g.script c.kernels with
    | None -> raise (Exec_error (Fmt.str "no kernel for script %S" g.script))
    | Some kernel ->
      Sgl_util.Telemetry.Counter.add tel_kernels 1;
      Sgl_util.Telemetry.Counter.add tel_kernel_rows (Array.length g.members);
      let rows = Array.map (fun i -> make_row c.width units.(i)) g.members in
      let rands = Array.map (fun i -> rand_for ~key:(Tuple.key schema units.(i))) g.members in
      kernel { Loop_ir.Compile.evaluator; units; find_key; acc } ~members:g.members ~rows ~rands
  in
  try
    Sgl_util.Fault_inject.hit "exec.group";
    Sgl_util.Telemetry.Counter.add tel_rows_in (Array.length g.members);
    if Sgl_util.Telemetry.Span.enabled () then
      Sgl_util.Telemetry.Span.with_ ~cat:"exec" ("kernel:" ^ g.script) body
    else body ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Printexc.raise_with_backtrace
      (Group_failed { gf_script = g.script; gf_exn = e; gf_backtrace = bt })
      bt

(* Run a full decision+action pass: each group's script over its members,
   on the calling domain, into [acc] — emptied first and addressed by unit
   position.  Leaves the combined effects of the tick in it, ready for
   post-processing.  [delta] (what changed
   since the previous tick's unit array) is passed straight to
   [evaluator.prepare], which may use it to keep cached index structures
   warm; omitting it only costs rebuilds, never correctness.  [cols] must
   be the column store of [units]: the one coverage check of the decision
   phase is here, so the evaluator's index builds read it unchecked. *)
let run_tick ?delta ~(cols : Colstore.t) ~(acc : Combine.Acc.t) (c : compiled)
    ~(evaluator : Eval.t) ~(units : Tuple.t array) ~(groups : group list)
    ~(rand_for : key:int -> int -> int) : unit =
  if Colstore.length cols <> Array.length units then
    invalid_arg "Exec.run_tick: the column store does not cover the unit array";
  let schema = c.prog.Core_ir.schema in
  evaluator.Eval.prepare ?delta ~cols units;
  let find_key = key_table c units in
  Combine.Acc.reset acc ~positions:(Array.length units);
  List.iter (run_group c ~schema ~evaluator ~find_key ~acc ~units ~rand_for) groups
