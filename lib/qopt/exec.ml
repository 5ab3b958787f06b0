(* Set-at-a-time execution of optimized plans (Section 5).

   One tick's decision + action work for one script: every unit running the
   script becomes a full-width row (schema attributes plus bind registers),
   the plan partitions and extends the row set, and [Act] leaves emit
   effects into a combination accumulator.  All aggregate evaluation and
   area-effect combination is delegated to the pluggable [Eval.t]. *)

open Sgl_relalg
open Sgl_lang

type compiled = {
  prog : Core_ir.program;
  plans : (string * Plan.t) list; (* per entry script *)
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
    (prog : Core_ir.program) : compiled =
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
  { prog; plans; width; rewrites = stats;
    keyed = List.exists (fun (_, p) -> has_key_target p) plans }

let find_plan (c : compiled) name = List.assoc_opt name c.plans

exception Exec_error of string

(* Telemetry: rows entering each script group's plan and rows surviving to
   an [Act] leaf — the executor-level selectivity EXPLAIN reports next to
   the per-aggregate counters.  Gated on one atomic load when disabled. *)
let tel_rows_in = Sgl_util.Telemetry.counter "exec.group_rows_in"
let tel_rows_out = Sgl_util.Telemetry.counter "exec.group_rows_out"

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

(* Execute one plan over its rows, emitting effects into [acc]. *)
let run_plan ~(schema : Schema.t) ~(evaluator : Eval.t) ~(find_key : int -> Tuple.t option)
    ~(acc : Combine.Acc.t) ~(plan : Plan.t) ~(rows : Tuple.t array)
    ~(rands : (int -> int) array) : unit =
  let apply_direct (row : Tuple.t) (rand : int -> int) (c : Core_ir.effect_clause) =
    let emit target =
      let key = Tuple.key schema target in
      let ctx = { Expr.u = row; e = Some target; rand } in
      List.iter
        (fun (attr, expr) -> Combine.Acc.add_attr acc ~base:target ~key attr (Expr.eval ctx expr))
        c.Core_ir.updates
    in
    match c.Core_ir.target with
    | Core_ir.Self -> emit row
    | Core_ir.Key key_expr -> begin
      let key = Expr.eval_int { Expr.u = row; e = None; rand } key_expr in
      match find_key key with
      | None -> ()
      | Some target -> emit target
    end
    | Core_ir.All _ -> assert false
  in
  let rec go (plan : Plan.t) (sel : int array) : unit =
    if Array.length sel > 0 then begin
      match plan with
      | Plan.Nop -> ()
      | Plan.Bind (slot, Plan.Bind_expr e, k) ->
        Array.iter
          (fun i ->
            let row = rows.(i) in
            row.(slot) <- Expr.eval { Expr.u = row; e = None; rand = rands.(i) } e)
          sel;
        go k sel
      | Plan.Bind (slot, Plan.Bind_agg agg_id, k) ->
        let batch_rows = Array.map (fun i -> rows.(i)) sel in
        let batch_rands = Array.map (fun i -> rands.(i)) sel in
        let eval () = evaluator.Eval.eval_agg ~agg_id ~rows:batch_rows ~rands:batch_rands in
        (* Per-operator span; the name is only built when tracing. *)
        let values =
          if Sgl_util.Telemetry.Span.enabled () then
            Sgl_util.Telemetry.Span.with_ ~cat:"op" (Printf.sprintf "agg:%d" agg_id) eval
          else eval ()
        in
        Array.iteri (fun j i -> rows.(i).(slot) <- values.(j)) sel;
        go k sel
      | Plan.Select (c, a, b) ->
        let yes, no =
          Array.to_list sel
          |> List.partition (fun i ->
                 Expr.eval_bool { Expr.u = rows.(i); e = None; rand = rands.(i) } c)
        in
        go a (Array.of_list yes);
        go b (Array.of_list no)
      | Plan.Both plans -> List.iter (fun p -> go p sel) plans
      | Plan.Act clauses ->
        Sgl_util.Telemetry.Counter.add tel_rows_out (Array.length sel);
        List.iter
          (fun (c : Core_ir.effect_clause) ->
            match c.Core_ir.target with
            | Core_ir.Self | Core_ir.Key _ ->
              Array.iter (fun i -> apply_direct rows.(i) rands.(i) c) sel
            | Core_ir.All pred ->
              let contributors = Array.map (fun i -> rows.(i)) sel in
              let contributor_rands = Array.map (fun i -> rands.(i)) sel in
              evaluator.Eval.apply_aoe ~pred ~updates:c.Core_ir.updates ~contributors
                ~contributor_rands ~acc)
          clauses
    end
  in
  go plan (Array.init (Array.length rows) (fun i -> i))

(* The tick's key table: every unit addressable by key for [Core_ir.Key]
   targets.  Built once per tick, and only when some plan has such a
   target. *)
let key_table (c : compiled) (units : Tuple.t array) : int -> Tuple.t option =
  if not c.keyed then fun _ -> None
  else begin
    let schema = c.prog.Core_ir.schema in
    let table = Hashtbl.create (Array.length units * 2) in
    Array.iter (fun row -> Hashtbl.replace table (Tuple.key schema row) row) units;
    fun k -> Hashtbl.find_opt table k
  end

(* ------------------------------------------------------------------ *)
(* Fused execution: the same ticks, driven by specialized kernels.

   [fuse] lowers every plan through [Loop_ir.Lower] and compiles the loop
   programs once; a fused tick then runs each group through its kernel
   instead of walking the plan tree.  The evaluator stays a run-time
   parameter, so fused execution composes with the shared index cache and
   with [Degrade]'s demotion to a weaker evaluator without recompiling. *)

type fused = (string * Loop_ir.Compile.kernel) list

let tel_fused_kernels = Sgl_util.Telemetry.counter "fused.kernels"
let tel_fused_rows = Sgl_util.Telemetry.counter "fused.rows"

let fuse ?(fold = fun (_ : string) (_ : Expr.t) -> None) (c : compiled) : fused =
  let schema = c.prog.Core_ir.schema in
  List.map
    (fun (name, plan) ->
      (name, Loop_ir.Compile.compile ~fold:(fold name) ~schema (Loop_ir.Lower.lower plan)))
    c.plans

type group_fault = {
  gf_script : string;
  gf_exn : exn;
  gf_backtrace : Printexc.raw_backtrace;
}

exception Group_failed of group_fault

(* One group's decision+action work: materialize the members' working rows
   and random streams, then run the group's plan (or, given [kernels], its
   fused kernel) into [acc].  The ["exec.group"] injection point fires
   first under both backends, so an [At_count] fault hits the same group
   whichever one runs the tick; ["fused.kernel"] fires only on the fused
   path.  Whatever the group raises comes back as [Group_failed], naming
   the script. *)
let run_group ?kernels ?cols (c : compiled) ~(schema : Schema.t) ~(evaluator : Eval.t)
    ~(find_key : int -> Tuple.t option) ~(acc : Combine.Acc.t) ~(units : Tuple.t array)
    ~(rand_for : key:int -> int -> int) (g : group) : unit =
  let materialize () =
    let rows = Array.map (fun i -> make_row c.width units.(i)) g.members in
    let rands = Array.map (fun i -> rand_for ~key:(Tuple.key schema units.(i))) g.members in
    (rows, rands)
  in
  let missing what = raise (Exec_error (Fmt.str "no %s for script %S" what g.script)) in
  let body () =
    match kernels with
    | None -> begin
      match find_plan c g.script with
      | None -> missing "plan"
      | Some plan ->
        let rows, rands = materialize () in
        run_plan ~schema ~evaluator ~find_key ~acc ~plan ~rows ~rands
    end
    | Some fused -> begin
      match List.assoc_opt g.script fused with
      | None -> missing "fused kernel"
      | Some kernel ->
        Sgl_util.Fault_inject.hit "fused.kernel";
        Sgl_util.Telemetry.Counter.add tel_fused_kernels 1;
        Sgl_util.Telemetry.Counter.add tel_fused_rows (Array.length g.members);
        let rows, rands = materialize () in
        kernel { Loop_ir.Compile.evaluator; find_key; acc; cols; ids = g.members } ~rows ~rands
    end
  in
  let label = match kernels with None -> "group:" | Some _ -> "kernel:" in
  try
    Sgl_util.Fault_inject.hit "exec.group";
    Sgl_util.Telemetry.Counter.add tel_rows_in (Array.length g.members);
    if Sgl_util.Telemetry.Span.enabled () then
      Sgl_util.Telemetry.Span.with_ ~cat:"exec" (label ^ g.script) body
    else body ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Printexc.raise_with_backtrace
      (Group_failed { gf_script = g.script; gf_exn = e; gf_backtrace = bt })
      bt

(* Run a full decision+action pass: each group's script over its members,
   on the calling domain, into one accumulator.  Returns the combined
   effects of the tick, ready for post-processing.  [delta] (what changed
   since the previous tick's unit array) is passed straight to
   [evaluator.prepare], which may use it to keep cached index structures
   warm; omitting it only costs rebuilds, never correctness. *)
let run_tick ?delta ?cols ?kernels (c : compiled) ~(evaluator : Eval.t) ~(units : Tuple.t array)
    ~(groups : group list) ~(rand_for : key:int -> int -> int) : Combine.Acc.t =
  let schema = c.prog.Core_ir.schema in
  evaluator.Eval.prepare ?delta ?cols units;
  let find_key = key_table c units in
  let acc = Combine.Acc.create schema in
  List.iter (run_group ?kernels ?cols c ~schema ~evaluator ~find_key ~acc ~units ~rand_for) groups;
  acc
