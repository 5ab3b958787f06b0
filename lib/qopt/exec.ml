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
   target; read-only afterwards, so worker domains may probe it
   concurrently. *)
let key_table (c : compiled) (units : Tuple.t array) : int -> Tuple.t option =
  if not c.keyed then fun _ -> None
  else begin
    let schema = c.prog.Core_ir.schema in
    let table = Hashtbl.create (Array.length units * 2) in
    Array.iter (fun row -> Hashtbl.replace table (Tuple.key schema row) row) units;
    fun k -> Hashtbl.find_opt table k
  end

(* One group's decision+action work: materialize the members' working rows
   and random streams, then run the group's plan into [acc]. *)
let run_group (c : compiled) ~(schema : Schema.t) ~(evaluator : Eval.t)
    ~(find_key : int -> Tuple.t option) ~(acc : Combine.Acc.t) ~(units : Tuple.t array)
    ~(rand_for : key:int -> int -> int) (g : group) : unit =
  Sgl_util.Fault_inject.hit "exec.group";
  Sgl_util.Telemetry.Counter.add tel_rows_in (Array.length g.members);
  match find_plan c g.script with
  | None -> raise (Exec_error (Fmt.str "no plan for script %S" g.script))
  | Some plan ->
    let body () =
      let rows = Array.map (fun i -> make_row c.width units.(i)) g.members in
      let rands =
        Array.map
          (fun i ->
            let key = Tuple.key schema units.(i) in
            rand_for ~key)
          g.members
      in
      run_plan ~schema ~evaluator ~find_key ~acc ~plan ~rows ~rands
    in
    if Sgl_util.Telemetry.Span.enabled () then
      Sgl_util.Telemetry.Span.with_ ~cat:"exec" ("group:" ^ g.script) body
    else body ()

(* Run a full decision+action pass: each group's script over its members.
   Returns the combined effects of the tick, ready for post-processing.
   [delta] (what changed since the previous tick's unit array) is passed
   straight to the evaluator, which may use it to keep cached index
   structures warm; omitting it only costs rebuilds, never correctness. *)
let run_tick ?delta ?cols (c : compiled) ~(evaluator : Eval.t) ~(units : Tuple.t array)
    ~(groups : group list) ~(rand_for : key:int -> int -> int) : Combine.Acc.t =
  let schema = c.prog.Core_ir.schema in
  evaluator.Eval.begin_tick ?delta ?cols units;
  let find_key = key_table c units in
  let acc = Combine.Acc.create schema in
  List.iter (run_group c ~schema ~evaluator ~find_key ~acc ~units ~rand_for) groups;
  acc

(* The parallel decision phase.  The unit array is cut into
   [Array.length family.members] contiguous chunks; chunk [k] evaluates
   the intersection of every group with its range on lane [k mod lanes],
   probing the read-only snapshot [family.prepare] just published.  Each
   chunk accumulates into a private [Combine.Acc]; the per-chunk bags are
   folded left-to-right with the accumulator-level (+), whose
   associativity and commutativity make the merged result independent of
   how units were chunked — so any chunk count, including 1, reproduces
   the sequential tick bit-for-bit on integral workloads. *)
let run_tick_parallel ?delta ?cols (c : compiled) ~(pool : Sgl_util.Domain_pool.t)
    ~(family : Eval.family) ~(units : Tuple.t array) ~(groups : group list)
    ~(rand_for : key:int -> int -> int) : Combine.Acc.t =
  let schema = c.prog.Core_ir.schema in
  family.Eval.prepare ?delta ?cols units;
  let find_key = key_table c units in
  let chunks = Array.length family.Eval.members in
  let ranges = Sgl_util.Domain_pool.chunk_ranges ~n:(Array.length units) ~chunks in
  let run_chunk k =
    let lo, hi = ranges.(k) in
    let evaluator = family.Eval.members.(k) in
    let acc = Combine.Acc.create schema in
    List.iter
      (fun g ->
        (* Group membership need not be sorted: filter, don't slice. *)
        let mine = Array.of_list (List.filter (fun i -> lo <= i && i < hi)
                                    (Array.to_list g.members)) in
        if Array.length mine > 0 then
          run_group c ~schema ~evaluator ~find_key ~acc ~units ~rand_for
            { g with members = mine })
      groups;
    acc
  in
  let accs = Sgl_util.Domain_pool.parallel_map pool run_chunk (Array.init chunks (fun k -> k)) in
  let out = Combine.Acc.create schema in
  Array.iter (fun acc -> Combine.Acc.merge_into ~dst:out acc) accs;
  out

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

(* Mirrors [run_group]: the ["exec.group"] injection point fires first and
   with the same call count as under interpreted execution, so an
   [At_count] fault quarantines the same script whichever backend runs the
   tick; ["fused.kernel"] fires only on this path. *)
let run_group_fused ?cols (c : compiled) ~(schema : Schema.t) ~(fused : fused)
    ~(evaluator : Eval.t) ~(find_key : int -> Tuple.t option) ~(acc : Combine.Acc.t)
    ~(units : Tuple.t array) ~(rand_for : key:int -> int -> int) (g : group) : unit =
  Sgl_util.Fault_inject.hit "exec.group";
  Sgl_util.Telemetry.Counter.add tel_rows_in (Array.length g.members);
  match List.assoc_opt g.script fused with
  | None -> raise (Exec_error (Fmt.str "no fused kernel for script %S" g.script))
  | Some kernel ->
    let body () =
      Sgl_util.Fault_inject.hit "fused.kernel";
      Sgl_util.Telemetry.Counter.add tel_fused_kernels 1;
      Sgl_util.Telemetry.Counter.add tel_fused_rows (Array.length g.members);
      let rows = Array.map (fun i -> make_row c.width units.(i)) g.members in
      let rands =
        Array.map
          (fun i ->
            let key = Tuple.key schema units.(i) in
            rand_for ~key)
          g.members
      in
      kernel
        { Loop_ir.Compile.evaluator; find_key; acc; cols; ids = g.members }
        ~rows ~rands
    in
    if Sgl_util.Telemetry.Span.enabled () then
      Sgl_util.Telemetry.Span.with_ ~cat:"exec" ("kernel:" ^ g.script) body
    else body ()

let run_tick_fused ?delta ?cols (c : compiled) ~(fused : fused) ~(evaluator : Eval.t)
    ~(units : Tuple.t array) ~(groups : group list) ~(rand_for : key:int -> int -> int) :
    Combine.Acc.t =
  let schema = c.prog.Core_ir.schema in
  evaluator.Eval.begin_tick ?delta ?cols units;
  let find_key = key_table c units in
  let acc = Combine.Acc.create schema in
  List.iter
    (run_group_fused ?cols c ~schema ~fused ~evaluator ~find_key ~acc ~units ~rand_for)
    groups;
  acc

(* ------------------------------------------------------------------ *)
(* Guarded (quarantine-mode) execution.

   Each group accumulates into a *private* effect bag merged into the
   tick's accumulator only when the whole group succeeds, so a group that
   raises mid-plan contributes nothing at all — the per-group transactional
   discipline behind the [Quarantine_script] fault policy.  Because bags
   merge through the combination operator (+), a fault-free guarded tick is
   bit-identical to the unguarded one on integral workloads. *)

type group_fault = {
  gf_script : string;
  gf_exn : exn;
  gf_backtrace : Printexc.raw_backtrace;
  gf_suppressed : int; (* further failures of the same group on other chunks *)
}

let run_tick_guarded ?delta ?cols (c : compiled) ~(evaluator : Eval.t) ~(units : Tuple.t array)
    ~(groups : group list) ~(rand_for : key:int -> int -> int) :
    Combine.Acc.t * group_fault list =
  let schema = c.prog.Core_ir.schema in
  evaluator.Eval.begin_tick ?delta ?cols units;
  let find_key = key_table c units in
  let acc = Combine.Acc.create schema in
  let faults = ref [] in
  List.iter
    (fun g ->
      let gacc = Combine.Acc.create schema in
      match run_group c ~schema ~evaluator ~find_key ~acc:gacc ~units ~rand_for g with
      | () -> Combine.Acc.merge_into ~dst:acc gacc
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        faults :=
          { gf_script = g.script; gf_exn = e; gf_backtrace = bt; gf_suppressed = 0 } :: !faults)
    groups;
  (acc, List.rev !faults)

(* Guarded fused tick: the same per-group transactional discipline as
   [run_tick_guarded], driving the kernels.  A raising kernel contributes
   nothing and is reported under its script name, so [Quarantine_script]
   behaves identically whichever backend runs the tick. *)
let run_tick_fused_guarded ?delta ?cols (c : compiled) ~(fused : fused) ~(evaluator : Eval.t)
    ~(units : Tuple.t array) ~(groups : group list) ~(rand_for : key:int -> int -> int) :
    Combine.Acc.t * group_fault list =
  let schema = c.prog.Core_ir.schema in
  evaluator.Eval.begin_tick ?delta ?cols units;
  let find_key = key_table c units in
  let acc = Combine.Acc.create schema in
  let faults = ref [] in
  List.iter
    (fun g ->
      let gacc = Combine.Acc.create schema in
      match
        run_group_fused ?cols c ~schema ~fused ~evaluator ~find_key ~acc:gacc ~units ~rand_for g
      with
      | () -> Combine.Acc.merge_into ~dst:acc gacc
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        faults :=
          { gf_script = g.script; gf_exn = e; gf_backtrace = bt; gf_suppressed = 0 } :: !faults)
    groups;
  (acc, List.rev !faults)

(* One chunk's verdict on one group. *)
type chunk_outcome =
  | Chunk_skip (* no members of the group in this chunk *)
  | Chunk_ok of Combine.Acc.t
  | Chunk_failed of exn * Printexc.raw_backtrace

let run_tick_parallel_guarded ?delta ?cols (c : compiled) ~(pool : Sgl_util.Domain_pool.t)
    ~(family : Eval.family) ~(units : Tuple.t array) ~(groups : group list)
    ~(rand_for : key:int -> int -> int) : Combine.Acc.t * group_fault list =
  let schema = c.prog.Core_ir.schema in
  family.Eval.prepare ?delta ?cols units;
  let find_key = key_table c units in
  let chunks = Array.length family.Eval.members in
  let ranges = Sgl_util.Domain_pool.chunk_ranges ~n:(Array.length units) ~chunks in
  let groups_arr = Array.of_list groups in
  let run_chunk k =
    let lo, hi = ranges.(k) in
    let evaluator = family.Eval.members.(k) in
    Array.map
      (fun g ->
        let mine =
          Array.of_list
            (List.filter (fun i -> lo <= i && i < hi) (Array.to_list g.members))
        in
        if Array.length mine = 0 then Chunk_skip
        else begin
          let gacc = Combine.Acc.create schema in
          match
            run_group c ~schema ~evaluator ~find_key ~acc:gacc ~units ~rand_for
              { g with members = mine }
          with
          | () -> Chunk_ok gacc
          | exception e -> Chunk_failed (e, Printexc.get_raw_backtrace ())
        end)
      groups_arr
  in
  let per_chunk =
    Sgl_util.Domain_pool.parallel_map pool run_chunk (Array.init chunks (fun k -> k))
  in
  (* A group's bag merges only when every chunk of it succeeded: a group
     failing on any chunk contributes nothing from any chunk, so quarantine
     semantics do not depend on where the chunk boundaries fell. *)
  let acc = Combine.Acc.create schema in
  let faults = ref [] in
  Array.iteri
    (fun gi g ->
      let failures = ref [] in
      Array.iter
        (fun outcomes ->
          match outcomes.(gi) with
          | Chunk_skip | Chunk_ok _ -> ()
          | Chunk_failed (e, bt) -> failures := (e, bt) :: !failures)
        per_chunk;
      match List.rev !failures with
      | [] ->
        Array.iter
          (fun outcomes ->
            match outcomes.(gi) with
            | Chunk_ok gacc -> Combine.Acc.merge_into ~dst:acc gacc
            | Chunk_skip | Chunk_failed _ -> ())
          per_chunk
      | (e, bt) :: rest ->
        faults :=
          { gf_script = g.script; gf_exn = e; gf_backtrace = bt;
            gf_suppressed = List.length rest }
          :: !faults)
    groups_arr;
  (acc, List.rev !faults)
