(* SGL — Scalable Games Language.

   The single public entry point.  A game built on this library:

   1. declares an environment schema ({!Schema}) whose effect attributes
      carry combination tags (sum / max / min);
   2. writes unit behaviour in SGL ({!Compile} turns source into a closed
      core program; the battle scripts in {!Battle.Scripts} are a worked
      example);
   3. assembles a {!Simulation} with a post-processing query, a movement
      configuration and a death rule, choosing the naive or the indexed
      aggregate evaluator;
   4. steps the simulation one clock tick at a time.

   See README.md for a quickstart and DESIGN.md for the paper mapping. *)

(* Utilities *)
module Prng = Sgl_util.Prng
module Fault_inject = Sgl_util.Fault_inject
module Vec2 = Sgl_util.Vec2
module Varray = Sgl_util.Varray
module Stats = Sgl_util.Stats
module Timer = Sgl_util.Timer
module Telemetry = Sgl_util.Telemetry
module Float_sort = Sgl_util.Float_sort

(* Relational substrate *)
module Value = Sgl_relalg.Value
module Schema = Sgl_relalg.Schema
module Tuple = Sgl_relalg.Tuple
module Relation = Sgl_relalg.Relation
module Expr = Sgl_relalg.Expr
module Predicate = Sgl_relalg.Predicate
module Aggregate = Sgl_relalg.Aggregate
module Combine = Sgl_relalg.Combine
module Delta = Sgl_relalg.Delta
module Algebra = Sgl_relalg.Algebra

(* Index structures *)
module Interval = Sgl_index.Interval
module Geometry = Sgl_index.Geometry
module Segment_tree = Sgl_index.Segment_tree
module Range_tree = Sgl_index.Range_tree
module Cascade_tree = Sgl_index.Cascade_tree
module Kd_tree = Sgl_index.Kd_tree
module Sweepline = Sgl_index.Sweepline
module Cat_index = Sgl_index.Cat_index

(* The language *)
module Ast = Sgl_lang.Ast
module Lexer = Sgl_lang.Lexer
module Parser = Sgl_lang.Parser
module Typecheck = Sgl_lang.Typecheck
module Normalize = Sgl_lang.Normalize
module Resolve = Sgl_lang.Resolve
module Core_ir = Sgl_lang.Core_ir
module Compile = Sgl_lang.Compile
module Pretty = Sgl_lang.Pretty
module Interp = Sgl_lang.Interp

(* Query optimization *)
module Plan = Sgl_qopt.Plan
module Rewrite = Sgl_qopt.Rewrite
module Agg_plan = Sgl_qopt.Agg_plan
module Eval = Sgl_qopt.Eval
module Exec = Sgl_qopt.Exec
module Loop_ir = Sgl_qopt.Loop_ir

(* Static analysis *)
module Analysis = struct
  module Diagnostic = Sgl_analysis.Diagnostic
  module Rules = Sgl_analysis.Rules
  module Effect_race = Sgl_analysis.Effect_race
  module Plan_check = Sgl_analysis.Plan_check
  module Perf_lint = Sgl_analysis.Perf_lint
  module Absint = Sgl_analysis.Absint
  module Footprint = Sgl_analysis.Footprint
  module Driver = Sgl_analysis.Driver
end

(* Durable state *)
module Persist = struct
  module Crc32 = Sgl_util.Crc32
  module Codec = Sgl_persist.Codec
  module Checkpoint = Sgl_persist.Checkpoint
  module Journal = Sgl_persist.Journal
end

(* The discrete simulation engine *)
module Postprocess = Sgl_engine.Postprocess
module Movement = Sgl_engine.Movement
module Simulation = Sgl_engine.Simulation
module Trace = Sgl_engine.Trace
module Fault = Sgl_engine.Fault

(* Live observability: flight recorder, diagnostics endpoint, query port *)
module Obs = struct
  module Flight = Sgl_obs.Flight
  module Prometheus = Sgl_obs.Prometheus
  module Query = Sgl_obs.Query
  module Health = Sgl_obs.Health
  module Server = Sgl_obs.Server
  module Live = Sgl_obs.Live
end

(* The battle case study *)
module Battle = struct
  module D20 = Sgl_battle.D20
  module Unit_types = Sgl_battle.Unit_types
  module Scripts = Sgl_battle.Scripts
  module Scenario = Sgl_battle.Scenario
end

(* ------------------------------------------------------------------ *)
(* Convenience layer *)

(* [compile ?consts ~schema source] compiles SGL source text. *)
let compile = Sgl_lang.Compile.compile

(* [explain ?consts ~schema source] pretty-prints the optimized plan and
   the index strategy chosen for every aggregate instance — the tool a
   designer uses to understand what the compiler made of a script. *)
let explain ?(consts = []) ~schema source : string =
  let prog = Sgl_lang.Compile.compile ~consts ~schema source in
  let compiled = Sgl_qopt.Exec.compile prog in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Fmt.pf ppf "@[<v>== aggregate instances ==@,";
  Array.iteri
    (fun i agg ->
      Fmt.pf ppf "agg#%d %a -> %s@," i Sgl_relalg.Aggregate.pp agg
        (Sgl_qopt.Agg_plan.strategy_name (Sgl_qopt.Agg_plan.analyze schema agg)))
    prog.Sgl_lang.Core_ir.aggregates;
  Fmt.pf ppf "@,== optimized plans ==@,";
  List.iter
    (fun (s : Sgl_lang.Core_ir.script) ->
      match Sgl_qopt.Exec.find_plan compiled s.Sgl_lang.Core_ir.name with
      | Some plan ->
        Fmt.pf ppf "@,script %s:@,  @[<v>%a@]@," s.Sgl_lang.Core_ir.name Sgl_qopt.Plan.pp plan
      | None -> ())
    prog.Sgl_lang.Core_ir.scripts;
  Fmt.pf ppf "@]@.";
  Buffer.contents buf

let version = "1.0.0"
