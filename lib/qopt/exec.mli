(** Set-at-a-time execution of optimized plans: one tick's decision and
    action phases for the scripted unit groups, with effects combined into
    a {!Sgl_relalg.Combine.Acc}. *)

open Sgl_relalg
open Sgl_lang

type compiled = {
  prog : Core_ir.program;
  plans : (string * Plan.t) list;
  width : int;
  rewrites : Rewrite.rewrite_stats;
  keyed : bool;
      (** Some plan has a [Core_ir.Key] effect target.  [run_tick] builds
          the tick's key table only when this holds. *)
}

exception Exec_error of string

(** Translate and (by default) optimize every entry script.  [prove],
    indexed by script name, feeds interval facts into the rewrite's
    condition pruning (see {!Rewrite.simplify}); validation must then run
    with the same prover. *)
val compile :
  ?optimize:bool -> ?prove:(string -> Expr.t -> bool option) -> Core_ir.program -> compiled

val find_plan : compiled -> string -> Plan.t option

(** Full-width working row for a unit. *)
val make_row : int -> Tuple.t -> Tuple.t

type group = {
  script : string;
  members : int array; (* indexes into the tick's unit array *)
}

val run_plan :
  schema:Schema.t ->
  evaluator:Eval.t ->
  find_key:(int -> Tuple.t option) ->
  acc:Combine.Acc.t ->
  plan:Plan.t ->
  rows:Tuple.t array ->
  rands:(int -> int) array ->
  unit

(** Fused execution backend: every script's plan lowered through
    {!Loop_ir.Lower} and compiled once into a closure-composed kernel. *)
type fused = (string * Loop_ir.Compile.kernel) list

(** Lower and compile every plan of [compiled].  Done once per scenario;
    the evaluator remains a run-time parameter of the kernels, so the same
    [fused] serves every tick and survives [Degrade] demotion.  [fold],
    indexed by script name, is the interval-fact constant-folding oracle
    handed to {!Loop_ir.Compile.compile}. *)
val fuse : ?fold:(string -> Expr.t -> Value.t option) -> compiled -> fused

(** One script group's failure: the script, and what it raised. *)
type group_fault = {
  gf_script : string;
  gf_exn : exn;
  gf_backtrace : Printexc.raw_backtrace;
}

(** Raised by {!run_tick} for any exception escaping one group's work,
    including {!Exec_error} for a group naming an unknown script. *)
exception Group_failed of group_fault

(** The tick's decision phase: run every group's script over its members
    and return the combined effects.

    [evaluator.prepare] opens the tick first, with [delta] (what changed
    since the previous tick's unit array) so the cross-tick index cache can
    revalidate instead of rebuilding; omitting it is always sound (cold
    tick).  [cols], when given, is the columnar mirror of [units]: it is
    forwarded to the evaluator (index builds scan typed columns) and into
    the kernels (float binds become column loads).  Purely an access-path
    hint — ticks are bit-identical with or without it.

    The chunk count is the number of [evaluator] members.  One member runs
    every group on the calling domain.  With more, the unit array is split
    into one contiguous chunk per member, each chunk evaluated against the
    snapshot [prepare] published — fanned out over [pool] when given — and
    the per-chunk effect bags folded with the combination operator (+).
    Because (+) is associative and commutative and the chunking is a pure
    function of [units], the result is independent of the chunk count and
    of domain scheduling on integral workloads.

    With [kernels], groups run through their fused kernels instead of plan
    walking: bit-identical to the interpreter with the same evaluator, as
    kernels mirror its expression semantics and fusion only permutes
    contributions to the commutative accumulator (rule V003 validates each
    lowering).  The ["fused.kernel"] injection point fires per group,
    after ["exec.group"].

    Raises {!Group_failed} when a group raises; the tick's effects are then
    lost, and the caller decides whether to retry without that script. *)
val run_tick :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  ?pool:Sgl_util.Domain_pool.t ->
  ?kernels:fused ->
  compiled ->
  evaluator:Eval.family ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t
