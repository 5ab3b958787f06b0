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
      (** Some plan has a [Core_ir.Key] effect target.  Every [run_tick*]
          builds the tick's key table only when this holds. *)
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

(** Run every group's script; raises {!Exec_error} if a group names an
    unknown script.  [delta] summarises what changed since the previous
    tick's unit array and is forwarded to [evaluator.begin_tick] so the
    cross-tick index cache can revalidate instead of rebuilding; omitting
    it is always sound (cold tick).  [cols], when given, is the columnar
    mirror of [units]: it is forwarded to the evaluator (index builds scan
    typed columns) and, on the fused paths, into the kernels (float binds
    become column loads).  Purely an access-path hint — ticks are
    bit-identical with or without it. *)
val run_tick :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  evaluator:Eval.t ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t

(** [run_tick_parallel c ~pool ~family ~units ~groups ~rand_for] is
    [run_tick] with the decision phase fanned out over [pool]: the unit
    array is split into one contiguous chunk per family member, each chunk
    evaluated against the read-only index snapshot published by
    [family.prepare], and the per-chunk effect bags folded with the
    combination operator (+).  Because (+) is associative and commutative
    and the chunking is a pure function of [units], the result is
    independent of the chunk count and of domain scheduling.  [delta] is
    forwarded to [family.prepare] like {!run_tick}'s. *)
val run_tick_parallel :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  pool:Sgl_util.Domain_pool.t ->
  family:Eval.family ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t

(** Fused execution backend: every script's plan lowered through
    {!Loop_ir.Lower} and compiled once into a closure-composed kernel. *)
type fused = (string * Loop_ir.Compile.kernel) list

(** Lower and compile every plan of [compiled].  Done once per scenario;
    the evaluator remains a run-time parameter of the kernels, so the same
    [fused] serves every tick and survives [Degrade] demotion.  [fold],
    indexed by script name, is the interval-fact constant-folding oracle
    handed to {!Loop_ir.Compile.compile}. *)
val fuse : ?fold:(string -> Expr.t -> Value.t option) -> compiled -> fused

(** [run_tick] driven by fused kernels instead of plan walking.
    Bit-identical to {!run_tick} with the same evaluator: kernels mirror
    the interpreter's expression semantics exactly, and the reordering
    introduced by operator fusion only permutes contributions to the
    commutative ⊕-accumulator (rule V003 validates each lowering).  Fires
    the ["fused.kernel"] injection point per group, after ["exec.group"]. *)
val run_tick_fused :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  fused:fused ->
  evaluator:Eval.t ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t

(** One script group's failure under guarded execution.  [gf_suppressed]
    counts further failures of the same group on other chunks of a
    parallel tick. *)
type group_fault = {
  gf_script : string;
  gf_exn : exn;
  gf_backtrace : Printexc.raw_backtrace;
  gf_suppressed : int;
}

(** [run_tick] with per-group guards: every group accumulates into a
    private effect bag merged only on success, so a raising group
    contributes nothing and execution continues with the remaining groups.
    Returns the combined effects of the surviving groups plus one
    {!group_fault} per failed group, in group order.  Fault-free, the
    result is bit-identical to {!run_tick} on integral workloads (bags
    merge through the associative-commutative (+)). *)
val run_tick_guarded :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  evaluator:Eval.t ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t * group_fault list

(** Guarded variant of {!run_tick_fused}: per-group private bags, a
    raising kernel reported under its script name — the exact fault
    surface of {!run_tick_guarded}, so quarantine decisions do not depend
    on which backend ran the tick. *)
val run_tick_fused_guarded :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  fused:fused ->
  evaluator:Eval.t ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t * group_fault list

(** Guarded variant of {!run_tick_parallel}.  A group merges only when
    every chunk of it succeeded, so quarantine semantics are independent
    of chunk boundaries; a group failing on several chunks yields one
    fault with the extra failures counted in [gf_suppressed]. *)
val run_tick_parallel_guarded :
  ?delta:Delta.t ->
  ?cols:Colstore.t ->
  compiled ->
  pool:Sgl_util.Domain_pool.t ->
  family:Eval.family ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  Combine.Acc.t * group_fault list
