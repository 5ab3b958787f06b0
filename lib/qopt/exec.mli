(** Set-at-a-time execution of optimized plans: one tick's decision and
    action phases for the scripted unit groups, each run through its
    script's compiled kernel ({!Loop_ir}), with effects combined into a
    {!Sgl_relalg.Combine.Acc} addressed by unit position. *)

open Sgl_relalg
open Sgl_lang

type compiled = {
  prog : Core_ir.program;
  plans : (string * Plan.t) list;
  kernels : (string * Loop_ir.Compile.kernel) list;
      (** Every plan lowered through {!Loop_ir.Lower} and compiled by
          {!Loop_ir.Compile} — the only row executor.  The evaluator is a
          run-time parameter of the kernels, so one [compiled] serves every
          tick and every evaluator a [Degrade] demotion switches to. *)
  width : int;
  rewrites : Rewrite.rewrite_stats;
  keyed : bool;
      (** Some plan has a [Core_ir.Key] effect target.  [run_tick] builds
          the tick's key table only when this holds. *)
}

exception Exec_error of string

(** Translate and (by default) optimize every entry script, then lower and
    compile each plan into its kernel.  [prove], indexed by script name,
    feeds interval facts into the rewrite's condition pruning (see
    {!Rewrite.simplify}); validation must then run with the same prover.
    [fold], indexed by script name, is the interval-fact constant-folding
    oracle handed to {!Loop_ir.Compile.compile} (and from there to
    {!Sgl_relalg.Expr.fold}). *)
val compile :
  ?optimize:bool ->
  ?prove:(string -> Expr.t -> bool option) ->
  ?fold:(string -> Expr.t -> Value.t option) ->
  Core_ir.program ->
  compiled

val find_plan : compiled -> string -> Plan.t option

(** Full-width working row for a unit. *)
val make_row : int -> Tuple.t -> Tuple.t

type group = {
  script : string;
  members : int array; (* indexes into the tick's unit array *)
}

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
    and leave the combined effects in [acc].

    [acc] is emptied first ({!Sgl_relalg.Combine.Acc.reset}, growing it to
    the population when needed), then addressed by position in [units]:
    a unit's effects land in slot [p] where [units.(p)] is the unit.  A
    simulation passes the one accumulator it owns, so the tick allocates
    no slot array.  [Key] targets resolve to positions through an int
    table built once per tick, and only when some plan has one.

    [evaluator.prepare] opens the tick first, with [delta] (what changed
    since the previous tick's unit array) so the cross-tick index cache can
    revalidate instead of rebuilding; omitting it is always sound (cold
    tick).  [cols] is the column store of [units] (same rows, same order):
    it is forwarded to the evaluator, whose index builds scan typed
    columns.  Raises [Invalid_argument] when [cols] does not have the
    length of [units] or some row of it is not of schema arity; no later
    reader checks again.

    Every group runs its script's kernel on the calling domain into one
    accumulator, after the ["exec.group"] injection point.  Kernels run
    {!Sgl_relalg.Expr.eval} over constant-folded expressions and fusion
    only permutes contributions to the commutative accumulator (rule V003
    validates each lowering), so a tick equals the reference interpreter's
    ({!Sgl_lang.Interp}) under any evaluator.

    Raises {!Group_failed} when a group raises; [acc] then holds a partial
    tick (the next call empties it), and the caller decides whether to
    retry without that script. *)
val run_tick :
  ?delta:Delta.t ->
  cols:Colstore.t ->
  acc:Combine.Acc.t ->
  compiled ->
  evaluator:Eval.t ->
  units:Tuple.t array ->
  groups:group list ->
  rand_for:(key:int -> int -> int) ->
  unit
