(** The fused loop IR (the execution-layer counterpart of {!Plan}).

    A {!Plan.t} walks a set of rows tree-at-a-time: every [Bind] touches
    every live row, every [Select] re-partitions, every [Act] loops again.
    {!Lower} flattens that tree into an imperative loop program whose
    straight-line stretches — scalar binds and self/key effect emissions —
    fuse into a single pass over the live rows, with explicit batch
    boundaries only where the pluggable evaluator genuinely needs a batch
    (aggregate binds, area-of-effect combination).  {!Compile} then
    specializes the loop program once, composing one closure per operation
    into a kernel of type [env -> rows -> rands -> unit]; running a tick
    executes the composed closures with no plan walking, no evaluation-
    context allocation, and constant subexpressions folded away.

    Soundness: effects combine through the associative-commutative-
    idempotent ⊕, and each row's random stream is a pure function keyed by
    [~tick ~key], so fusing per-set passes into per-row passes — and
    splitting one [Act]'s clause list into fused emissions plus batch AoE
    ops — permutes only the order in which contributions meet ⊕.  Rule
    V003 ({!Sgl_analysis.Plan_check}) validates every lowering by
    comparing guarded effect clauses; the conformance harness pins the
    kernels bit-identical against the interpreted evaluators. *)

open Sgl_relalg
open Sgl_lang

(** One operation of a fused pass, applied to each live row in turn. *)
type step =
  | Bind_col of int * Expr.t  (** write register [slot] (extended projection π) *)
  | Emit of Core_ir.effect_clause
      (** accumulate a [Self]/[Key] effect clause ([All] clauses are batch
          ops, never steps) *)

(** A loop program over the live-row selection. *)
type t =
  | Halt
  | Pass of step list * t  (** one fused loop over the live rows, then continue *)
  | Agg_fill of { slot : int; agg_id : int; next : t }
      (** batch boundary: evaluate aggregate [agg_id] for every live row
          through the evaluator, landing the answers in [slot] *)
  | Aoe of Core_ir.effect_clause * t
      (** batch boundary: combine an area-of-effect clause over the live
          rows through the evaluator *)
  | Partition of Expr.t * t * t  (** split the live rows on a condition (σ) *)
  | Fanout of t list  (** run several programs over the same live rows *)

(** Acts reachable in the program, each tagged with its guard stack — at
    clause granularity, for the V003 lowering validation.  Guards carry
    the branch polarity like {!Plan.guarded_acts}. *)
val guarded_clauses : t -> ((bool * Expr.t) list * Core_ir.effect_clause) list

type stats = {
  passes : int;
  fused_steps : int;  (** steps across all passes; > passes means fusion happened *)
  agg_fills : int;
  partitions : int;
  aoes : int;
}

val stats : t -> stats
val pp : t Fmt.t

module Lower : sig
  (** [lower plan] translates an optimized plan to the loop IR, fusing
      adjacent scalar binds and self/key emissions into single passes —
      including across [Both] arms whose programs are pure passes.  The
      result is ⊕-equivalent to [plan] by construction; V003 checks it
      anyway. *)
  val lower : Plan.t -> t
end

module Compile : sig
  (** Everything a kernel needs at run time beyond the rows themselves.
      The evaluator is a parameter (not baked in at compile time) so one
      compiled kernel serves every tick and degraded retry.
      [cols]/[ids] give scalar binds a columnar fast path: when [cols]
      mirrors the tick's unit array and [ids.(i)] is the unit id behind
      working row [i], float-typed [Bind_col] steps load operands straight
      from the typed columns (bit-identical to the boxed evaluation; see
      {!boxed_binds} for the exact eligibility rules).  [cols = None]
      (or a mismatched id map) runs every step on the boxed path. *)
  type env = {
    evaluator : Eval.t;
    find_key : int -> Tuple.t option;
    acc : Combine.Acc.t;
    cols : Colstore.t option;
    ids : int array;
  }

  (** A specialized kernel: run the loop program over one group's
      full-width working rows and their per-row random streams,
      accumulating effects into [env.acc]. *)
  type kernel = env -> rows:Tuple.t array -> rands:(int -> int) array -> unit

  (** Compile a loop program once into composed closures.  Expression
      evaluation mirrors {!Sgl_relalg.Expr.eval} operation-for-operation
      (bit-identical results, including error behaviour), with
      [Random]-free constant subtrees folded at compile time.  [fold] is
      an external constant-folding oracle (interval facts): an expression
      it pins compiles to the constant even when the structural folder
      sees dynamic reads.  The oracle must only answer when every store
      the kernel can meet evaluates the expression to exactly that value
      — {!Sgl_analysis} derives such oracles from the abstract domain. *)
  val compile : ?fold:(Expr.t -> Value.t option) -> schema:Schema.t -> t -> kernel

  (** The scalar binds of [p] that stay on the boxed-row path even when a
      columnar mirror is available — i.e. the kernel materializes tuples
      inside its per-row loop for them.  A bind specializes to a column
      load only when its expression is float-guaranteed over column-backed
      schema attributes through [+ - * / neg abs sqrt min max] (operations
      whose float semantics are the plain primitives, keeping the two
      paths bit-identical) and no step of [p] writes a schema slot.  Perf
      lint P006 reports what this returns. *)
  val boxed_binds : schema:Schema.t -> t -> (int * Expr.t) list
end
