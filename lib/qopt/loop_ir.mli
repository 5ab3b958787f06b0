(** The fused loop IR (the execution-layer counterpart of {!Plan}).

    A {!Plan.t} walks a set of rows tree-at-a-time: every [Bind] touches
    every live row, every [Select] re-partitions, every [Act] loops again.
    {!Lower} flattens that tree into an imperative loop program whose
    straight-line stretches — scalar binds and self/key effect emissions —
    fuse into a single pass over the live rows, with explicit batch
    boundaries only where the pluggable evaluator genuinely needs a batch
    (aggregate binds, area-of-effect combination).  {!Compile} then
    specializes the loop program once, composing one closure per operation
    into a kernel of type [env -> rows -> rands -> unit]; every expression
    is constant-folded once ({!Sgl_relalg.Expr.fold}) and evaluated per
    row by {!Sgl_relalg.Expr.eval}, over one evaluation context per row
    per pass.  Kernels are the engine's only row executor
    ({!Exec.run_tick} runs every script group through one).

    Soundness: effects combine through the associative-commutative-
    idempotent ⊕, and each row's random stream is a pure function keyed by
    [~tick ~key], so fusing per-set passes into per-row passes — and
    splitting one [Act]'s clause list into fused emissions plus batch AoE
    ops — permutes only the order in which contributions meet ⊕.  Rule
    V003 ({!Sgl_analysis.Plan_check}) validates every lowering by
    comparing guarded effect clauses; the conformance harness pins the
    kernels bit-identical against the reference interpreter
    ({!Sgl_lang.Interp}). *)

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
      compiled kernel serves every tick and degraded retry.  [units] is
      the tick's unit array; [find_key k] is the position in it of the
      unit keyed [k] (the last such unit), or [-1] when there is none; and
      [acc] is the tick's accumulator, addressed by those positions. *)
  type env = {
    evaluator : Eval.t;
    units : Tuple.t array;
    find_key : int -> int;
    acc : Combine.Acc.t;
  }

  (** A specialized kernel: run the loop program over one group's
      full-width working rows and their per-row random streams,
      accumulating effects into [env.acc].  [members.(i)] is the position
      in [env.units] of the unit behind [rows.(i)]: a [Self] emission
      from that row lands in slot [members.(i)], a [Key] emission in the
      slot [env.find_key] names, with no key hashing on the [Self] path. *)
  type kernel = env -> members:int array -> rows:Tuple.t array -> rands:(int -> int) array -> unit

  (** Compile a loop program once into composed closures.  Every
      expression of the program (binds, effect updates and keys, partition
      guards) is folded once by {!Sgl_relalg.Expr.fold} and run by
      {!Sgl_relalg.Expr.eval}, so results and errors are the interpreter's.
      [oracle] is an external constant-folding oracle (interval facts): an
      expression it pins folds to the constant even over dynamic reads.
      It must only answer when every store the kernel can meet evaluates
      the expression to exactly that value — {!Sgl_analysis} derives such
      oracles from the abstract domain. *)
  val compile : ?oracle:(Expr.t -> Value.t option) -> t -> kernel
end
