(** Plan translation validation (rules V001, V002, V003): every optimizer
    output must be executable (registers bound before use, effects on
    tagged in-range attributes), ⊕-equivalent in guarded-effect structure
    to the unrewritten translation, and preserved by the kernel compiler's
    lowering to the loop IR. *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt

(** V001: executable shape of one plan. *)
val validate_shape :
  schema:Schema.t ->
  aggs:Aggregate.t array ->
  script:string ->
  ?pos:Ast.pos ->
  Plan.t ->
  Diagnostic.t list

(** Normalized multiset of guarded effects: each reachable [Act] with its
    set-normalized non-constant guards (constant guards — and guards the
    optional [prove] decides — are discharged the way pruning does).
    Exposed for tests. *)
val guarded_effects :
  ?prove:(Expr.t -> bool option) ->
  Plan.t ->
  ((bool * Sgl_relalg.Expr.t) list * Core_ir.effect_clause list) list

(** V002: guarded-effect ⊕-equivalence of a rewrite.  When the rewrite ran
    with an interval-fact prover, the same [prove] must be supplied here so
    both sides discharge the same guards. *)
val validate_rewrite :
  script:string ->
  ?pos:Ast.pos ->
  ?prove:(Expr.t -> bool option) ->
  original:Plan.t ->
  optimized:Plan.t ->
  unit ->
  Diagnostic.t list

(** V003: lowering ⊕-equivalence — the loop program {!Sgl_qopt.Loop_ir}
    lowers from the optimized plan must carry the same guarded effect
    clauses (compared at clause granularity, since lowering splits an
    [Act]'s clause list into fused emissions and batch AoE ops). *)
val validate_lowering :
  script:string -> ?pos:Ast.pos -> ?prove:(Expr.t -> bool option) -> Plan.t -> Diagnostic.t list

(** Translate every script, rewrite it (unless [optimize] is [false]), and
    run all three checks on the result.  [prove], indexed by script name,
    feeds interval facts into the rewrite and — symmetrically — into the
    guard normalization of both validators. *)
val validate_program :
  ?optimize:bool ->
  ?pos_of:(string -> Ast.pos) ->
  ?prove:(string -> Expr.t -> bool option) ->
  Core_ir.program ->
  Diagnostic.t list
