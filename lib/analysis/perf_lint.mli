(** Performance lints (rules P001-P006): aggregate instances that defeat
    the index planner (tied to {!Sgl_qopt.Agg_plan.analyze}), script
    text the optimizer will silently discard, and binds the fused
    backend cannot specialize to columnar loads. *)

open Sgl_lang
open Sgl_relalg

(** P001 (naive scan fallback), P002 (enumerating probe residual), P003
    (extremal component without a sweepable window) per aggregate
    instance of the closed program. *)
val check_aggregates :
  ?pos_of:(string -> Ast.pos) -> Core_ir.program -> Diagnostic.t list

(** P004 (dead let binding), P005 (constant-foldable condition) over the
    surface AST.  [consts] are driver-supplied constants (same list passed
    to {!Sgl_lang.Compile.compile}); [D_const] declarations are picked up
    from the program itself. *)
val check_ast : ?consts:(string * Value.t) list -> Ast.program -> Diagnostic.t list

(** P006 (bind stays on the boxed-row path) per script of the closed
    program: each script's optimized plan is lowered through
    {!Sgl_qopt.Loop_ir.Lower} and its
    {!Sgl_qopt.Loop_ir.Compile.boxed_binds} reported — the binds for
    which the fused kernel materializes boxed tuples inside its per-row
    loop instead of loading from the column store. *)
val check_kernels : ?pos_of:(string -> Ast.pos) -> Core_ir.program -> Diagnostic.t list
