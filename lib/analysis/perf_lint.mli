(** Performance lints (rules P001-P005): aggregate instances that defeat
    the index planner (tied to {!Sgl_qopt.Agg_plan.analyze}) and script
    text the optimizer will silently discard. *)

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
