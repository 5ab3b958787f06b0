(** Effect-commutativity race detection (rules R001-R004): per-script
    read/write attribute sets over the closed core IR, checked against the
    ⊕-safety preconditions the fused kernels' reordering and the
    incremental index cache assume. *)

open Sgl_lang

type target_kind = K_self | K_key | K_all

val target_kind_name : target_kind -> string

type write = {
  attr : int;
  target : target_kind;
}

type summary = {
  script : string;
  reads : int list; (* schema attributes read (via u or e), sorted *)
  writes : write list; (* effect-clause updates, in body order *)
}

val summarize_script : Core_ir.program -> Core_ir.script -> summary
val summarize : Core_ir.program -> summary list

(** Run R001-R004.  [post_reads] lists the effect attributes the engine's
    post-processing/movement phases consume (see
    {!Sgl_engine.Postprocess.reads}); omitting it treats every effect as
    unconsumed downstream.  [pos_of] recovers a declaration's source
    position (defaults to {!Ast.no_pos}). *)
val check :
  ?post_reads:int list ->
  ?pos_of:(string -> Ast.pos) ->
  Core_ir.program ->
  Diagnostic.t list
