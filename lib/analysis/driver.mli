(** The lint driver: every pass family over one program, diagnostics
    merged and sorted ({!Diagnostic.sort}). *)

open Sgl_relalg
open Sgl_lang

(** Map one collect-all typechecker diagnostic onto the rule catalogue:
    const-write rejections become R001, everything else T001. *)
val of_type_diagnostic : Typecheck.diagnostic -> Diagnostic.t

(** Core-IR passes only (effect races, aggregate strategy lints, value
    ranges, plan validation) — for programs assembled through the
    library API, which never meet the typechecker.  [post_reads] as in
    {!Effect_race.check}. *)
val analyze_core :
  ?post_reads:int list ->
  ?pos_of:(string -> Ast.pos) ->
  Core_ir.program ->
  Diagnostic.t list

(** Full pipeline over a parsed program: AST lints, collect-all
    typechecking, then (only when no error-severity diagnostic was
    produced) compilation and the core-IR passes. *)
val analyze_ast :
  ?consts:(string * Value.t) list ->
  ?post_reads:int list ->
  schema:Schema.t ->
  Ast.program ->
  Diagnostic.t list

(** [analyze_source] parses first; a lex/parse failure is returned as
    [Error message] since there is no program to attach diagnostics to. *)
val analyze_source :
  ?consts:(string * Value.t) list ->
  ?post_reads:int list ->
  schema:Schema.t ->
  string ->
  (Diagnostic.t list, string) result
