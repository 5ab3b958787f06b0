(* The lint driver: run every pass family over one SGL program and merge
   the diagnostics.

   Pipeline for surface programs ([analyze_ast] / [analyze_source]):

   1. AST lints (P004/P005) — they need the un-normalized text.
   2. Collect-all typechecking.  Each diagnostic is mapped onto the rule
      catalogue: const-write rejections become R001 (the typechecker is
      the front line of the effect-race family for SGL source), everything
      else is T001.
   3. If any error-severity diagnostic exists, stop: the later passes need
      a well-typed program to compile.
   4. Compile to closed core IR, then run the effect-race detector, the
      aggregate strategy lints, the interval analysis (N rules) and the
      plan translation validator — the latter with a range-trusting
      interval-fact prover plugged in, so the most aggressive
      guard-discharging rewrite is itself validated.

   Core-IR programs assembled through the library API (which never meet
   the typechecker) go straight to step 4 via [analyze_core]. *)

open Sgl_relalg
open Sgl_lang

(* The typechecker's const-write rejection is rule R001 wearing its
   front-line hat; match on the stable fragment of the message. *)
let is_const_write_message m =
  let needle = "is const and cannot be the subject of an effect" in
  let nl = String.length needle and ml = String.length m in
  let rec at i = i + nl <= ml && (String.sub m i nl = needle || at (i + 1)) in
  at 0

let of_type_diagnostic (d : Typecheck.diagnostic) : Diagnostic.t =
  let rule = if is_const_write_message d.Typecheck.message then "R001" else "T001" in
  Rules.diag ~pos:d.Typecheck.pos ~rule "%s" d.Typecheck.message

let analyze_core ?(post_reads : int list = []) ?(pos_of : string -> Ast.pos = fun _ -> Ast.no_pos)
    (prog : Core_ir.program) : Diagnostic.t list =
  let oracle = Absint.make_oracle ~trust_ranges:true prog in
  Diagnostic.sort
    (Effect_race.check ~post_reads ~pos_of prog
    @ Perf_lint.check_aggregates ~pos_of prog
    @ Absint.check ~pos_of prog
    @ Plan_check.validate_program ~pos_of ~prove:oracle.Absint.prove prog)

let analyze_ast ?(consts : (string * Value.t) list = []) ?(post_reads : int list = [])
    ~(schema : Schema.t) (prog : Ast.program) : Diagnostic.t list =
  let ast_diags = Perf_lint.check_ast ~consts prog in
  let type_diags = List.map of_type_diagnostic (Typecheck.check_all ~consts ~schema prog) in
  let front = ast_diags @ type_diags in
  if List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.severity = Diagnostic.Error) front
  then Diagnostic.sort front
  else begin
    let pos_of name =
      match Ast.find_decl prog name with
      | Some d -> Ast.decl_pos d
      | None -> Ast.no_pos
    in
    let core = Compile.compile_ast ~consts ~schema prog in
    Diagnostic.sort (front @ analyze_core ~post_reads ~pos_of core)
  end

let analyze_source ?consts ?post_reads ~schema (source : string) :
    (Diagnostic.t list, string) result =
  match Compile.parse source with
  | prog -> Ok (analyze_ast ?consts ?post_reads ~schema prog)
  | exception Compile.Compile_error e -> Error (Compile.error_to_string e)
