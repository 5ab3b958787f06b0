(* sgl_check — the SGL compiler driver.

   Parses, type-checks, normalizes and resolves an .sgl file against the
   battle schema (the default) and reports what the optimizer would do:
   the aggregate instance table with chosen index strategies and the
   optimized per-script plans.

     dune exec bin/sgl_check.exe -- examples/scripts/patrol.sgl --explain

   With --lint it runs the static analyzer instead: effect-race rules
   (R00x), plan translation validation (V00x), performance lints (P00x)
   and interval value-range findings (N00x), reported one grep-friendly
   line per finding or as a JSON array (--lint-json).  --werror promotes
   warnings to the failing exit code (infos never gate).  --battle lints
   the built-in battle scripts instead of a file. *)

open Cmdliner
open Sgl

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type dump = Summary | Tokens | Ast | Normal | Core | Explain | Lint

(* The engine phases downstream of script evaluation: the battle
   post-processing query plus the movement integrator's vector reads.
   Effects consumed only there are still live (not R004). *)
let post_reads schema =
  List.sort_uniq compare
    (Schema.find schema "movevect_x" :: Schema.find schema "movevect_y"
    :: Postprocess.reads (Postprocess.battle_spec ~schema))

let run_lint ~(path : string) ~(source : string) ~(json : bool) ~(werror : bool)
    ~(no_post_reads : bool) : int =
  let schema = Battle.Unit_types.schema () in
  let consts = Battle.Scripts.constants in
  let post_reads = if no_post_reads then [] else post_reads schema in
  match Analysis.Driver.analyze_source ~consts ~post_reads ~schema source with
  | Error msg ->
    Fmt.epr "%s: %s@." path msg;
    1
  | Ok diags ->
    if json then print_string (Analysis.Diagnostic.to_json ~file:path diags)
    else begin
      List.iter (fun d -> Fmt.pr "%s@." (Analysis.Diagnostic.to_string ~file:path d)) diags;
      let c = Analysis.Diagnostic.count diags in
      Fmt.pr "%s: %d error(s), %d warning(s), %d info(s)@." path c.Analysis.Diagnostic.errors
        c.Analysis.Diagnostic.warnings c.Analysis.Diagnostic.infos
    end;
    let c = Analysis.Diagnostic.count diags in
    if c.Analysis.Diagnostic.errors > 0 then 1
    else if werror && c.Analysis.Diagnostic.warnings > 0 then 1
    else 0

let run (path : string option) (battle : bool) (dump : dump) (json : bool) (werror : bool)
    (no_post_reads : bool) : int =
  let path, source =
    if battle then ("<battle built-ins>", Battle.Scripts.source)
    else
      match path with
      | Some p -> (p, read_file p)
      | None ->
        Fmt.epr "sgl_check: a FILE argument (or --battle) is required@.";
        exit 2
  in
  let schema = Battle.Unit_types.schema () in
  let consts = Battle.Scripts.constants in
  let dump = if json then Lint else dump in
  try
    match dump with
    | Lint -> run_lint ~path ~source ~json ~werror ~no_post_reads
    | Tokens ->
      List.iter
        (fun (lx : Lexer.lexed) ->
          Fmt.pr "%3d:%-3d %s@." lx.Lexer.line lx.Lexer.col (Lexer.token_name lx.Lexer.token))
        (Lexer.tokenize source);
      0
    | Ast ->
      Fmt.pr "%s@." (Pretty.program_to_string (Compile.parse source));
      0
    | Normal ->
      let ast = Compile.parse source in
      Typecheck.check ~consts ~schema ast;
      Fmt.pr "%s@." (Pretty.program_to_string (Normalize.normalize ast));
      0
    | Core ->
      let prog = compile ~consts ~schema source in
      Array.iteri
        (fun i agg -> Fmt.pr "agg#%d = %a@." i Aggregate.pp agg)
        prog.Core_ir.aggregates;
      List.iter
        (fun (s : Core_ir.script) ->
          Fmt.pr "@.script %s:@.%a@." s.Core_ir.name Core_ir.pp s.Core_ir.body)
        prog.Core_ir.scripts;
      0
    | Explain ->
      Fmt.pr "%s@." (explain ~consts ~schema source);
      0
    | Summary ->
      let prog = compile ~consts ~schema source in
      let n_scripts = List.length prog.Core_ir.scripts in
      let n_aggs = Array.length prog.Core_ir.aggregates in
      let strategies =
        Array.to_list prog.Core_ir.aggregates
        |> List.map (fun agg -> Agg_plan.strategy_name (Agg_plan.analyze schema agg))
        |> List.sort_uniq compare
      in
      Fmt.pr "%s: OK (%d entry scripts, %d aggregate instances; strategies: %s)@." path n_scripts
        n_aggs
        (String.concat ", " strategies);
      0
  with
  | Compile.Compile_error e ->
    Fmt.epr "%s: %s@." path (Compile.error_to_string e);
    1
  | Typecheck.Type_error m ->
    Fmt.epr "%s: type error: %s@." path m;
    1
  | Lexer.Lex_error m ->
    Fmt.epr "%s: lexical error: %s@." path m;
    1
  | Parser.Parse_error m ->
    Fmt.epr "%s: parse error: %s@." path m;
    1

let path_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"SGL source file")

let battle_arg =
  Arg.(value & flag & info [ "battle" ] ~doc:"Operate on the built-in battle scripts instead of a file.")

let dump_arg =
  let flags =
    [
      (Tokens, Arg.info [ "dump-tokens" ] ~doc:"Print the token stream.");
      (Ast, Arg.info [ "dump-ast" ] ~doc:"Pretty-print the parsed program.");
      (Normal, Arg.info [ "dump-normal" ] ~doc:"Pretty-print the normal form (aggregates hoisted into lets).");
      (Core, Arg.info [ "dump-core" ] ~doc:"Print the resolved core IR and aggregate instances.");
      (Explain, Arg.info [ "explain" ] ~doc:"Print optimized plans and index strategies.");
      (Lint, Arg.info [ "lint" ] ~doc:"Run the static analyzer (races, plan validation, performance lints, value ranges).");
    ]
  in
  Arg.(value & vflag Summary flags)

let json_arg =
  Arg.(value & flag & info [ "lint-json" ] ~doc:"With --lint, emit diagnostics as a JSON array.")

let werror_arg =
  Arg.(value & flag & info [ "werror" ] ~doc:"With --lint, exit non-zero on warnings too (infos never gate).")

let no_post_reads_arg =
  Arg.(
    value & flag
    & info [ "no-post-reads" ]
        ~doc:
          "With --lint, assume no engine post-processing consumes effects: R004 (dead \
           effect) fires for any effect attribute no script reads.")

let cmd =
  let doc = "check, explain and lint SGL scripts (Scalable Games Language)" in
  Cmd.v
    (Cmd.info "sgl_check" ~version:Sgl.version ~doc)
    Term.(
      const run $ path_arg $ battle_arg $ dump_arg $ json_arg $ werror_arg $ no_post_reads_arg)

let () = exit (Cmd.eval' cmd)
