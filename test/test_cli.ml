(* Integration tests for the command-line tools, run against the built
   executables (declared as test dependencies in test/dune). *)

let bin name = Filename.concat (Filename.concat ".." "bin") (name ^ ".exe")

(* Run a command, capturing stdout+stderr and the exit code. *)
let run_command cmd =
  let tmp = Filename.temp_file "sgl_cli" ".out" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd tmp) in
  let ic = open_in tmp in
  let n = in_channel_length ic in
  let out = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  (code, out)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let write_script path source =
  let oc = open_out path in
  output_string oc source;
  close_out oc

let good_script =
  {|
aggregate C(u) { count(*) where e.player <> u.player }
action A(u) { on self { damage <- 1; } }
script main(u) { let c = C(u); if c > 0 then { perform A(u); } }
|}

let bad_script = "script main(u) { let x = unknown_thing + 1; skip; }"

let test_sgl_check_accepts () =
  let path = Filename.temp_file "good" ".sgl" in
  write_script path good_script;
  let code, out = run_command (Printf.sprintf "%s %s" (bin "sgl_check") path) in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports OK" true (contains ~needle:"OK" out);
  Alcotest.(check bool) "counts instances" true (contains ~needle:"1 aggregate instances" out)

let test_sgl_check_rejects () =
  let path = Filename.temp_file "bad" ".sgl" in
  write_script path bad_script;
  let code, out = run_command (Printf.sprintf "%s %s" (bin "sgl_check") path) in
  Sys.remove path;
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "names the unknown" true (contains ~needle:"unknown_thing" out)

let test_sgl_check_explain () =
  let path = Filename.temp_file "good" ".sgl" in
  write_script path good_script;
  let code, out = run_command (Printf.sprintf "%s %s --explain" (bin "sgl_check") path) in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "shows instances" true (contains ~needle:"agg#0" out);
  Alcotest.(check bool) "shows plans" true (contains ~needle:"script main" out)

let test_sgl_check_dump_ast_reparses () =
  let path = Filename.temp_file "good" ".sgl" in
  write_script path good_script;
  let code, out = run_command (Printf.sprintf "%s %s --dump-ast" (bin "sgl_check") path) in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  (* the dumped AST must itself be valid SGL *)
  ignore (Sgl_lang.Parser.parse_string out)

let test_sgl_check_lint_clean () =
  let code, out =
    run_command
      (Printf.sprintf "%s ../examples/scripts/plague.sgl --lint --werror" (bin "sgl_check"))
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "summary line" true (contains ~needle:"0 error(s)" out)

let test_sgl_check_lint_flags_fixture () =
  let code, out =
    run_command
      (Printf.sprintf "%s ../examples/lint_fixtures/r003_pending_read.sgl --lint --werror"
         (bin "sgl_check"))
  in
  Alcotest.(check int) "warnings gate under --werror" 1 code;
  Alcotest.(check bool) "names the rule" true (contains ~needle:"R003" out);
  (* without --werror the warning is reported but does not gate *)
  let code, _ =
    run_command
      (Printf.sprintf "%s ../examples/lint_fixtures/r003_pending_read.sgl --lint" (bin "sgl_check"))
  in
  Alcotest.(check int) "warning alone exits 0" 0 code

let test_sgl_check_lint_json () =
  let code, out =
    run_command
      (Printf.sprintf "%s ../examples/lint_fixtures/p004_dead_let.sgl --lint-json" (bin "sgl_check"))
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "JSON carries the rule" true (contains ~needle:"\"rule\": \"P004\"" out);
  Alcotest.(check bool) "JSON carries the position" true (contains ~needle:"\"line\":" out)

let test_battle_sim_runs () =
  let code, out =
    run_command (Printf.sprintf "%s --units 60 --ticks 5 --evaluator indexed" (bin "battle_sim"))
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports ticks" true (contains ~needle:"ticks=5" out);
  Alcotest.(check bool) "wall clock" true (contains ~needle:"wall clock" out)

let test_battle_sim_naive_matches () =
  let run ev =
    let _, out =
      run_command
        (Printf.sprintf "%s --units 40 --ticks 8 --evaluator %s --seed 9" (bin "battle_sim") ev)
    in
    (* the death count is state-dependent: equal counts mean equal battles *)
    out
  in
  (* extract the digits following "needle=" *)
  let pick needle out =
    let pat = needle ^ "=" in
    let pl = String.length pat and hl = String.length out in
    let rec find i = if i + pl > hl then None else if String.sub out i pl = pat then Some (i + pl) else find (i + 1) in
    match find 0 with
    | None -> "?"
    | Some start ->
      let stop = ref start in
      while !stop < hl && out.[!stop] >= '0' && out.[!stop] <= '9' do incr stop done;
      String.sub out start (!stop - start)
  in
  let a = run "naive" and b = run "indexed" in
  Alcotest.(check string) "same deaths" (pick "deaths" a) (pick "deaths" b)

let test_battle_sim_bad_evaluator () =
  let code, _ = run_command (Printf.sprintf "%s --evaluator warp9 --ticks 1" (bin "battle_sim")) in
  Alcotest.(check bool) "fails" true (code <> 0)

(* --domains picks the parallel evaluator's domain count; it must not
   silently replace an evaluator that has no domains. *)
let test_battle_sim_domains_conflict () =
  let run flags =
    run_command (Printf.sprintf "%s --units 40 --ticks 2 %s" (bin "battle_sim") flags)
  in
  List.iter
    (fun ev ->
      let code, out = run ("--evaluator " ^ ev ^ " --domains 2") in
      Alcotest.(check bool) (ev ^ " + --domains fails") true (code <> 0);
      Alcotest.(check bool) (ev ^ ": error names --domains") true
        (contains ~needle:"--domains" out);
      Alcotest.(check bool) (ev ^ ": error names --evaluator " ^ ev) true
        (contains ~needle:("--evaluator " ^ ev) out))
    [ "naive"; "fused" ];
  List.iter
    (fun ev ->
      let code, out = run ("--evaluator " ^ ev ^ " --domains 2") in
      Alcotest.(check int) (ev ^ " + --domains runs") 0 code;
      Alcotest.(check bool) (ev ^ " + --domains runs parallel:2") true
        (contains ~needle:"evaluator parallel:2" out))
    [ "indexed"; "parallel" ]

let suite =
  let tc = Alcotest.test_case in
  [
    ( "cli.sgl_check",
      [
        tc "accepts a valid script" `Quick test_sgl_check_accepts;
        tc "rejects and names errors" `Quick test_sgl_check_rejects;
        tc "--explain shows plans" `Quick test_sgl_check_explain;
        tc "--dump-ast emits valid SGL" `Quick test_sgl_check_dump_ast_reparses;
        tc "--lint passes clean scripts" `Quick test_sgl_check_lint_clean;
        tc "--lint flags a fixture, --werror gates" `Quick test_sgl_check_lint_flags_fixture;
        tc "--lint-json emits rule and position" `Quick test_sgl_check_lint_json;
      ] );
    ( "cli.battle_sim",
      [
        tc "runs and reports" `Quick test_battle_sim_runs;
        tc "naive and indexed battles match" `Quick test_battle_sim_naive_matches;
        tc "bad evaluator rejected" `Quick test_battle_sim_bad_evaluator;
        tc "--domains conflicts with naive and fused" `Quick test_battle_sim_domains_conflict;
      ] );
  ]
