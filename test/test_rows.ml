(* Committed unit rows are immutable and shared.

   No phase may write into a row of a committed unit array: the
   transactional tick rolls back by swapping one pointer, and the previous
   array must still read exactly as it did.  Rows are copied on change
   only, so a unit nothing happened to keeps the very same row from one
   commit to the next — the property that makes post-processing and
   movement cost per changed unit, not per unit.  And what counts as a
   change is what the digest and the columnar store can see: tag and bits,
   not numeric equality. *)

open Sgl_util
open Sgl_relalg
open Sgl_engine
open Sgl_battle

let with_injection f = Fun.protect ~finally:Fault_inject.reset f

let same_row (a : Tuple.t) (b : Tuple.t) =
  Array.length a = Array.length b && Array.for_all2 Value.identical a b

let same_rows (a : Tuple.t array) (b : Tuple.t array) =
  Array.length a = Array.length b && Array.for_all2 same_row a b

(* Step [sim] [ticks] times.  After each step the array committed before
   it must still equal the deep copy taken before it, slot for slot and
   bit for bit. *)
let check_immutable ~(msg : string) ~(ticks : int) (sim : Simulation.t) : unit =
  for tick = 1 to ticks do
    let committed = Simulation.units sim in
    let snapshot = Array.map Tuple.copy committed in
    Simulation.step sim;
    if not (same_rows committed snapshot) then
      Alcotest.failf "%s: tick %d wrote into the previously committed array" msg tick
  done

let battle ?fault_policy ?(resurrect = true) ~evaluator () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 40) () in
  Scenario.simulation ~seed:11 ~resurrect ?fault_policy ~evaluator scenario

let sentry evaluator = Test_incremental.sentry_sim ~churn:10 ~n:120 evaluator

let immutable_across_engines () =
  let evaluators = [ Simulation.Naive; Simulation.Indexed; Simulation.Fused ] in
  List.iter
    (fun evaluator ->
      let name = Simulation.evaluator_name evaluator in
      check_immutable ~msg:("battle, resurrect, " ^ name) ~ticks:25 (battle ~evaluator ());
      check_immutable ~msg:("sentry, " ^ name) ~ticks:25 (sentry evaluator))
    evaluators

let immutable_with_remove () =
  let sim = battle ~resurrect:false ~evaluator:Simulation.Indexed () in
  let n0 = Array.length (Simulation.units sim) in
  check_immutable ~msg:"battle, remove" ~ticks:30 sim;
  Alcotest.(check bool) "units were removed" true (Array.length (Simulation.units sim) < n0)

(* A Degrade retry: the injected post-processing fault rolls the tick
   back after the decision phase ran, the evaluator is demoted and the
   tick is retried.  Neither attempt may touch the committed rows. *)
let immutable_under_degrade () =
  with_injection (fun () ->
      Fault_inject.arm ~point:"post.apply" (Fault_inject.At_count 3);
      let sim = battle ~fault_policy:Simulation.Degrade ~evaluator:Simulation.Fused () in
      check_immutable ~msg:"battle, degrade after post.apply fault" ~ticks:8 sim;
      Alcotest.(check int) "one retry" 1 (Simulation.retries sim))

(* Copy-on-change, strong form, on a population that keeps its order (no
   deaths): a row whose contents did not change is the very same row, and
   idle units exist, so a regression to copying every row fails here. *)
let idle_rows_shared () =
  List.iter
    (fun evaluator ->
      let sim = sentry evaluator in
      for tick = 1 to 20 do
        let before = Simulation.units sim in
        Simulation.step sim;
        let after = Simulation.units sim in
        let shared = ref 0 in
        Array.iteri
          (fun i b ->
            let a = after.(i) in
            if a == b then incr shared
            else if same_row a b then
              Alcotest.failf "%s tick %d: unit %d was copied without a change"
                (Simulation.evaluator_name evaluator) tick i)
          before;
        (* unit 2 is a static: no script, no effects, no movement *)
        Alcotest.(check bool) "a static unit's row is shared" true (after.(2) == before.(2));
        Alcotest.(check bool) "most rows are shared" true (!shared > Array.length before / 2)
      done)
    [ Simulation.Indexed; Simulation.Fused ]

(* ------------------------------------------------------------------ *)
(* Numerically-equal writes must reach the delta *)

(* Four units whose int counter post-processing rewrites as
   [max(0.0, cd - 1)]: on the first tick [Int 0] becomes [Float 0.] —
   equal as numbers, different to the digest.  The incremental digest
   re-encodes only the columns the delta names, so it must agree with a
   full pass. *)
let retagged_write_reaches_digest () =
  let schema = Test_incremental.sentry_schema () in
  let cd = Schema.find schema "sightings" in
  let config =
    {
      Simulation.prog =
        Sgl_lang.Compile.compile
          ~consts:[ ("THRESH", Value.Int 1); ("CHURN", Value.Int 0) ]
          ~schema Test_incremental.sentry_behaviour;
      script_of = (fun _ -> None);
      postprocess =
        Postprocess.make ~schema
          ~updates:
            [ (cd, Expr.(MaxOf (Const (Value.Float 0.), Binop (Sub, UAttr cd, Const (Value.Int 1)))))
            ]
          ~remove_when:(Expr.Const (Value.Bool false));
      movement = None;
      death = Simulation.Remove;
      seed = 1;
      optimize = true;
    }
  in
  let units = Array.sub (Test_incremental.sentry_units schema ~n:4) 0 4 in
  let sim = Simulation.create config ~evaluator:Simulation.Indexed ~units in
  ignore (Simulation.state_digest sim);
  for tick = 1 to 3 do
    let before = Simulation.units sim in
    Simulation.step sim;
    Alcotest.(check int)
      (Printf.sprintf "tick %d: incremental digest = full digest" tick)
      (Sgl_persist.Codec.units_digest (Simulation.units sim))
      (Simulation.state_digest sim);
    let truth = Delta.of_tuples ~schema ~before ~after:(Simulation.units sim) in
    if tick = 1 then
      Alcotest.(check (list int)) "the retag is a change" [ cd ] (Delta.dirty_attrs truth);
    match Simulation.last_delta sim with
    | Some summary when Delta.covers ~summary ~truth -> ()
    | _ -> Alcotest.failf "tick %d: the recorded delta misses the retag" tick
  done

let suite =
  let tc = Alcotest.test_case in
  [
    ( "rows.immutable",
      [
        tc "no engine writes into a committed row" `Quick immutable_across_engines;
        tc "Remove deaths keep committed rows intact" `Quick immutable_with_remove;
        tc "a Degrade retry keeps committed rows intact" `Quick immutable_under_degrade;
      ] );
    ("rows.shared", [ tc "unchanged rows are shared between commits" `Quick idle_rows_shared ]);
    ( "rows.delta",
      [ tc "a numerically-equal retag reaches the digest" `Quick retagged_write_reaches_digest ] );
  ]
