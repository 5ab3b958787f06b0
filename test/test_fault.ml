(* Fault tolerance: the injection registry, transactional ticks, and the
   three fault policies.

   The differential contract under test mirrors test_engine's: because
   every PRNG draw is keyed by [~tick ~key] and fused = indexed = naive
   bit-for-bit, a [Degrade] run that demotes mid-flight must land on
   exactly the states of a fault-free run of the weaker evaluator. *)

open Sgl_util
open Sgl_engine
open Sgl_battle

(* Every test that arms a point must disarm on any exit, or it poisons
   whichever test runs next. *)
let with_injection f = Fun.protect ~finally:Fault_inject.reset f

(* ------------------------------------------------------------------ *)
(* The injection registry *)

let inject_counting () =
  with_injection (fun () ->
      Fault_inject.reset ();
      (* unarmed points are inert *)
      Fault_inject.hit "eval.member";
      Alcotest.(check int) "unarmed: no calls recorded" 0 (Fault_inject.calls "eval.member");
      Fault_inject.arm ~point:"eval.member" (Fault_inject.At_count 3);
      Alcotest.(check (list string)) "armed list" [ "eval.member" ] (Fault_inject.armed_points ());
      Fault_inject.hit "eval.member";
      Fault_inject.hit "eval.member";
      let fired =
        try
          Fault_inject.hit "eval.member";
          false
        with Fault_inject.Injected { point; count } ->
          Alcotest.(check string) "point name" "eval.member" point;
          Alcotest.(check int) "fires on the 3rd call" 3 count;
          true
      in
      Alcotest.(check bool) "At_count fires" true fired;
      (* exactly once: the 4th call passes *)
      Fault_inject.hit "eval.member";
      Alcotest.(check int) "calls counted" 4 (Fault_inject.calls "eval.member");
      Alcotest.(check int) "fired once" 1 (Fault_inject.fired "eval.member");
      (* other points stay inert while one is armed *)
      Fault_inject.hit "exec.group";
      Fault_inject.reset ();
      Alcotest.(check (list string)) "reset disarms" [] (Fault_inject.armed_points ());
      Fault_inject.hit "eval.member";
      Alcotest.(check int) "reset forgets counters" 0 (Fault_inject.calls "eval.member"))

let inject_always () =
  with_injection (fun () ->
      Fault_inject.arm ~point:"index.build" Fault_inject.Always;
      for i = 1 to 5 do
        match Fault_inject.hit "index.build" with
        | () -> Alcotest.failf "call %d did not fire" i
        | exception Fault_inject.Injected { count; _ } ->
          Alcotest.(check int) "call number" i count
      done;
      Alcotest.(check int) "every call fires" 5 (Fault_inject.fired "index.build"))

let inject_prob_deterministic () =
  let pattern seed =
    with_injection (fun () ->
        Fault_inject.arm ~point:"post.apply" (Fault_inject.Prob { p = 0.3; seed });
        List.init 200 (fun _ ->
            match Fault_inject.hit "post.apply" with
            | () -> false
            | exception Fault_inject.Injected _ -> true))
  in
  let a = pattern 7 in
  Alcotest.(check (list bool)) "same seed, same firing calls" a (pattern 7);
  let fires l = List.length (List.filter Fun.id l) in
  Alcotest.(check bool) "p=0.3 fires sometimes, not always" true
    (fires a > 0 && fires a < 200);
  Alcotest.(check bool) "different seeds differ" true (a <> pattern 8)

let inject_parse () =
  let ok = Alcotest.(result (pair string (of_pp Fault_inject.pp_spec)) string) in
  let check_ok msg arg expected =
    match Fault_inject.parse_arg arg with
    | Ok (point, spec) ->
      Alcotest.check ok msg (Ok expected) (Ok (point, spec));
      Alcotest.(check bool) "specs equal" true (snd expected = spec);
      Alcotest.(check string) "points equal" (fst expected) point
    | Error e -> Alcotest.failf "%s: unexpected parse error %s" msg e
  in
  check_ok "always" "eval.member:always" ("eval.member", Fault_inject.Always);
  check_ok "count" "exec.group:count=3" ("exec.group", Fault_inject.At_count 3);
  check_ok "prob with seed" "index.build:p=0.25,seed=9"
    ("index.build", Fault_inject.Prob { p = 0.25; seed = 9 });
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "missing colon" true (is_error (Fault_inject.parse_arg "evalmember"));
  Alcotest.(check bool) "bad spec" true (is_error (Fault_inject.parse_arg "eval.member:sometimes"));
  Alcotest.(check bool) "bad count" true (is_error (Fault_inject.parse_arg "eval.member:count=x"));
  Alcotest.(check bool) "p out of range" true (is_error (Fault_inject.parse_arg "eval.member:p=1.5"))

let inject_unknown_point () =
  with_injection (fun () ->
      let rejected =
        try
          Fault_inject.arm ~point:"no.such.point" Fault_inject.Always;
          false
        with Invalid_argument _ -> true
      in
      Alcotest.(check bool) "arm rejects unknown points" true rejected)

(* ------------------------------------------------------------------ *)
(* The fault log *)

let log_bounded () =
  let log = Fault.Log.create ~capacity:3 () in
  let fault i =
    Fault.make ~tick:i ~phase:Fault.Post ~evaluator:"indexed" (Failure (Fmt.str "f%d" i))
      (Printexc.get_callstack 0)
  in
  for i = 1 to 10 do
    Fault.Log.push log (fault i)
  done;
  Alcotest.(check int) "total counts everything" 10 (Fault.Log.total log);
  Alcotest.(check int) "dropped past capacity" 7 (Fault.Log.dropped log);
  Alcotest.(check (list int)) "keeps the first faults verbatim" [ 1; 2; 3 ]
    (List.map (fun f -> f.Fault.tick) (Fault.Log.to_list log))

(* ------------------------------------------------------------------ *)
(* Satellite error paths *)

let trace_after_close () =
  let path = Filename.temp_file "sgl_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = Unit_types.schema () in
      let t = Trace.create ~path ~schema:s ~attrs:[ "key"; "posx" ] in
      Trace.close t;
      Trace.close t (* idempotent *);
      let raised =
        try
          Trace.record t ~tick:1 [||];
          false
        with Trace.Trace_error _ -> true
      in
      Alcotest.(check bool) "record after close raises Trace_error" true raised)

let trace_unknown_attr () =
  let s = Unit_types.schema () in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let raised =
    try
      ignore (Trace.create ~path:"/tmp/never_created.csv" ~schema:s ~attrs:[ "key"; "charisma" ]);
      false
    with Trace.Trace_error msg ->
      Alcotest.(check bool) "message names the attribute" true (contains ~sub:"charisma" msg);
      true
  in
  Alcotest.(check bool) "unknown attribute raises Trace_error" true raised

let exec_unknown_script () =
  let open Sgl_qopt in
  let prog = Scripts.compile () in
  let compiled = Exec.compile prog in
  let schema = prog.Sgl_lang.Core_ir.schema in
  let units =
    [| Unit_types.make_unit schema ~key:0 ~player:0 ~klass:D20.Knight ~x:1 ~y:1 |]
  in
  let evaluator = Test_qopt.indexed_of schema prog in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let raised =
    try
      ignore
        (Test_qopt.run_tick compiled ~evaluator ~units
           ~groups:[ { Exec.script = "necromancer"; members = [| 0 |] } ]
           ~rand_for:(fun ~key:_ _ -> 0));
      false
    with Exec.Group_failed { gf_exn = Exec.Exec_error msg; _ } ->
      Alcotest.(check bool) "message names the script" true (contains ~sub:"necromancer" msg);
      true
  in
  Alcotest.(check bool) "unknown script raises Exec_error" true raised

(* ------------------------------------------------------------------ *)
(* Policy behaviour on the battle scenario *)

let battle_sim ?fault_policy ~evaluator () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 40) () in
  Scenario.simulation ~seed:11 ?fault_policy ~evaluator scenario

(* Fail: the tick rolls back, the error carries context, and the
   simulation is still usable once the injection is disarmed. *)
let fail_policy_rolls_back () =
  with_injection (fun () ->
      let sim = battle_sim ~evaluator:Simulation.Indexed () in
      Simulation.step sim;
      Simulation.step sim;
      let before = Test_engine.sorted_units sim in
      Fault_inject.arm ~point:"post.apply" (Fault_inject.At_count 1);
      let fault =
        match Simulation.step sim with
        | () -> Alcotest.fail "step did not raise under the fail policy"
        | exception Fault.Error f -> f
      in
      Alcotest.(check int) "fault tick" 2 fault.Fault.tick;
      Alcotest.(check string) "fault phase" "post" (Fault.phase_name fault.Fault.phase);
      Alcotest.(check string) "fault evaluator" "indexed" fault.Fault.evaluator;
      Alcotest.(check int) "tick counter unchanged" 2 (Simulation.tick_count sim);
      Test_engine.check_states ~msg:"state rolled back" before (Test_engine.sorted_units sim);
      Alcotest.(check int) "fault logged" 1 (Simulation.fault_count sim);
      (* disarm and keep going: the failed tick reruns cleanly *)
      Fault_inject.reset ();
      Simulation.step sim;
      Alcotest.(check int) "recovers after disarm" 3 (Simulation.tick_count sim))

(* Quarantine: a script group that faults is excluded and the run
   completes every requested tick. *)
let quarantine_completes () =
  with_injection (fun () ->
      let sim = battle_sim ~fault_policy:Simulation.Quarantine_script ~evaluator:Simulation.Indexed () in
      Fault_inject.arm ~point:"exec.group" (Fault_inject.At_count 7);
      Simulation.run sim ~ticks:20;
      Alcotest.(check int) "all ticks ran" 20 (Simulation.tick_count sim);
      let quarantined = Simulation.quarantined_scripts sim in
      Alcotest.(check int) "one group quarantined" 1 (List.length quarantined);
      let known = [ "knight"; "knight_move"; "archer"; "archer_reposition"; "healer" ] in
      Alcotest.(check bool) "a real battle script" true (List.mem (List.hd quarantined) known);
      let r = Simulation.report sim in
      Alcotest.(check int) "reported" 1 r.Simulation.faults;
      Alcotest.(check (list string)) "report lists the group" quarantined r.Simulation.quarantined;
      match Simulation.faults sim with
      | [ f ] ->
        Alcotest.(check (option string)) "fault names the script" (Some (List.hd quarantined))
          f.Fault.script
      | fs -> Alcotest.failf "expected one logged fault, got %d" (List.length fs))

(* Degrade all the way down: a fault inside the indexed evaluator itself
   demotes to naive; states match a fault-free naive run. *)
let degrade_to_naive () =
  let clean =
    let sim = battle_sim ~evaluator:Simulation.Naive () in
    Simulation.run sim ~ticks:15;
    Test_engine.sorted_units sim
  in
  with_injection (fun () ->
      Fault_inject.arm ~point:"eval.member" Fault_inject.Always;
      let sim = battle_sim ~fault_policy:Simulation.Degrade ~evaluator:Simulation.Fused () in
      Simulation.run sim ~ticks:15;
      Alcotest.(check int) "all ticks ran" 15 (Simulation.tick_count sim);
      Alcotest.(check string) "landed on naive" "naive"
        (Simulation.evaluator_name (Simulation.current_evaluator sim));
      Alcotest.(check int) "one retry" 1 (Simulation.retries sim);
      Test_engine.check_states ~msg:"degraded fused vs clean naive" clean
        (Test_engine.sorted_units sim));
  (* the same demotion entered on indexed, mid-run *)
  with_injection (fun () ->
      Fault_inject.arm ~point:"index.build" (Fault_inject.At_count 30);
      let sim = battle_sim ~fault_policy:Simulation.Degrade ~evaluator:Simulation.Indexed () in
      Simulation.run sim ~ticks:15;
      Alcotest.(check int) "all ticks ran" 15 (Simulation.tick_count sim);
      Alcotest.(check string) "landed on naive" "naive"
        (Simulation.evaluator_name (Simulation.current_evaluator sim));
      Alcotest.(check bool) "demoted after tick 0" true
        (match Simulation.degradations sim with [ (t, _, _) ] -> t > 0 | _ -> false);
      Test_engine.check_states ~msg:"mid-run demotion vs clean naive" clean
        (Test_engine.sorted_units sim))

(* Quarantine decisions must not depend on the evaluator's name:
   [exec.group] is hit once per script group whichever evaluator runs the
   tick, so the same call count quarantines the same script. *)
let quarantine_fused_differential () =
  let quarantined evaluator =
    with_injection (fun () ->
        Fault_inject.arm ~point:"exec.group" (Fault_inject.At_count 7);
        let sim = battle_sim ~fault_policy:Simulation.Quarantine_script ~evaluator () in
        Simulation.run sim ~ticks:20;
        Alcotest.(check int) "all ticks ran" 20 (Simulation.tick_count sim);
        Simulation.quarantined_scripts sim)
  in
  let indexed = quarantined Simulation.Indexed in
  let fused = quarantined Simulation.Fused in
  Alcotest.(check int) "one group quarantined under fused" 1 (List.length fused);
  Alcotest.(check (list string)) "same script quarantined" indexed fused

(* Degrade out of fused: a group fault on the first tick demotes straight
   to naive (fused is a synonym of indexed, one rung above naive), and the
   retried run lands on exactly the states of a clean naive run — the
   kernels compiled at startup survive the demotion, only the evaluator
   they are handed changes. *)
let degrade_fused_to_naive () =
  let clean =
    let sim = battle_sim ~evaluator:Simulation.Naive () in
    Simulation.run sim ~ticks:30;
    Test_engine.sorted_units sim
  in
  with_injection (fun () ->
      Fault_inject.arm ~point:"exec.group" (Fault_inject.At_count 1);
      let sim = battle_sim ~fault_policy:Simulation.Degrade ~evaluator:Simulation.Fused () in
      Simulation.run sim ~ticks:30;
      Alcotest.(check int) "all ticks ran" 30 (Simulation.tick_count sim);
      Alcotest.(check string) "landed on naive" "naive"
        (Simulation.evaluator_name (Simulation.current_evaluator sim));
      Alcotest.(check int) "one retry" 1 (Simulation.retries sim);
      (match Simulation.degradations sim with
      | [ (tick, from_, to_) ] ->
        Alcotest.(check int) "demoted on the first tick" 0 tick;
        Alcotest.(check string) "from fused" "fused" from_;
        Alcotest.(check string) "to naive" "naive" to_
      | ds -> Alcotest.failf "expected one demotion, got %d" (List.length ds));
      Test_engine.check_states ~msg:"degraded fused vs clean naive" clean
        (Test_engine.sorted_units sim))

(* Degrade exhausted: when even naive faults, step re-raises in context. *)
let degrade_exhausted () =
  with_injection (fun () ->
      Fault_inject.arm ~point:"exec.group" Fault_inject.Always;
      let sim = battle_sim ~fault_policy:Simulation.Degrade ~evaluator:Simulation.Indexed () in
      let raised =
        try
          Simulation.step sim;
          false
        with Fault.Error f ->
          Alcotest.(check string) "final evaluator was naive" "naive" f.Fault.evaluator;
          true
      in
      Alcotest.(check bool) "re-raises once the chain is exhausted" true raised;
      Alcotest.(check int) "nothing half-applied" 0 (Simulation.tick_count sim))

(* One ledger across a demotion: the demoted evaluator counts into the
   simulation's registry, so the report, the sum of the per-tick samples
   and the registry agree on the whole run, and the naive evaluator's
   scans after the demotion land in the same books. *)
let degrade_keeps_one_ledger () =
  with_injection (fun () ->
      Fault_inject.arm ~point:"eval.member" (Fault_inject.At_count 100);
      let sim = battle_sim ~fault_policy:Simulation.Degrade ~evaluator:Simulation.Indexed () in
      let tel = Simulation.telemetry sim in
      let value name = Telemetry.Counter.value (Telemetry.Registry.counter tel name) in
      (* per committed tick: its sample and the registry's naive scans *)
      let log = ref [] in
      Simulation.set_observer sim
        (Some (fun s -> log := (s, value "eval.naive_scan") :: !log));
      let ticks = 12 in
      Simulation.run sim ~ticks;
      let demoted_at =
        match Simulation.degradations sim with
        | [ (tick, "indexed", "naive") ] when tick > 0 && tick < ticks - 2 -> tick
        | _ -> Alcotest.fail "expected one indexed -> naive demotion mid-run"
      in
      let r = Simulation.report sim in
      let sum f = List.fold_left (fun acc (s, _) -> acc + f s) 0 !log in
      let check = Alcotest.(check int) in
      Alcotest.(check bool) "indexed built before the demotion" true
        (r.Simulation.index_builds > 0);
      check "builds: report = samples" r.Simulation.index_builds
        (sum (fun s -> s.Simulation.s_index_builds));
      check "builds: report = registry" r.Simulation.index_builds (value "eval.index_build");
      check "reuses: report = samples" r.Simulation.index_reuses
        (sum (fun s -> s.Simulation.s_index_reuses));
      check "reuses: report = registry" r.Simulation.index_reuses (value "eval.index_reuse");
      check "probes: report = registry" r.Simulation.index_probes (value "eval.index_probe");
      check "scans: report = registry" r.Simulation.naive_scans (value "eval.naive_scan");
      (* the retried tick commits as tick [demoted_at + 1], under naive *)
      let scans_at tick = snd (List.find (fun (s, _) -> s.Simulation.s_tick = tick) !log) in
      Alcotest.(check bool) "naive scans after the demotion are counted" true
        (scans_at ticks > scans_at (demoted_at + 1)))

(* Every policy is bit-identical to [Fail] when nothing fires: the
   fault-free tick is the same code under all three. *)
let quarantine_faultfree_identical () =
  let run policy =
    let sim = battle_sim ?fault_policy:policy ~evaluator:Simulation.Indexed () in
    Simulation.run sim ~ticks:25;
    Test_engine.sorted_units sim
  in
  let baseline = run None in
  Test_engine.check_states ~msg:"quarantine (fault-free) vs fail" baseline
    (run (Some Simulation.Quarantine_script));
  Test_engine.check_states ~msg:"degrade (fault-free) vs fail" baseline
    (run (Some Simulation.Degrade))

(* ------------------------------------------------------------------ *)
(* The fault policy never changes the trace *)

(* Three scripts showering float damage on every enemy in a +-6 box: a
   Sum attribute receiving many non-dyadic contributions per target, so
   any re-association of the combination operator shows in the digest. *)
let aoe_schema () =
  let open Sgl_relalg in
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "player" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "posy" Value.TFloat;
      Schema.attr "health" Value.TFloat;
      Schema.attr ~tag:Schema.Sum "damage" Value.TFloat;
    ]

let aoe_source =
  let action name amount =
    Printf.sprintf
      {|
action %s(u) {
  on all(e.player <> u.player
         and e.posx >= u.posx - 6.0 and e.posx <= u.posx + 6.0
         and e.posy >= u.posy - 6.0 and e.posy <= u.posy + 6.0) {
    damage <- %s;
  }
}
script %s(u) { perform %s(u); }
|}
      (String.capitalize_ascii name) amount name (String.capitalize_ascii name)
  in
  String.concat "" [ action "a" "0.1"; action "b" "0.7 * 0.3"; action "c" "1.0 / 3.0" ]

let aoe_sim ?fault_policy ~evaluator () =
  let open Sgl_relalg in
  let schema = aoe_schema () in
  let prog = Sgl_lang.Compile.compile ~schema aoe_source in
  let prng = Prng.create 1 in
  let units =
    Array.init 60 (fun i ->
        Tuple.of_list schema
          [
            Value.Int i;
            Value.Int (i mod 2);
            Value.Float (Prng.float_range prng ~lo:0. ~hi:20. [ i; 1 ]);
            Value.Float (Prng.float_range prng ~lo:0. ~hi:20. [ i; 2 ]);
            Value.Float 0.;
            Value.Float 0.;
          ])
  in
  let key = Schema.find schema "key" and health = Schema.find schema "health" in
  let damage = Schema.find schema "damage" in
  let config =
    {
      Simulation.prog;
      script_of = (fun u -> Some [| "a"; "b"; "c" |].(Value.to_int (Tuple.get u key) mod 3));
      postprocess =
        Postprocess.make ~schema
          ~updates:[ (health, Expr.Binop (Expr.Sub, Expr.UAttr health, Expr.EAttr damage)) ]
          ~remove_when:(Expr.Const (Value.Bool false));
      movement = None;
      death = Simulation.Remove;
      seed = 1;
      optimize = true;
    }
  in
  Simulation.create ?fault_policy config ~evaluator ~units

(* The per-tick state digest chain of a run. *)
let digest_chain ~ticks sim =
  List.init ticks (fun _ ->
      Simulation.step sim;
      Simulation.state_digest sim)

let trace_evaluators =
  [
    Simulation.Naive;
    Simulation.Indexed;
    Simulation.Fused;
  ]

(* With nothing armed, every policy must reproduce the evaluator's own
   [Fail] chain digest for digest, on integral and float workloads. *)
let policy_trace_identical ~ticks make () =
  List.iter
    (fun evaluator ->
      let chain fault_policy = digest_chain ~ticks (make ~fault_policy ~evaluator ()) in
      let reference = chain Simulation.Fail in
      List.iter
        (fun policy ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s chain = fail chain" (Simulation.evaluator_name evaluator)
               (Simulation.fault_policy_name policy))
            reference (chain policy))
        [ Simulation.Quarantine_script; Simulation.Degrade ])
    trace_evaluators

let battle_policy_trace =
  policy_trace_identical ~ticks:15 (fun ~fault_policy ~evaluator () ->
      battle_sim ~fault_policy ~evaluator ())

let aoe_policy_trace =
  policy_trace_identical ~ticks:20 (fun ~fault_policy ~evaluator () ->
      aoe_sim ~fault_policy ~evaluator ())

(* Every group raising on one tick: quarantine excludes one script per
   retry until none is left, and the tick then commits with no decisions
   at all — identically under every backend. *)
let quarantine_every_group () =
  let run evaluator =
    with_injection (fun () ->
        let sc = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 40) () in
        let config = Scenario.sim_config ~seed:11 sc in
        let sim =
          Simulation.create ~fault_policy:Simulation.Quarantine_script config ~evaluator
            ~units:sc.Scenario.units
        in
        Simulation.run sim ~ticks:3;
        let scripts =
          Array.to_list (Simulation.units sim)
          |> List.filter_map config.Simulation.script_of
          |> List.sort_uniq compare
        in
        Fault_inject.arm ~point:"exec.group" Fault_inject.Always;
        Simulation.step sim;
        Fault_inject.reset ();
        let msg = Simulation.evaluator_name evaluator in
        Alcotest.(check int) (msg ^ ": the tick commits") 4 (Simulation.tick_count sim);
        Alcotest.(check (list string)) (msg ^ ": every script quarantined") scripts
          (List.sort compare (Simulation.quarantined_scripts sim));
        Alcotest.(check int) (msg ^ ": one fault per group") (List.length scripts)
          (Simulation.fault_count sim);
        Simulation.run sim ~ticks:2;
        Test_engine.sorted_units sim)
  in
  let indexed = run Simulation.Indexed in
  Test_engine.check_states ~msg:"fused vs indexed" indexed (run Simulation.Fused)

(* Under Fail a group fault names its script and keeps the original
   exception, not the executor's wrapper. *)
let fail_group_fault_context () =
  with_injection (fun () ->
      let sim = battle_sim ~evaluator:Simulation.Indexed () in
      Fault_inject.arm ~point:"exec.group" (Fault_inject.At_count 1);
      match Simulation.step sim with
      | () -> Alcotest.fail "step did not raise under the fail policy"
      | exception Fault.Error f ->
        Alcotest.(check bool) "a script is named" true (f.Fault.script <> None);
        Alcotest.(check bool) "original exception" true
          (match f.Fault.exn with
          | Fault_inject.Injected { point; _ } -> point = "exec.group"
          | _ -> false))

(* A fault outside any script group cannot be quarantined away. *)
let quarantine_post_fault_fails () =
  with_injection (fun () ->
      let sim =
        battle_sim ~fault_policy:Simulation.Quarantine_script ~evaluator:Simulation.Indexed ()
      in
      Simulation.step sim;
      let before = Test_engine.sorted_units sim in
      Fault_inject.arm ~point:"post.apply" (Fault_inject.At_count 1);
      (match Simulation.step sim with
      | () -> Alcotest.fail "step did not raise on a post-processing fault"
      | exception Fault.Error f ->
        Alcotest.(check string) "fault phase" "post" (Fault.phase_name f.Fault.phase);
        Alcotest.(check (option string)) "no script" None f.Fault.script);
      Alcotest.(check int) "tick counter unchanged" 1 (Simulation.tick_count sim);
      Alcotest.(check (list string)) "nothing quarantined" [] (Simulation.quarantined_scripts sim);
      Test_engine.check_states ~msg:"state rolled back" before (Test_engine.sorted_units sim))

let suite =
  [
    ( "fault.inject",
      [
        Alcotest.test_case "counting and At_count" `Quick inject_counting;
        Alcotest.test_case "Always fires every call" `Quick inject_always;
        Alcotest.test_case "Prob is deterministic per seed" `Quick inject_prob_deterministic;
        Alcotest.test_case "parse POINT:SPEC" `Quick inject_parse;
        Alcotest.test_case "arm rejects unknown points" `Quick inject_unknown_point;
      ] );
    ( "fault.log",
      [ Alcotest.test_case "bounded log keeps first, counts rest" `Quick log_bounded ] );
    ( "fault.errors",
      [
        Alcotest.test_case "Trace.record after close raises" `Quick trace_after_close;
        Alcotest.test_case "Trace.create rejects unknown attributes" `Quick trace_unknown_attr;
        Alcotest.test_case "Exec.run_tick names the unknown script" `Quick exec_unknown_script;
      ] );
    ( "fault.policy",
      [
        Alcotest.test_case "fail: rollback, context, recovery" `Quick fail_policy_rolls_back;
        Alcotest.test_case "quarantine: excluded group, run completes" `Quick quarantine_completes;
        Alcotest.test_case "quarantine: fused = indexed on the faulting script" `Slow
          quarantine_fused_differential;
        Alcotest.test_case "degrade: fused -> naive in one retry, bit-identical" `Slow
          degrade_fused_to_naive;
        Alcotest.test_case "degrade: down to naive, bit-identical" `Slow degrade_to_naive;
        Alcotest.test_case "degrade: exhausted chain re-raises" `Quick degrade_exhausted;
        Alcotest.test_case "degrade: one ledger across the demotion" `Quick
          degrade_keeps_one_ledger;
        Alcotest.test_case "guards are bit-identical when nothing fires" `Slow
          quarantine_faultfree_identical;
      ] );
    ( "fault.trace",
      [
        Alcotest.test_case "battle: every policy reproduces the fail chain" `Slow
          battle_policy_trace;
        Alcotest.test_case "float AoE: every policy reproduces the fail chain" `Quick
          aoe_policy_trace;
        Alcotest.test_case "quarantine: every group failing still commits" `Quick
          quarantine_every_group;
        Alcotest.test_case "quarantine: a post fault rolls back and raises" `Quick
          quarantine_post_fault_fails;
        Alcotest.test_case "fail: a group fault names its script" `Quick
          fail_group_fault_context;
      ] );
  ]
