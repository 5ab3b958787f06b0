(* Telemetry: registry semantics, span tracer, and the differential
   guarantee the whole subsystem rests on — unit states are bit-identical
   with telemetry off, with metrics on, with span tracing on, and under
   EXPLAIN.  Observation never feeds back into the simulation. *)

open Sgl_util
open Sgl_engine
open Sgl_battle

(* ------------------------------------------------------------------ *)
(* Registry *)

let registry_counter_gating () =
  let r = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter r "test.c" in
  Alcotest.(check bool) "disabled by default" false (Telemetry.Registry.enabled r);
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 10;
  Alcotest.(check int) "gated while disabled" 0 (Telemetry.Counter.value c);
  Telemetry.Registry.set_enabled r true;
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 10;
  Alcotest.(check int) "counts while enabled" 11 (Telemetry.Counter.value c);
  (* set is the one unconditional write: it mirrors engine-owned state
     (rollback restores), so it lands even when the registry is off *)
  Telemetry.Registry.set_enabled r false;
  Telemetry.Counter.set c 7;
  Alcotest.(check int) "set ignores the gate" 7 (Telemetry.Counter.value c);
  Alcotest.(check string) "name" "test.c" (Telemetry.Counter.name c)

let registry_idempotent_registration () =
  let r = Telemetry.Registry.create ~enabled:true () in
  let a = Telemetry.Registry.counter r "test.same" in
  let b = Telemetry.Registry.counter r "test.same" in
  Telemetry.Counter.add a 3;
  (* same handle: EXPLAIN recovers live counters by re-registering names *)
  Alcotest.(check int) "one underlying cell" 3 (Telemetry.Counter.value b)

let registry_reset_keeps_handles () =
  let r = Telemetry.Registry.create ~enabled:true () in
  let c = Telemetry.Registry.counter r "test.c" in
  let h = Telemetry.Registry.histogram r "test.h" in
  Telemetry.Counter.add c 5;
  Telemetry.Histogram.observe h 1.0;
  Telemetry.Registry.reset r;
  Alcotest.(check int) "counter zeroed" 0 (Telemetry.Counter.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Telemetry.Histogram.snapshot h).Telemetry.count;
  (* held handles keep working after reset *)
  Telemetry.Counter.incr c;
  Alcotest.(check int) "handle still live" 1 (Telemetry.Counter.value c)

let registry_histogram () =
  let r = Telemetry.Registry.create ~enabled:true () in
  let h = Telemetry.Registry.histogram r "test.h" in
  List.iter (Telemetry.Histogram.observe h) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  let s = Telemetry.Histogram.snapshot h in
  Alcotest.(check int) "count" 8 s.Telemetry.count;
  Alcotest.(check (float 1e-9)) "mean" 5. s.Telemetry.mean;
  Alcotest.(check (float 1e-9)) "min" 2. s.Telemetry.min;
  Alcotest.(check (float 1e-9)) "max" 9. s.Telemetry.max;
  Alcotest.(check (float 1e-9)) "total" 40. s.Telemetry.total

let registry_listing_and_json () =
  let r = Telemetry.Registry.create ~enabled:true () in
  let b = Telemetry.Registry.counter r "b.second" in
  let a = Telemetry.Registry.counter r "a.first" in
  Telemetry.Counter.add a 1;
  Telemetry.Counter.add b 2;
  Telemetry.Histogram.observe (Telemetry.Registry.histogram r "h.one") 3.;
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("a.first", 1); ("b.second", 2) ]
    (Telemetry.Registry.counters r);
  let json = Telemetry.Registry.to_json r in
  List.iter
    (fun needle ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (Fmt.str "json mentions %s" needle) true (contains json needle))
    [ "\"counters\""; "\"histograms\""; "\"a.first\""; "\"h.one\"" ]

(* ------------------------------------------------------------------ *)
(* Spans *)

let span_disabled_is_transparent () =
  Telemetry.Span.stop ();
  let ran = ref false in
  let v = Telemetry.Span.with_ "never.recorded" (fun () -> ran := true; 42) in
  Telemetry.Span.instant "never.recorded";
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "value through" 42 v;
  Alcotest.(check int) "nothing recorded" 0 (Telemetry.Span.count ())

let span_records_and_serializes () =
  Telemetry.Span.start ();
  let v =
    Telemetry.Span.with_ ~cat:"outer" "parent" (fun () ->
        Telemetry.Span.with_ ~cat:"inner" "child" (fun () -> ());
        Telemetry.Span.instant ~cat:"mark" "ping";
        17)
  in
  Telemetry.Span.stop ();
  Alcotest.(check int) "value through" 17 v;
  Alcotest.(check int) "three events" 3 (Telemetry.Span.count ());
  let json = Telemetry.Span.to_json () in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "bare event array" true (String.length json > 0 && json.[0] = '[');
  List.iter
    (fun needle -> Alcotest.(check bool) (Fmt.str "mentions %s" needle) true (contains json needle))
    [ "\"parent\""; "\"child\""; "\"ping\""; "\"ph\"" ];
  (* stop is sticky: further spans don't record *)
  Telemetry.Span.with_ "after.stop" (fun () -> ());
  Alcotest.(check int) "still three" 3 (Telemetry.Span.count ())

let span_survives_exceptions () =
  Telemetry.Span.start ();
  (try Telemetry.Span.with_ "boom" (fun () -> failwith "boom") with Failure _ -> ());
  Telemetry.Span.stop ();
  Alcotest.(check int) "span recorded despite raise" 1 (Telemetry.Span.count ())

(* ------------------------------------------------------------------ *)
(* Trace satellite: idempotent close, Trace_error on I/O after close *)

let trace_close_idempotent () =
  let path = Filename.temp_file "sgl_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 5) () in
      let sim = Scenario.simulation ~evaluator:Simulation.Indexed scenario in
      let tr =
        Trace.create ~path ~schema:(Simulation.schema sim) ~attrs:[ "key"; "health" ]
      in
      Trace.record tr ~tick:0 (Simulation.units sim);
      Trace.close tr;
      Trace.close tr (* second close is a no-op, not an error *);
      Alcotest.check_raises "record after close"
        (Trace.Trace_error "trace: already closed") (fun () ->
          Trace.record tr ~tick:1 (Simulation.units sim)))

(* ------------------------------------------------------------------ *)
(* The differential guarantee *)

(* Same scenario, same seed, four observability configurations; the unit
   states must agree bit for bit. *)
let telemetry_is_invisible () =
  let run ~metrics ~spans ~explain =
    Telemetry.set_enabled false;
    Telemetry.reset ();
    Telemetry.Span.stop ();
    if metrics then Telemetry.set_enabled true;
    if spans then Telemetry.Span.start ();
    let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 30) () in
    let sim = Scenario.simulation ~seed:11 ~evaluator:Simulation.Indexed scenario in
    Simulation.run sim ~ticks:15;
    if explain then begin
      let prog = Scripts.compile () in
      let text =
        Sgl_qopt.Eval.explain ~tel:(Simulation.telemetry sim) ~schema:(Simulation.schema sim)
          ~aggregates:prog.Sgl_lang.Core_ir.aggregates ()
      in
      Alcotest.(check bool) "explain non-empty" true (String.length text > 0)
    end;
    let states = Test_engine.sorted_units sim in
    if spans then begin
      Alcotest.(check bool) "spans recorded" true (Telemetry.Span.count () > 0);
      Telemetry.Span.stop ()
    end;
    if metrics then begin
      let total = List.fold_left (fun acc (_, v) -> acc + v) 0 (Telemetry.Registry.counters Telemetry.default) in
      Alcotest.(check bool) "metrics recorded" true (total > 0);
      Telemetry.set_enabled false
    end;
    states
  in
  let baseline = run ~metrics:false ~spans:false ~explain:false in
  let check msg got = Test_engine.check_states ~msg baseline got in
  check "metrics vs off" (run ~metrics:true ~spans:false ~explain:false);
  check "spans vs off" (run ~metrics:false ~spans:true ~explain:false);
  check "explain vs off" (run ~metrics:true ~spans:false ~explain:true)

(* The per-simulation registry is the engine's ledger: the report is read
   from it, so the two views must agree, the evaluator totals included. *)
let simulation_registry_mirrors_report () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 25) () in
  let sim = Scenario.simulation ~seed:3 ~evaluator:Simulation.Indexed scenario in
  Simulation.run sim ~ticks:20;
  let r = Simulation.report sim in
  let counters = Telemetry.Registry.counters (Simulation.telemetry sim) in
  let value name = try List.assoc name counters with Not_found -> -1 in
  Alcotest.(check int) "sim.deaths" r.Simulation.deaths (value "sim.deaths");
  Alcotest.(check int) "sim.resurrections" r.Simulation.resurrections (value "sim.resurrections");
  Alcotest.(check int) "sim.rollbacks" r.Simulation.rollbacks (value "sim.rollbacks");
  Alcotest.(check int) "sim.faults" (Simulation.fault_count sim) (value "sim.faults");
  Alcotest.(check bool) "the evaluator counted" true (r.Simulation.index_builds > 0);
  Alcotest.(check int) "eval.index_build" r.Simulation.index_builds (value "eval.index_build");
  Alcotest.(check int) "eval.index_reuse" r.Simulation.index_reuses (value "eval.index_reuse");
  Alcotest.(check int) "eval.index_probe" r.Simulation.index_probes (value "eval.index_probe");
  Alcotest.(check int) "eval.naive_scan" r.Simulation.naive_scans (value "eval.naive_scan");
  Alcotest.(check int) "eval.uniform_hit" r.Simulation.uniform_hits (value "eval.uniform_hit");
  Alcotest.(check (float 0.)) "eval.index_build_ns" r.Simulation.build_s
    (float_of_int (value "eval.index_build_ns") /. 1e9)

(* Only real index groups own a reuse series: the placeholder and the
   area-effect groups are never cached, so they register none. *)
let no_placeholder_group_counters () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 25) () in
  let sim = Scenario.simulation ~seed:3 ~evaluator:Simulation.Indexed scenario in
  Simulation.run sim ~ticks:10;
  let names = List.map fst (Telemetry.Registry.counters (Simulation.telemetry sim)) in
  let prefixed p name = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  Alcotest.(check bool) "real groups count reuses" true (List.exists (prefixed "group.0.") names);
  Alcotest.(check (list string)) "no group.-1 series" []
    (List.filter (prefixed "group.-1.") names)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "telemetry.registry",
      [
        tc "counter gating" `Quick registry_counter_gating;
        tc "idempotent registration" `Quick registry_idempotent_registration;
        tc "reset keeps handles" `Quick registry_reset_keeps_handles;
        tc "histogram snapshot" `Quick registry_histogram;
        tc "listing and json" `Quick registry_listing_and_json;
      ] );
    ( "telemetry.span",
      [
        tc "disabled is transparent" `Quick span_disabled_is_transparent;
        tc "records and serializes" `Quick span_records_and_serializes;
        tc "survives exceptions" `Quick span_survives_exceptions;
      ] );
    ("telemetry.trace", [ tc "close idempotent" `Quick trace_close_idempotent ]);
    ( "telemetry.differential",
      [
        tc "bit-identical on/off/spans/explain" `Slow telemetry_is_invisible;
        tc "sim registry mirrors report" `Quick simulation_registry_mirrors_report;
        tc "no placeholder group counters" `Quick no_placeholder_group_counters;
      ] );
  ]
