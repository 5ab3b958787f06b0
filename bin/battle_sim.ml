(* battle_sim — run the Section 3.2 battle simulation from the command
   line, with either aggregate evaluator.

     dune exec bin/battle_sim.exe -- --units 1000 --ticks 100 --evaluator indexed
     dune exec bin/battle_sim.exe -- --units 5000 --evaluator fused
*)

open Cmdliner
open Sgl

(* --print-flight: load a flight-recorder dump and print a JSON summary,
   so shell scripts (crash-recovery, the obs smoke job) never parse the
   binary format themselves. *)
let print_flight_summary (path : string) : int =
  match Obs.Flight.load ~path with
  | Error e ->
    Fmt.epr "flight: cannot load %s: %s@." path e;
    2
  | Ok (records, torn) ->
    let first_tick =
      match records with [] -> -1 | s :: _ -> s.Simulation.s_tick
    in
    let last = match List.rev records with [] -> None | s :: _ -> Some s in
    let last_tick = match last with None -> -1 | Some s -> s.Simulation.s_tick in
    Fmt.pr "{\"records\": %d, \"torn\": %b, \"first_tick\": %d, \"last_tick\": %d, \"last\": %s}@."
      (List.length records) torn first_tick last_tick
      (match last with None -> "null" | Some s -> Obs.Flight.sample_json s);
    0

let run units ticks evaluator density seed optimize resurrect index_cache verbose ascii
    trace fault_policy injects metrics trace_spans explain_plans ckpt_dir ckpt_every do_restore
    no_fsync sleep_ms obs_port flight_cap dump_flight print_flight summary_json =
  match print_flight with
  | Some path -> print_flight_summary path
  | None ->
  let evaluator_kind =
    match evaluator with
    | "naive" -> Simulation.Naive
    | "indexed" -> Simulation.Indexed
    | "fused" -> Simulation.Fused
    | other -> Fmt.failwith "unknown evaluator %S (expected naive, indexed or fused)" other
  in
  let fault_policy =
    match fault_policy with
    | "fail" -> Simulation.Fail
    | "quarantine" -> Simulation.Quarantine_script
    | "degrade" -> Simulation.Degrade
    | other ->
      Fmt.failwith "unknown fault policy %S (expected fail, quarantine or degrade)" other
  in
  Fault_inject.reset ();
  List.iter
    (fun arg ->
      match Fault_inject.parse_arg arg with
      | Error msg -> Fmt.failwith "--inject %s: %s" arg msg
      | Ok (point, spec) ->
        if not (List.mem point Fault_inject.points) then
          Fmt.failwith "--inject %s: unknown point %S (known: %s)" arg point
            (String.concat ", " Fault_inject.points);
        Fault_inject.arm ~point spec)
    injects;
  let obs_enabled = obs_port <> None || flight_cap > 0 || dump_flight <> None in
  (* Telemetry: --metrics and the live endpoint need the ambient registry
     live (--explain reads the simulation's own, always-on registry);
     --trace-spans starts the span tracer.  All of them leave unit states
     bit-identical — telemetry never feeds back into the simulation. *)
  if metrics <> None || obs_enabled then begin
    Telemetry.set_enabled true;
    Telemetry.reset ()
  end;
  if trace_spans <> None then Telemetry.Span.start ();
  let scenario =
    Battle.Scenario.setup ~density ~per_side:(Battle.Scenario.standard_mix (units / 2)) ()
  in
  Fmt.pr "battlefield %dx%d, %d units, density %.1f%%, evaluator %s, fault policy %s@."
    scenario.Battle.Scenario.width scenario.Battle.Scenario.height
    (Array.length scenario.Battle.Scenario.units)
    (density *. 100.)
    (Simulation.evaluator_name evaluator_kind)
    (Simulation.fault_policy_name fault_policy);
  let sim =
    if do_restore then begin
      let dir =
        match ckpt_dir with
        | Some dir -> dir
        | None -> Fmt.failwith "--restore requires --checkpoint-dir"
      in
      (* recovery rebuilds the exact scenario config (same seed, scripts,
         grid) so the deterministic journal replay is bit-identical *)
      let config = Battle.Scenario.sim_config ~optimize ~seed ~resurrect scenario in
      match
        Simulation.restore ~fault_policy ~index_cache config ~evaluator:evaluator_kind ~dir
      with
      | Error e -> Fmt.failwith "restore failed: %s" e
      | Ok (sim, info) ->
        Fmt.pr "restored: checkpoint tick=%d, replayed %d journal tick(s)%s%s@."
          info.Simulation.restored_tick info.Simulation.replayed
          (if info.Simulation.generations_skipped > 0 then
             Fmt.str ", fell back past %d corrupt generation(s)" info.Simulation.generations_skipped
           else "")
          (if info.Simulation.journal_torn then ", torn journal tail discarded" else "");
        sim
    end
    else
      Battle.Scenario.simulation ~optimize ~seed ~resurrect ~fault_policy ~index_cache
        ~evaluator:evaluator_kind scenario
  in
  (match ckpt_dir with
  | Some dir -> Simulation.checkpoint_every ~fsync:(not no_fsync) sim ~dir ~every:ckpt_every
  | None -> ());
  (* The observability layer: flight recorder (+ streamed dump), live
     endpoint, query port.  Installed after persistence is armed so the
     first observed sample already describes a journaled tick. *)
  let live =
    if not obs_enabled then None
    else begin
      let prog = Battle.Scripts.compile () in
      let l =
        Obs.Live.create
          ~flight_capacity:(if flight_cap > 0 then flight_cap else 1024)
          ?dump_path:dump_flight ~sim ~prog ()
      in
      (match obs_port with
      | Some p ->
        let bound = Obs.Live.serve l ~port:p in
        Fmt.pr
          "obs: serving /metrics /stats /ticks /explain /health /query on http://127.0.0.1:%d@."
          bound
      | None -> ());
      Some l
    end
  in
  let start_tick = Simulation.tick_count sim in
  let s = Simulation.schema sim in
  let draw () =
    let w = min 100 scenario.Battle.Scenario.width
    and h = min 30 scenario.Battle.Scenario.height in
    let sx = float_of_int scenario.Battle.Scenario.width /. float_of_int w in
    let sy = float_of_int scenario.Battle.Scenario.height /. float_of_int h in
    let canvas = Array.make_matrix h w ' ' in
    Array.iter
      (fun u ->
        let x, y = Battle.Unit_types.pos_of s u in
        let cx = min (w - 1) (int_of_float (x /. sx)) in
        let cy = min (h - 1) (int_of_float (y /. sy)) in
        let c =
          match (Battle.Unit_types.player_of s u, Battle.Unit_types.klass_of s u) with
          | 0, Battle.D20.Knight -> 'K'
          | 0, Battle.D20.Archer -> 'a'
          | 0, Battle.D20.Healer -> '+'
          | _, Battle.D20.Knight -> 'X'
          | _, Battle.D20.Archer -> 'x'
          | _, Battle.D20.Healer -> '*'
        in
        canvas.(cy).(cx) <- c)
      (Simulation.units sim);
    Array.iter (fun row -> Fmt.pr "%s@." (String.init w (Array.get row))) canvas
  in
  let tracer =
    Option.map
      (fun path ->
        Trace.create ~path ~schema:s
          ~attrs:[ "key"; "player"; "kind"; "posx"; "posy"; "health" ])
      trace
  in
  Option.iter (fun t -> Trace.record t ~tick:start_tick (Simulation.units sim)) tracer;
  let wall = Timer.create () in
  Timer.start wall;
  (* The single exit path.  Whatever happens in the tick loop — a normal
     finish, a [Fault.Error] under the fail policy (exit 3), or an
     exception escaping a persistence hook — the journal is closed with no
     half-written tail, the trace file is flushed and closed, and the
     metrics/span documents are written.  A crash test must never report a
     corrupt observability file as a failure of the thing under test. *)
  let finalize () =
    Timer.stop wall;
    Simulation.detach_persistence sim;
    (* Uninstall the observer, close the streamed dump (its tail is
       already on disk frame by frame), stop the endpoint. *)
    Option.iter
      (fun l ->
        Obs.Live.stop l;
        Option.iter
          (fun path ->
            Fmt.pr "flight: %d record(s) streamed to %s@."
              (Obs.Flight.total (Obs.Live.flight l))
              path)
          dump_flight)
      live;
    Option.iter
      (fun tr ->
        Trace.close tr;
        Fmt.pr "trace: %d rows written to %s@." (Trace.rows tr) (Option.get trace))
      tracer;
    (match metrics with
    | None -> ()
    | Some path ->
      (* both registries, in the shape the live endpoint's /stats uses *)
      let doc tel = String.trim (Telemetry.Registry.to_json tel) in
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "{\n\"ambient\": %s,\n\"sim\": %s\n}\n" (doc Telemetry.default)
            (doc (Simulation.telemetry sim)));
      Fmt.pr "metrics: written to %s@." path);
    match trace_spans with
    | None -> ()
    | Some path ->
      Telemetry.Span.stop ();
      Telemetry.Span.write ~path;
      Fmt.pr "trace-spans: %d events written to %s@." (Telemetry.Span.count ()) path
  in
  let failed =
    Fun.protect ~finally:finalize (fun () ->
        try
          for t = start_tick + 1 to ticks do
            Simulation.step sim;
            if sleep_ms > 0 then Unix.sleepf (float_of_int sleep_ms /. 1000.);
            Option.iter (fun tr -> Trace.record tr ~tick:t (Simulation.units sim)) tracer;
            if verbose && t mod (max 1 (ticks / 10)) = 0 then begin
              let r = Simulation.report sim in
              Fmt.pr "tick %4d: %d units, %d deaths so far, %.3fs elapsed@." t
                r.Simulation.n_units r.Simulation.deaths (Timer.elapsed wall)
            end
          done;
          false
        with Fault.Error f ->
          Fmt.epr "fault: %a@." Fault.pp f;
          true)
  in
  (* The automatic black-box dump on fault exit: when nothing streamed
     the flight to disk, the ring is written now so the forensics are
     not lost with the process. *)
  (match live with
  | Some l when failed && dump_flight = None ->
    let path = "flight.dump" in
    Obs.Live.dump l ~path;
    Fmt.pr "flight: %d record(s) dumped to %s@." (Obs.Flight.length (Obs.Live.flight l)) path
  | _ -> ());
  if ascii then draw ();
  let r = Simulation.report sim in
  Fmt.pr "@.%a@." Simulation.pp_report r;
  (match Simulation.faults sim with
  | [] -> ()
  | fs ->
    Fmt.pr "fault log (%d retained of %d):@." (List.length fs) (Simulation.fault_count sim);
    List.iter (fun f -> Fmt.pr "  %a@." Fault.pp f) fs);
  if explain_plans then begin
    let prog = Battle.Scripts.compile () in
    Fmt.pr "@.%s"
      (Eval.explain ~tel:(Simulation.telemetry sim) ~schema:s ~aggregates:prog.Core_ir.aggregates
         ())
  end;
  (* The deterministic state fingerprint: everything on this line is a
     pure function of (scenario, seed, ticks), so an interrupted-and-
     recovered run must reproduce it byte for byte. *)
  Fmt.pr "final state: tick=%d units=%d digest=%s deaths=%d resurrections=%d quarantined=[%s]@."
    (Simulation.tick_count sim)
    (Array.length (Simulation.units sim))
    (Sgl.Persist.Crc32.to_hex (Simulation.state_digest sim))
    r.Simulation.deaths r.Simulation.resurrections
    (String.concat "," r.Simulation.quarantined);
  let elapsed = Timer.elapsed wall in
  let done_ticks = Simulation.tick_count sim - start_tick in
  let ticks_per_s =
    if done_ticks > 0 && elapsed > 1e-9 then float_of_int done_ticks /. elapsed else 0.
  in
  if done_ticks > 0 && elapsed > 1e-9 then
    Fmt.pr "wall clock: %.3fs (%.1f ticks/s)@." elapsed ticks_per_s
  else Fmt.pr "wall clock: %.3fs@." elapsed;
  (* The machine-readable twin of the "final state:" line, so scripts
     assert on JSON fields instead of grepping human output. *)
  (match summary_json with
  | None -> ()
  | Some path ->
    let body =
      Printf.sprintf
        "{\"tick\": %d, \"units\": %d, \"digest\": %s, \"deaths\": %d, \"resurrections\": %d, \
         \"faults\": %d, \"quarantined\": [%s], \"evaluator\": %s, \"elapsed_s\": %s, \
         \"ticks_per_s\": %s, \"failed\": %b}\n"
        (Simulation.tick_count sim)
        (Array.length (Simulation.units sim))
        (Telemetry.json_string (Sgl.Persist.Crc32.to_hex (Simulation.state_digest sim)))
        r.Simulation.deaths r.Simulation.resurrections r.Simulation.faults
        (String.concat ", " (List.map Telemetry.json_string r.Simulation.quarantined))
        (Telemetry.json_string (Simulation.evaluator_name (Simulation.current_evaluator sim)))
        (Telemetry.json_float elapsed) (Telemetry.json_float ticks_per_s) failed
    in
    if path = "-" then print_string body
    else begin
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
      Fmt.pr "summary: written to %s@." path
    end);
  if failed then 3 else 0

let units_arg = Arg.(value & opt int 500 & info [ "units"; "n" ] ~doc:"Total units across both armies.")
let ticks_arg = Arg.(value & opt int 100 & info [ "ticks"; "t" ] ~doc:"Clock ticks to simulate.")

let evaluator_arg =
  Arg.(
    value
    & opt string "indexed"
    & info [ "evaluator"; "e" ]
        ~doc:"Aggregate evaluator: naive or indexed; fused is a synonym of indexed.  Every \
              evaluator runs the same compiled kernels.")

let density_arg =
  Arg.(value & opt float 0.01 & info [ "density" ] ~doc:"Fraction of grid squares occupied.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Root random seed.")
let optimize_arg = Arg.(value & flag & info [ "no-optimize" ] ~doc:"Disable plan rewriting.")
let resurrect_arg = Arg.(value & flag & info [ "no-resurrect" ] ~doc:"Let the dead stay dead.")

let index_cache_arg =
  Arg.(
    value
    & flag
    & info [ "no-index-cache" ]
        ~doc:"Rebuild every index structure from scratch each tick instead of revalidating \
              last tick's structures against the tick's delta summary.  Results are \
              bit-identical either way; only build work changes.")
let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Progress every ~10% of ticks.")
let ascii_arg = Arg.(value & flag & info [ "draw" ] ~doc:"Draw the final battlefield as ASCII art.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Record a per-tick CSV trace of every unit to $(docv).")

let fault_policy_arg =
  Arg.(
    value
    & opt string "fail"
    & info [ "fault-policy" ]
        ~doc:"What a tick does when a phase raises: fail (rollback and abort), quarantine \
              (exclude the failing script group and keep going), or degrade (demote the \
              evaluator from fused or indexed to naive and retry the tick).")

let inject_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "inject" ] ~docv:"POINT:SPEC"
        ~doc:"Arm a fault-injection point, e.g. eval.member:count=3, exec.group:always, \
              index.build:p=0.1,seed=7.  Repeatable.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Enable the ambient telemetry registry and write its counters and \
              histograms, with the simulation's own registry (index builds, reuses and probes, \
              engine counters), as JSON {\"ambient\": ..., \"sim\": ...} to $(docv) after \
              the run.")

let trace_spans_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-spans" ] ~docv:"FILE"
        ~doc:"Record per-tick, per-phase, per-script-group and per-operator spans and write \
              them in Chrome trace-event format to $(docv) (load at chrome://tracing or \
              ui.perfetto.dev).")

let explain_arg =
  Arg.(
    value
    & flag
    & info [ "explain" ]
        ~doc:"After the run, print every compiled aggregate plan annotated with live run \
              counters: rows scanned, index probes, prefix-aggregate answers vs. enumerations \
              vs. sweeps, and cache reuse per index group.")

let checkpoint_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:"Arm durable state: append a CRC-framed journal record after every committed tick \
              and write checkpoint generations into $(docv) (created if missing).  A crashed \
              run restarts from where it left off with $(b,--restore).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt int 25
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Ticks between checkpoint generations (with --checkpoint-dir; 0 keeps only the \
              initial generation and relies on journal replay).")

let restore_arg =
  Arg.(
    value
    & flag
    & info [ "restore" ]
        ~doc:"Recover from --checkpoint-dir instead of starting fresh: load the newest \
              checkpoint generation that passes checksum validation (falling back past corrupt \
              ones), deterministically replay the journal, then continue to --ticks.  The \
              final state is bit-identical to an uninterrupted run.")

let no_fsync_arg =
  Arg.(
    value
    & flag
    & info [ "no-fsync" ]
        ~doc:"Skip fsync on journal appends and checkpoint writes (faster, but a crash can \
              lose recent ticks; recovery still works from whatever reached the disk).")

let sleep_ms_arg =
  Arg.(
    value
    & opt int 0
    & info [ "sleep-ms" ] ~docv:"MS"
        ~doc:"Sleep $(docv) milliseconds after each tick.  For crash-recovery tests that need \
              to kill the process mid-run at a predictable point.")

let obs_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "obs-port" ] ~docv:"PORT"
        ~doc:"Serve the live observability endpoint on 127.0.0.1:$(docv) while the battle runs: \
              /metrics (Prometheus), /stats (JSON), /ticks (flight-recorder tail), /explain \
              (live-annotated plans), /health (readiness + anomaly flags) and /query (read-only \
              SGL aggregate over the last committed tick).  0 picks an ephemeral port (printed \
              at startup).")

let flight_cap_arg =
  Arg.(
    value
    & opt int 0
    & info [ "flight-recorder" ] ~docv:"N"
        ~doc:"Keep a ring of the last $(docv) per-tick commit records (phase timings, counter \
              deltas, population, state digest).  Implied with capacity 1024 by --obs-port or \
              --dump-flight.")

let dump_flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-flight" ] ~docv:"FILE"
        ~doc:"Stream every flight-recorder record to $(docv) as it commits (CRC-framed binary, \
              flushed per record), so even a SIGKILL leaves a loadable black box.  Read it back \
              with --print-flight.")

let print_flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "print-flight" ] ~docv:"FILE"
        ~doc:"Load a flight-recorder dump and print a JSON summary (record count, torn flag, \
              first/last tick, last record), then exit without running a battle.")

let summary_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary-json" ] ~docv:"FILE"
        ~doc:"Write the final state as JSON (tick, units, digest, deaths, resurrections, \
              quarantined, ticks/s, failed) to $(docv); '-' writes to stdout.  The \
              machine-readable twin of the 'final state:' line.")

let cmd =
  let doc = "run the SGL battle simulation (knights, archers, healers)" in
  Cmd.v
    (Cmd.info "battle_sim" ~version:Sgl.version ~doc)
    Term.(
      const
        (fun u t e d s no_opt no_res no_cache v a tr fp inj m sp ex cd ce rst nf slp op fc dfl
             pfl sj ->
          run u t e d s (not no_opt) (not no_res) (not no_cache) v a tr fp inj m sp ex cd ce
            rst nf slp op fc dfl pfl sj)
      $ units_arg $ ticks_arg $ evaluator_arg $ density_arg $ seed_arg
      $ optimize_arg $ resurrect_arg $ index_cache_arg $ verbose_arg $ ascii_arg $ trace_arg
      $ fault_policy_arg $ inject_arg $ metrics_arg $ trace_spans_arg $ explain_arg
      $ checkpoint_dir_arg $ checkpoint_every_arg $ restore_arg $ no_fsync_arg $ sleep_ms_arg
      $ obs_port_arg $ flight_cap_arg $ dump_flight_arg $ print_flight_arg $ summary_json_arg)

let () = exit (Cmd.eval' cmd)
