(* One workload, one seed, one process: set up, warm, measure a closed
   tick loop, probe reads and recovery, and check the outputs.

   The protocol of a run:
   1. four set-ups (unit generation, [Simulation.create], the first
      cold tick), each on a compacted heap with every earlier reference
      dropped;
   2. two untimed warm ticks, after which the state digest and
      population are checked against the pins, then the workload's
      [settle_ticks];
   3. the window: ticks back to back for [--seconds] (or a fixed
      [--ticks]), each timed around [Simulation.step].  Between ticks,
      outside the clock, groups of query samples are taken, spread
      evenly over the window;
   4. the probe: a checkpoint and [replay_ticks] journaled ticks;
   5. recovery: three to thirty timed [Simulation.restore]s, more while
      they fit in six seconds, then an untimed one under the alternate
      evaluator; all must land on the live digest;
   6. four more set-ups; [setup_s] is the median of all eight.

   Other tenants of a shared host slow a run down in bursts lasting
   seconds; they never speed it up.  So every gated timing is taken
   where the run went fastest: the window is cut into blocks of at least
   a second, and the tick metrics come from the fastest block, the query
   metric from the fastest group and recovery from the fastest restore.
   Set-ups are split across the start and the end of the run, so that
   one burst reaches only some of them.

   A traced run splits the window: its first half runs untraced, and
   the second runs as many ticks again with the benchmark's spans and
   layer calls around every step, so it ends on the tick a timed run of
   the same length ends on. *)

open Sgl
module Codec = Persist.Codec
module Journal = Persist.Journal
module Checkpoint = Persist.Checkpoint
module Colstore = Sgl_relalg.Colstore

type opts = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  ticks : int option;  (** a fixed window length instead of [seconds] *)
  trace : bool;
  smoke : bool;
  pins : Pins.pin list;
  out_dir : string;
}

type metric = { name : string; value : float; unit_ : string; samples : int }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  tails : metric list;  (** tail percentiles: printed, not gated *)
  window_ticks : int;
  window_digest : int;  (** state digest when the window ends *)
  checks : (string * bool) list;
}

let now = Timer.now_ns
let since_ns t0 = Int64.to_float (Int64.sub (now ()) t0)

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile (xs : float list) (p : float) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs = percentile xs 50.
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

let peak_rss_mb () : float =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let population sim = Array.length (Simulation.units sim)

(* Pass/fail bookkeeping shared by every phase of a run.  Operations are
   timed ticks, reads, query samples and restores. *)
type book = {
  w : Workload.t;
  mutable checks : (string * bool) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let check b name ok =
  b.checks <- (name, ok) :: b.checks;
  if not ok then Printf.eprintf "%s: check failed: %s\n%!" b.w.Workload.name name

let op b ok =
  b.attempted <- b.attempted + 1;
  if not ok then b.failed <- b.failed + 1

(* ------------------------------------------------------------------ *)
(* Set-up *)

type setup_times = { scenario_ns : float; create_ns : float; first_tick_ns : float }

let setup_total s = s.scenario_ns +. s.create_ns +. s.first_tick_ns

let setup (w : Workload.t) ~evaluator ~seed ~n : Simulation.t * Simulation.config * setup_times =
  let t0 = now () in
  let inputs = w.make ~seed ~n in
  let t1 = now () in
  let config = inputs.Workload.config () in
  let sim = Simulation.create config ~evaluator ~units:inputs.Workload.units in
  let t2 = now () in
  Simulation.step sim;
  let t3 = now () in
  let d a b = Int64.to_float (Int64.sub b a) in
  (sim, config, { scenario_ns = d t0 t1; create_ns = d t1 t2; first_tick_ns = d t2 t3 })

(* Four set-ups on a compacted heap; only the last simulation survives.
   Returns it with each set-up's times, after checking that every set-up
   reaches [fingerprint] (digest and population after the cold tick; by
   default, the first set-up's).  The count is fixed: the heap's history
   decides the peak resident set, and a count that followed the clock
   made it swing by 9% from run to run. *)
let setups b (w : Workload.t) ~seed ~n ?fingerprint () =
  let rec go i acc =
    Gc.compact ();
    let sim, config, times = setup w ~evaluator:w.evaluator ~seed ~n in
    let acc = (times, (Simulation.state_digest sim, population sim)) :: acc in
    if i >= 4 then (sim, config, List.rev acc) else go (i + 1) acc
  in
  let sim, config, runs = go 1 [] in
  let fingerprint = Option.value fingerprint ~default:(snd (List.hd runs)) in
  check b "every set-up reaches the same state after the cold tick"
    (List.for_all (fun (_, fp) -> fp = fingerprint) runs);
  (sim, config, List.map fst runs)

(* ------------------------------------------------------------------ *)
(* The tick loop *)

(* Runs [tick] (which returns the step's duration in ns) while
   [continue_ count elapsed_s] holds.  An iteration is the tick plus, for
   a durable workload, one /query and one /metrics every 5th tick; after
   each, [between ~count ~elapsed] runs outside the iteration clock.  A
   tick that raises ends the loop.  Returns the step and the iteration
   durations (ns) of the ticks that committed, oldest first. *)
let loop b ~live ~continue_ ?(between = fun ~count:_ ~elapsed:_ -> ()) (tick : unit -> float) =
  let reads live =
    List.iter
      (fun (path, params) -> op b ((Obs.Live.handler live ~path ~params).Obs.Server.status = 200))
      [ ("/query", [ ("q", Workload.query) ]); ("/metrics", []) ]
  in
  let steps = ref [] and iterations = ref [] and count = ref 0 and alive = ref true in
  let t_start = now () in
  let elapsed () = since_ns t_start /. 1e9 in
  while !alive && continue_ !count (elapsed ()) do
    let t0 = now () in
    (match tick () with
    | ns ->
      op b true;
      steps := ns :: !steps
    | exception e ->
      op b false;
      alive := false;
      check b ("every tick commits (raised " ^ Printexc.to_string e ^ ")") false);
    incr count;
    if !alive then begin
      if !count mod 5 = 0 then Option.iter reads live;
      iterations := since_ns t0 :: !iterations
    end;
    between ~count:!count ~elapsed:(elapsed ())
  done;
  (List.rev !steps, List.rev !iterations)

(* The window cut into blocks of consecutive iterations lasting at least
   a second each, as (step ns, iteration ns) lists; a window too short
   for one block is one block. *)
let blocks (steps : float list) (iterations : float list) : (float list * float list) list =
  let rec go acc cur sum = function
    | [] -> if acc = [] then [ List.split (List.rev cur) ] else List.rev acc
    | (s, i) :: rest ->
      let cur = (s, i) :: cur and sum = sum +. i in
      if sum >= 1e9 then go (List.split (List.rev cur) :: acc) [] 0. rest else go acc cur sum rest
  in
  go [] [] 0. (List.combine steps iterations)

let sum = List.fold_left ( +. ) 0.
let minimum = List.fold_left Float.min infinity
let maximum = List.fold_left Float.max neg_infinity

let timed_step sim () =
  let t0 = now () in
  Simulation.step sim;
  since_ns t0

(* ------------------------------------------------------------------ *)
(* The traced half-window *)

type traced = {
  untraced : float list;  (** step ns of the untraced half *)
  steps : float list;  (** step ns of the traced half *)
  r0 : Simulation.report;
  r1 : Simulation.report;
  ckpt0 : Telemetry.histogram_snapshot;
  ckpt1 : Telemetry.histogram_snapshot;
  counts : (string * int) list;  (** [layer_counters] deltas around the steps *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  dirty_attrs : int;
  structural : int;
  journal_bytes : int;
}

let layer_counters =
  [
    "exec.group_rows_in"; "fused.rows"; "combine.merge_ops"; "relalg.column_copies";
    "persist.snapshot_cow_hits";
  ]

let checkpoint_hist () = Telemetry.histogram "persist.checkpoint_ns"

(* [ticks] steps with the layer calls the per-layer metrics time: a
   refresh of a column store the benchmark owns, a full and an
   incremental digest, a journal append into a writer it owns, a query
   and a /metrics render.  Both digests must equal the engine's on every
   tick. *)
let trace_window b ~sim ~live ~spans ~state_dir ~untraced ~ticks : traced =
  Telemetry.set_enabled true;
  let counters = List.map Telemetry.counter layer_counters in
  let read () = Array.of_list (List.map Telemetry.Counter.value counters) in
  let schema = Simulation.schema sim in
  let all_attrs = List.init (Schema.arity schema) Fun.id in
  let store = Colstore.of_tuples schema (Simulation.units sim) in
  let cache = ref (Codec.units_digest_cache (Simulation.units sim)) in
  let jdir = Filename.concat state_dir "bench-journal" in
  mkdir_p jdir;
  let writer = Journal.create ~dir:jdir ~base:0 ~fsync:false in
  let tel = Simulation.telemetry sim in
  let deaths = Telemetry.Registry.counter tel "sim.deaths"
  and resurrections = Telemetry.Registry.counter tel "sim.resurrections" in
  let counts = Array.make (List.length counters) 0 in
  let minor = ref 0. and promoted = ref 0. and majors = ref 0 in
  let dirty_total = ref 0 and structural_ticks = ref 0 and agree = ref true in
  let journal_bytes = ref 0 in
  let registries = [ ("ambient", Telemetry.default); ("sim", tel) ] in
  let tick () =
    let id = Simulation.tick_count sim in
    let span name f = Spans.with_ spans ~tick:id name f in
    span (Printf.sprintf "tick:%d" id) @@ fun () ->
    let c0 = read () and g0 = Gc.quick_stat () in
    let ns = span "engine.step" (timed_step sim) in
    let g1 = Gc.quick_stat () and c1 = read () in
    Array.iteri (fun i v -> counts.(i) <- counts.(i) + v - c0.(i)) c1;
    minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
    majors := !majors + g1.Gc.major_collections - g0.Gc.major_collections;
    let units = Simulation.units sim and delta = Simulation.last_delta sim in
    let structural, dirty =
      match delta with
      | Some d when not (Delta.structural d) -> (false, Delta.dirty_attrs d)
      | _ -> (true, all_attrs)
    in
    if structural then incr structural_ticks;
    dirty_total := !dirty_total + List.length dirty;
    span "relalg.refresh" (fun () -> Colstore.refresh ?delta store units);
    let full = span "persist.digest_full" (fun () -> Codec.units_digest_cache units) in
    cache := span "persist.digest_incremental" (fun () ->
        Codec.units_digest_incremental !cache ~dirty units);
    let digest = Simulation.state_digest sim in
    if Codec.digest_of_cache full <> digest || Codec.digest_of_cache !cache <> digest then
      agree := false;
    let before = Journal.bytes_written writer in
    span "persist.journal_append" (fun () ->
        Journal.append writer
          {
            Journal.j_tick = id + 1;
            j_units = Array.length units;
            j_digest = digest;
            j_deaths = Telemetry.Counter.value deaths;
            j_resurrections = Telemetry.Counter.value resurrections;
            j_structural = structural;
            j_dirty_attrs = dirty;
            j_dirty_keys = (match delta with Some d -> Delta.dirty_key_count d | None -> 0);
          });
    journal_bytes := !journal_bytes + Journal.bytes_written writer - before;
    span "obs.query" (fun () ->
        ignore
          (Obs.Query.run ~schema ~snapshot:{ Obs.Query.q_tick = id + 1; q_units = units }
             Workload.query));
    span "obs.metrics_render" (fun () -> ignore (Obs.Prometheus.render registries));
    ns
  in
  let r0 = Simulation.report sim and ckpt0 = Telemetry.Histogram.snapshot (checkpoint_hist ()) in
  let steps, _ = loop b ~live ~continue_:(fun count _ -> count < ticks) tick in
  let r1 = Simulation.report sim and ckpt1 = Telemetry.Histogram.snapshot (checkpoint_hist ()) in
  Journal.close writer;
  check b "traced ticks: full and incremental digests equal the engine's" !agree;
  {
    untraced;
    steps;
    r0;
    r1;
    ckpt0;
    ckpt1;
    counts = List.combine layer_counters (Array.to_list counts);
    minor_words = !minor;
    promoted_words = !promoted;
    major_collections = !majors;
    dirty_attrs = !dirty_total;
    structural = !structural_ticks;
    journal_bytes = !journal_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Phases 1 to 4 *)

type simulated = {
  config : Simulation.config;
  setup_times : setup_times list;
  fingerprint : int * int;  (** digest and population after the cold tick *)
  steps : float list;  (** step ns of the window (its untraced half when traced) *)
  iterations : float list;  (** iteration ns, likewise *)
  window_ticks : int;
  window_digest : int;
  rss_mb : float;  (** peak resident set when the window ends *)
  queries : float list list;  (** [Obs.Query.run] ns, in groups taken back to back *)
  live_digest : int;  (** state digest after the probe ticks *)
  checkpoint_mb : float;
  traced : traced option;
}

let simulate b (o : opts) ~spans ~state_dir : simulated =
  let w = o.workload in
  let n = if o.smoke then w.smoke_units else w.units in
  let sim, config, setup_times = setups b w ~seed:o.seed ~n () in
  let fingerprint = (Simulation.state_digest sim, population sim) in
  let live =
    if w.durable then begin
      Simulation.checkpoint_every ~fsync:false sim ~dir:state_dir ~every:25;
      Some (Obs.Live.create ~sim ~prog:config.Simulation.prog ())
    end
    else None
  in
  (* the set-up ran the first tick; warm up to the pinned check tick *)
  Simulation.run sim ~ticks:(Pins.check_tick - 1);
  check b "population is constant" (population sim = n);
  (match Pins.find o.pins ~workload:w.name ~seed:o.seed ~units:n with
  | Some p ->
    check b "pinned digest and population at the check tick"
      (p.Pins.digest = Simulation.state_digest sim && p.Pins.population = population sim)
  | None -> ());
  if not o.smoke then Simulation.run sim ~ticks:w.settle_ticks;
  (* The query the /query endpoint evaluates, against the committed units,
     in groups of [group] samples taken back to back. *)
  let groups = ref [] in
  let groups_wanted, group = if o.smoke then (1, 5) else (50, 10) in
  let query_group () =
    let snapshot =
      { Obs.Query.q_tick = Simulation.tick_count sim; q_units = Simulation.units sim }
    in
    let sample () =
      let t0 = now () in
      let r = Obs.Query.run ~schema:config.Simulation.prog.Core_ir.schema ~snapshot Workload.query in
      op b (Result.is_ok r);
      since_ns t0
    in
    groups := List.init group (fun _ -> sample ()) :: !groups
  in
  let window ~seconds ~ticks ~sample =
    let progress ~count ~elapsed =
      match ticks with
      | Some k -> float_of_int count /. float_of_int k
      | None -> elapsed /. seconds
    in
    let between ~count ~elapsed =
      if sample then
        while
          float_of_int (List.length !groups)
          < float_of_int groups_wanted *. Float.min 1. (progress ~count ~elapsed)
        do
          query_group ()
        done
    in
    loop b ~live ~between (timed_step sim) ~continue_:(fun count elapsed ->
        match ticks with Some k -> count < k | None -> count < 1 || elapsed < seconds)
  in
  let steps, iterations, traced =
    if not o.trace then begin
      let steps, iterations = window ~seconds:o.seconds ~ticks:o.ticks ~sample:true in
      while List.length !groups < groups_wanted do
        query_group ()
      done;
      (steps, iterations, None)
    end
    else begin
      let untraced, iterations =
        window ~seconds:(o.seconds /. 2.)
          ~ticks:(Option.map (fun k -> max 1 (k / 2)) o.ticks)
          ~sample:false
      in
      let ticks = match o.ticks with Some k -> k - List.length iterations | None -> List.length iterations in
      (untraced, iterations, Some (trace_window b ~sim ~live ~spans ~state_dir ~untraced ~ticks))
    end
  in
  let window_ticks =
    List.length iterations + match traced with Some t -> List.length t.steps | None -> 0
  in
  let window_digest = Simulation.state_digest sim in
  let rss_mb = peak_rss_mb () in
  (match live with
  | Some _ -> Simulation.checkpoint_now sim
  | None -> Simulation.checkpoint_every ~fsync:false sim ~dir:state_dir ~every:0);
  for _ = 1 to w.replay_ticks do
    Simulation.step sim
  done;
  let live_digest = Simulation.state_digest sim in
  check b "incremental state digest equals a full recomputation"
    (live_digest = Codec.units_digest (Simulation.units sim));
  check b "population is constant after the probe ticks" (population sim = n);
  Option.iter Obs.Live.stop live;
  Simulation.detach_persistence sim;
  let checkpoint_mb =
    match Checkpoint.generations ~dir:state_dir with
    | g :: _ ->
      float_of_int (Unix.stat (Checkpoint.path ~dir:state_dir ~tick:g)).Unix.st_size /. 1048576.
    | [] -> 0.
  in
  {
    config;
    setup_times;
    fingerprint;
    steps;
    iterations;
    window_ticks;
    window_digest;
    rss_mb;
    queries = List.rev !groups;
    live_digest;
    checkpoint_mb;
    traced;
  }

(* ------------------------------------------------------------------ *)
(* Phase 5: recovery.  Three to thirty restores under the workload's
   evaluator are timed, more while they fit in six seconds; the one
   under the alternate evaluator re-executes the journaled ticks with the
   other backend, and [restore] verifies every replayed tick against the
   digest the journal recorded. *)

let recover b (w : Workload.t) ~config ~state_dir ~live_digest : float list * int =
  let restore evaluator =
    Gc.compact ();
    let t0 = now () in
    let r = Simulation.restore config ~evaluator ~dir:state_dir in
    let s = since_ns t0 /. 1e9 in
    let name = Simulation.evaluator_name evaluator in
    match r with
    | Ok (sim, info) ->
      op b true;
      check b
        (Printf.sprintf "restore under %s replays %d ticks onto the live digest" name
           w.replay_ticks)
        (info.Simulation.replayed = w.replay_ticks && Simulation.state_digest sim = live_digest);
      (s, info.Simulation.replayed)
    | Error e ->
      op b false;
      check b (Printf.sprintf "restore under %s (%s)" name e) false;
      (s, 0)
  in
  let t0 = now () in
  let rec timed i acc =
    let acc = restore w.evaluator :: acc in
    if i >= 3 && (i >= 30 || since_ns t0 > 6e9) then List.rev acc else timed (i + 1) acc
  in
  let timed = timed 1 [] in
  ignore (restore w.alternate);
  (List.map fst timed, snd (List.hd timed))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let m ~samples name value unit_ = { name; value; unit_; samples }
let ms_of_ns ns = ns /. 1e6

(* Each gated timing comes from where the run went fastest (see the top
   of this file); the sample count is the number of blocks, groups or
   restores it was chosen from. *)
let end_to_end (s : simulated) ~recovery : metric list =
  let blocks = blocks s.steps s.iterations in
  let nblocks = List.length blocks in
  let rate (_, iterations) = float_of_int (List.length iterations) /. (sum iterations /. 1e9) in
  [
    m ~samples:nblocks "ticks_per_s" (maximum (List.map rate blocks)) "1/s";
    m ~samples:nblocks "tick_p50_ms"
      (ms_of_ns (minimum (List.map (fun (steps, _) -> median steps) blocks))) "ms";
    m ~samples:(List.length s.setup_times) "setup_s"
      (median (List.map setup_total s.setup_times) /. 1e9) "s";
    m ~samples:1 "peak_rss_mb" s.rss_mb "MB";
    m ~samples:(List.length s.queries) "query_p50_ms"
      (ms_of_ns (minimum (List.map median s.queries))) "ms";
    m ~samples:(List.length recovery) "recovery_s" (minimum recovery) "s";
  ]

(* The highest of p75..p99 with at least ten samples beyond it. *)
let tails (s : simulated) : metric list =
  let tail name samples =
    let n = List.length samples in
    List.find_opt (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.) [ 99.; 98.; 95.; 90.; 75. ]
    |> Option.map (fun p ->
           m ~samples:n (Printf.sprintf "%s_p%.0f_ms" name p) (ms_of_ns (percentile samples p)) "ms")
  in
  List.filter_map Fun.id [ tail "tick" s.steps; tail "query" (List.concat s.queries) ]

(* Means per traced tick.  Phase times are [Simulation.report] deltas;
   layer calls are the benchmark's spans; counts are telemetry counter
   deltas around each step. *)
let layer_metrics (w : Workload.t) (s : simulated) (t : traced) ~spans ~replayed : metric list =
  let ticks = List.length t.steps in
  let n = float_of_int (max 1 ticks) in
  let once = m in
  let m = m ~samples:ticks in
  let per_tick x = x /. n in
  let phase_ms f = (f t.r1 -. f t.r0) *. 1e3 /. n in
  let count_per_tick f = float_of_int (f t.r1 - f t.r0) /. n in
  let span_ms name = ms_of_ns (fst (Spans.stats spans name)) in
  let ratio a b = if a +. b > 0. then a /. (a +. b) else 0. in
  let tick_ms = span_ms "engine.step" in
  let step_self_ms = ms_of_ns (snd (Spans.stats spans "engine.step")) in
  let decision = phase_ms (fun r -> r.Simulation.decision_s)
  and build = phase_ms (fun r -> r.Simulation.build_s)
  and post = phase_ms (fun r -> r.Simulation.post_s)
  and movement = phase_ms (fun r -> r.Simulation.movement_s)
  and death = phase_ms (fun r -> r.Simulation.death_s) in
  let commit = step_self_ms -. (decision +. post +. movement +. death) in
  let refresh = span_ms "relalg.refresh"
  and digest_inc = span_ms "persist.digest_incremental"
  and journal = span_ms "persist.journal_append" in
  let checkpoint_amortised =
    (t.ckpt1.Telemetry.total -. t.ckpt0.Telemetry.total) /. 1e6 /. n
  in
  (* the engine digests and journals every commit only when it is durable *)
  let explained =
    refresh +. (if w.durable then digest_inc +. journal else 0.) +. checkpoint_amortised
  in
  let builds = count_per_tick (fun r -> r.Simulation.index_builds)
  and reuses = count_per_tick (fun r -> r.Simulation.index_reuses) in
  let counter name = per_tick (float_of_int (List.assoc name t.counts)) in
  let rows = counter "exec.group_rows_in"
  and copies = counter "relalg.column_copies"
  and cow_hits = counter "persist.snapshot_cow_hits" in
  let checkpoints = Telemetry.Histogram.snapshot (checkpoint_hist ()) in
  let setup_ms f = ms_of_ns (median (List.map f s.setup_times)) in
  let nsetups = List.length s.setup_times in
  [
    m "engine.tick_ms" tick_ms "ms";
    m "engine.decision_ms" decision "ms";
    m "engine.post_ms" post "ms";
    m "engine.movement_ms" movement "ms";
    m "engine.death_ms" death "ms";
    m "engine.commit_ms" commit "ms";
    m "engine.deaths_per_tick" (count_per_tick (fun r -> r.Simulation.deaths)) "count";
    m "engine.commit_explained_frac" (if commit > 0. then explained /. commit else 0.) "ratio";
    m "index.build_ms" build "ms";
    m "index.builds_per_tick" builds "count";
    m "index.reuses_per_tick" reuses "count";
    m "index.reuse_ratio" (ratio reuses builds) "ratio";
    m "index.probes_per_tick" (count_per_tick (fun r -> r.Simulation.index_probes)) "count";
    m "qopt.probe_ms" (decision -. build) "ms";
    m "qopt.rows_per_tick" rows "count";
    m "qopt.ns_per_row" (if rows > 0. then (decision -. build) *. 1e6 /. rows else 0.) "ns";
    m "qopt.fused_rows_per_tick" (counter "fused.rows") "count";
    m "qopt.naive_scans_per_tick" (count_per_tick (fun r -> r.Simulation.naive_scans)) "count";
    m "qopt.uniform_hits_per_tick" (count_per_tick (fun r -> r.Simulation.uniform_hits)) "count";
    m "relalg.refresh_ms" refresh "ms";
    m "relalg.column_copies_per_tick" copies "count";
    m "relalg.cow_hits_per_tick" cow_hits "count";
    m "relalg.cow_hit_ratio" (ratio cow_hits copies) "ratio";
    m "relalg.merge_ops_per_tick" (counter "combine.merge_ops") "count";
    m "relalg.dirty_attrs_per_tick" (per_tick (float_of_int t.dirty_attrs)) "count";
    m "relalg.structural_frac" (per_tick (float_of_int t.structural)) "ratio";
    m "persist.digest_full_ms" (span_ms "persist.digest_full") "ms";
    m "persist.digest_incremental_ms" digest_inc "ms";
    m "persist.journal_append_us" (journal *. 1e3) "us";
    m "persist.journal_bytes_per_tick" (per_tick (float_of_int t.journal_bytes)) "B";
    once ~samples:checkpoints.Telemetry.count "persist.checkpoint_ms"
      (checkpoints.Telemetry.mean /. 1e6) "ms";
    once ~samples:1 "persist.checkpoint_mb" s.checkpoint_mb "MB";
    once ~samples:1 "persist.restore_replayed_ticks" (float_of_int replayed) "count";
    m "obs.query_eval_ms" (span_ms "obs.query") "ms";
    m "obs.metrics_render_ms" (span_ms "obs.metrics_render") "ms";
    m "gc.minor_mwords_per_tick" (per_tick t.minor_words /. 1e6) "Mword";
    m "gc.promoted_mwords_per_tick" (per_tick t.promoted_words /. 1e6) "Mword";
    m "gc.major_collections_per_100_ticks"
      (per_tick (float_of_int t.major_collections) *. 100.) "count";
    once ~samples:nsetups "setup.scenario_ms" (setup_ms (fun s -> s.scenario_ns)) "ms";
    once ~samples:nsetups "setup.create_ms" (setup_ms (fun s -> s.create_ns)) "ms";
    once ~samples:nsetups "setup.first_tick_ms" (setup_ms (fun s -> s.first_tick_ns)) "ms";
    m "bench.trace_overhead_frac" ((mean t.steps /. mean t.untraced) -. 1.) "ratio";
  ]

(* ------------------------------------------------------------------ *)

let run (o : opts) : result =
  let w = o.workload in
  let b = { w; checks = []; attempted = 0; failed = 0 } in
  let dir = Filename.concat o.out_dir w.name in
  let state_dir = Filename.concat dir (Printf.sprintf "state-%d" (Unix.getpid ())) in
  rm_rf state_dir;
  mkdir_p state_dir;
  Fun.protect ~finally:(fun () -> rm_rf state_dir) @@ fun () ->
  let spans = Spans.create () in
  let s = simulate b o ~spans ~state_dir in
  let recovery, replayed = recover b w ~config:s.config ~state_dir ~live_digest:s.live_digest in
  let n = if o.smoke then w.smoke_units else w.units in
  let _, _, late = setups b w ~seed:o.seed ~n ~fingerprint:s.fingerprint () in
  let s = { s with setup_times = s.setup_times @ late } in
  let metrics =
    match s.traced with
    | None -> end_to_end s ~recovery
    | Some t ->
      let path = Filename.concat dir "trace.json" in
      Spans.write_chrome spans ~path;
      check b "trace.json parses"
        (match Json.read_file path with _ -> true | exception Json.Error _ -> false);
      layer_metrics w s t ~spans ~replayed
  in
  let checks = List.rev b.checks in
  let ok = List.for_all snd checks in
  {
    correct = ok && b.failed = 0;
    attempted = b.attempted;
    (* a failed output check fails every operation of the run *)
    failed = (if ok then b.failed else b.attempted);
    metrics;
    tails = (if o.trace then [] else tails s);
    window_ticks = s.window_ticks;
    window_digest = s.window_digest;
    checks;
  }
