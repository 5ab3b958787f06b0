(* The discrete simulation engine (Sections 2.2 and 6).

   Each clock tick runs the paper's phases:

   1. decision + action — the optimized plans execute set-at-a-time over
      every scripted unit; index building happens inside the pluggable
      evaluator and is accounted separately (the paper's two index-building
      phases);
   2. post-processing — the Example 4.1 query applies combined effects to
      unit state;
   3. movement — random order, collision detection, simple pathfinding;
   4. death — dead units are removed, or "resurrected at a position chosen
      uniformly at random" to keep the workload constant (Section 6). *)

open Sgl_util
open Sgl_relalg
open Sgl_lang
open Sgl_qopt

type death_rule =
  | Remove
  | Resurrect of { health : int; max_health : int }

type config = {
  prog : Core_ir.program;
  script_of : Tuple.t -> string option; (* None: the unit acts as "empty" *)
  postprocess : Postprocess.t;
  movement : Movement.config option;
  death : death_rule;
  seed : int;
  optimize : bool; (* run the Section 5.2 plan rewrites *)
}

type evaluator_kind =
  | Naive
  | Indexed
  | Fused (* plans lowered to the loop IR and compiled into kernels *)

let evaluator_name = function
  | Naive -> "naive"
  | Indexed -> "indexed"
  | Fused -> "fused"

(* What [step] does when a tick phase raises (ticks are transactional:
   the pre-tick state is always intact when the policy gets to decide). *)
type fault_policy =
  | Fail (* roll back, re-raise with context *)
  | Quarantine_script (* roll back, exclude the failing script group, retry *)
  | Degrade (* demote the evaluator fused -> indexed -> naive and retry *)

let fault_policy_name = function
  | Fail -> "fail"
  | Quarantine_script -> "quarantine"
  | Degrade -> "degrade"

(* The next-weaker evaluator of the demotion chain.  Fused demotes to the
   interpreted indexed evaluator: same index structures, no kernels. *)
let demotion = function
  | Fused -> Some Indexed
  | Indexed -> Some Naive
  | Naive -> None

(* The engine behind a simulation: the evaluator, and the fused kernels
   that replace plan walking (fused only). *)
type engine = {
  evaluator : Eval.t;
  kernels : Exec.fused option;
}

(* Global mirror in the ambient registry (gated, off by default) so
   --metrics output carries rollbacks next to the evaluator counters; the
   per-simulation registry below is the report's source of truth. *)
let tel_rollbacks = Telemetry.counter "sim.rollbacks"

(* Durable-state telemetry (ambient registry, gated like the rest). *)
let tel_checkpoints = Telemetry.counter "persist.checkpoints"
let tel_journal_records = Telemetry.counter "persist.journal_records"
let tel_journal_bytes = Telemetry.counter "persist.journal_bytes"
let tel_recoveries = Telemetry.counter "persist.recoveries"
let tel_fallbacks = Telemetry.counter "persist.fallbacks"
let tel_replayed = Telemetry.counter "persist.replayed_ticks"
let tel_checkpoint_ns = Telemetry.histogram "persist.checkpoint_ns"

module Checkpoint = Sgl_persist.Checkpoint
module Journal = Sgl_persist.Journal
module Codec = Sgl_persist.Codec

(* Armed durable persistence: a journal record per committed tick, a new
   checkpoint generation every [p_every] ticks (0: only the generation
   written when arming). *)
type persistence = {
  p_dir : string;
  p_every : int;
  p_fsync : bool;
  p_keep : int;
  mutable p_base : int; (* tick of the newest durable checkpoint *)
  mutable p_journal : Journal.writer option;
}

type timings = {
  decision : Timer.t; (* includes index building; see evaluator stats *)
  post : Timer.t;
  movement : Timer.t;
  death : Timer.t;
}

(* What one committed tick did, as deltas against the previous commit.
   Handed to the observer (the flight recorder) right after the
   durability hooks, so a sample describes exactly the state a crash
   would recover to.  Everything here is derived from state the engine
   already tracks; the digest is the only extra per-tick cost, and it is
   computed only when an observer is installed. *)
type tick_sample = {
  s_tick : int;
  s_units : int;
  s_digest : int; (* Codec.units_digest of the committed unit array *)
  s_tick_s : float; (* wall-clock of the whole step, retries included *)
  s_decision_s : float;
  s_post_s : float;
  s_movement_s : float;
  s_death_s : float;
  s_deaths : int;
  s_resurrections : int;
  s_faults : int;
  s_rollbacks : int;
  s_retries : int;
  s_demotions : int;
  s_index_builds : int;
  s_index_reuses : int;
  s_evaluator : string; (* evaluator that committed the tick *)
}

type t = {
  config : config;
  compiled : Exec.compiled;
  mutable engine : engine; (* replaced when [Degrade] demotes *)
  mutable evaluator : evaluator_kind;
  policy : fault_policy;
  prng : Prng.t;
  (* The committed units.  Rows are immutable once committed: every phase
     copies a row before changing it, so unchanged rows are shared between
     consecutive committed arrays and a rollback only swaps this pointer. *)
  mutable units : Tuple.t array;
  grid : Movement.grid option; (* movement's occupancy table, reused every tick *)
  (* Columnar mirror of [units] (struct-of-arrays, one typed column per
     schema attribute).  [units] stays authoritative; the mirror is
     refreshed copy-on-write at each commit point, keyed by the tick's
     dirty-attribute delta, and handed to the decision phase as the
     evaluators' and kernels' contiguous access path.  A faulting tick
     never refreshes it, so after rollback it still mirrors the restored
     unit array. *)
  store : Colstore.t;
  columnar : bool; (* hand the mirror to the decision phase as an access path *)
  index_cache : bool; (* hand deltas to the evaluator across ticks *)
  (* What the last committed tick changed, relative to the unit array its
     decision phase saw.  Consumed by the next tick's [prepare]; cleared
     on rollback, so a retried or failed tick always reopens the cache
     cold rather than against a delta whose mutations were undone. *)
  mutable pending_delta : Delta.t option;
  (* Per-column CRCs behind the last state digest, tagged with the tick it
     was computed at.  Lets the next commit's digest recompute only the
     columns the tick dirtied (same [Delta] contract the columnar mirror's
     copy-on-write refresh trusts) and recombine the rest.  Dropped on
     restore; a missing or stale entry falls back to a full pass. *)
  mutable digest_cache : (int * Codec.digest_cache) option;
  mutable tick : int;
  timings : timings;
  (* The per-simulation telemetry registry: always enabled, private to
     this simulation, the single source of truth for the report's engine
     counters.  Counters (not mutable fields) so the transactional tick
     can snapshot/restore them with [Counter.value]/[Counter.set] and so
     they read uniformly with the ambient registry's metrics. *)
  tel : Telemetry.Registry.t;
  c_deaths : Telemetry.counter;
  c_resurrections : Telemetry.counter;
  c_retries : Telemetry.counter; (* tick retries by Degrade or Quarantine_script *)
  c_rollbacks : Telemetry.counter; (* snapshot restores after a fault *)
  c_faults : Telemetry.counter; (* faults observed (log may drop some) *)
  h_tick_s : Telemetry.histogram; (* per-tick wall-clock, feeds report percentiles *)
  (* The per-commit observer (None by default).  The engine never depends
     on what it does; nothing it can reach feeds back into unit state, so
     runs are bit-identical with and without one installed. *)
  mutable observer : (tick_sample -> unit) option;
  (* fault-tolerance state *)
  fault_log : Fault.Log.t;
  mutable phase : Fault.phase; (* the phase currently executing, for context *)
  mutable quarantined : string list; (* script groups excluded from future ticks *)
  mutable degradations : (int * string * string) list; (* tick, from, to *)
  mutable retired_stats : Eval.eval_stats; (* totals of engines retired by demotion *)
  mutable persist : persistence option; (* armed by [checkpoint_every] *)
}

let make_engine ~(schema : Schema.t) ~(aggregates : Aggregate.t array)
    ~(compiled : Exec.compiled) (evaluator : evaluator_kind) : engine =
  let indexed () = Eval.indexed ~schema ~aggregates () in
  match evaluator with
  | Naive -> { evaluator = Eval.naive ~schema ~aggregates; kernels = None }
  | Indexed -> { evaluator = indexed (); kernels = None }
  | Fused ->
    (* Kernels specialize the plans, not the evaluator: the indexed
       evaluator underneath still owns aggregate evaluation, AoE
       combination and the cross-tick index cache.  The interval-fact
       folding oracle runs with untrusted schema ranges (the engine must
       stay correct on stores that violate the declared contracts), so it
       only discharges expressions that are constant on *every* store. *)
    let oracle = Sgl_analysis.Absint.make_oracle compiled.Exec.prog in
    {
      evaluator = indexed ();
      kernels = Some (Exec.fuse ~fold:oracle.Sgl_analysis.Absint.fold compiled);
    }

let create ?(fault_policy = Fail) ?(fault_log_capacity = 64) ?(index_cache = true)
    ?(columnar = true) (config : config) ~(evaluator : evaluator_kind)
    ~(units : Tuple.t array) : t =
  let schema = config.prog.Core_ir.schema in
  let aggregates = config.prog.Core_ir.aggregates in
  let tel = Telemetry.Registry.create ~enabled:true () in
  (* Interval facts for the optimizer's guard pruning.  Untrusted ranges:
     folding decisions must hold on any store, declared contracts or not.
     The cross-evaluator conformance harness and V002 validation (which
     discharges guards with this same prover) keep the hook honest. *)
  let oracle = Sgl_analysis.Absint.make_oracle config.prog in
  let compiled =
    Exec.compile ~optimize:config.optimize ~prove:oracle.Sgl_analysis.Absint.prove config.prog
  in
  {
    config;
    compiled;
    engine = make_engine ~schema ~aggregates ~compiled evaluator;
    evaluator;
    policy = fault_policy;
    prng = Prng.create config.seed;
    units = Array.map Tuple.copy units;
    grid = Option.map Movement.create_grid config.movement;
    (* decomposed into columns at build time; shares nothing with [units] *)
    store = Colstore.of_tuples schema units;
    columnar;
    index_cache;
    pending_delta = None;
    digest_cache = None;
    tick = 0;
    timings =
      { decision = Timer.create (); post = Timer.create (); movement = Timer.create ();
        death = Timer.create () };
    tel;
    c_deaths = Telemetry.Registry.counter tel "sim.deaths";
    c_resurrections = Telemetry.Registry.counter tel "sim.resurrections";
    c_retries = Telemetry.Registry.counter tel "sim.retries";
    c_rollbacks = Telemetry.Registry.counter tel "sim.rollbacks";
    c_faults = Telemetry.Registry.counter tel "sim.faults";
    h_tick_s = Telemetry.Registry.histogram tel "sim.tick_seconds";
    observer = None;
    fault_log = Fault.Log.create ~capacity:fault_log_capacity ();
    phase = Fault.Decision;
    quarantined = [];
    degradations = [];
    retired_stats = Eval.fresh_stats ();
    persist = None;
  }

let schema t = t.config.prog.Core_ir.schema
let units t = t.units
let tick_count t = t.tick

(* Partition the current units into script groups. *)
let groups (t : t) : Exec.group list =
  let by_script : (string, int Varray.t) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i u ->
      match t.config.script_of u with
      | None -> ()
      | Some name -> begin
        match Hashtbl.find_opt by_script name with
        | Some bucket -> Varray.push bucket i
        | None ->
          let bucket = Varray.create 0 in
          Varray.push bucket i;
          Hashtbl.add by_script name bucket;
          order := name :: !order
      end)
    t.units;
  List.rev_map
    (fun name -> { Exec.script = name; members = Varray.to_array (Hashtbl.find by_script name) })
    !order
  |> List.filter (fun (g : Exec.group) -> not (List.mem g.Exec.script t.quarantined))

(* ------------------------------------------------------------------ *)
(* Fault bookkeeping *)

let add_stats (dst : Eval.eval_stats) (src : Eval.eval_stats) : unit =
  dst.Eval.index_builds <- dst.Eval.index_builds + src.Eval.index_builds;
  dst.Eval.index_probes <- dst.Eval.index_probes + src.Eval.index_probes;
  dst.Eval.naive_scans <- dst.Eval.naive_scans + src.Eval.naive_scans;
  dst.Eval.uniform_hits <- dst.Eval.uniform_hits + src.Eval.uniform_hits;
  dst.Eval.index_reuses <- dst.Eval.index_reuses + src.Eval.index_reuses;
  dst.Eval.build_seconds <- dst.Eval.build_seconds +. src.Eval.build_seconds

(* Demote to the next-weaker evaluator, retiring the current engine's
   counters so the report stays cumulative across the whole run. *)
let demote (t : t) (weaker : evaluator_kind) : unit =
  Telemetry.Span.instant ~cat:"fault" "demote";
  add_stats t.retired_stats t.engine.evaluator.Eval.stats;
  t.degradations <-
    t.degradations @ [ (t.tick, evaluator_name t.evaluator, evaluator_name weaker) ];
  let schema = t.config.prog.Core_ir.schema in
  t.engine <-
    make_engine ~schema ~aggregates:t.config.prog.Core_ir.aggregates ~compiled:t.compiled weaker;
  t.evaluator <- weaker

(* ------------------------------------------------------------------ *)
(* Durable state: snapshots and the commit journal *)

(* The deterministic engine counters a recovered run must agree on with an
   uninterrupted one.  Timings and index statistics are deliberately
   absent: they describe work done, not simulation state. *)
let counter_snapshot (t : t) : (string * int) list =
  [
    ("deaths", Telemetry.Counter.value t.c_deaths);
    ("resurrections", Telemetry.Counter.value t.c_resurrections);
    ("faults", Telemetry.Counter.value t.c_faults);
    ("retries", Telemetry.Counter.value t.c_retries);
    ("rollbacks", Telemetry.Counter.value t.c_rollbacks);
  ]

let state_of (t : t) : Checkpoint.state =
  {
    Checkpoint.tick = t.tick;
    seed = t.config.seed;
    (* the counter-mode PRNG's position is (seed, tick): both are here *)
    cache_epoch = (if t.index_cache then t.tick else 0);
    units = t.units;
    quarantined = t.quarantined;
    counters = counter_snapshot t;
    degradations = t.degradations;
  }

(* CRC-32 of the canonical encoding of the current unit array — the
   fingerprint journal records and recovery differentials compare.

   Incremental: when the last digest describes the previous tick and the
   committed tick's delta summary is available and non-structural, only
   the dirtied columns are re-encoded; everything else recombines from
   the cached per-column CRCs.  Structural ticks (deaths, resurrections),
   rollbacks and cache-off runs fall back to the full pass, and recovery
   verification always recomputes from scratch, cross-checking the
   incremental path against the journaled values every replayed tick. *)
let state_digest (t : t) : int =
  match t.digest_cache with
  | Some (tick, cache) when tick = t.tick -> Codec.digest_of_cache cache
  | prev ->
    let cache =
      match (prev, t.pending_delta) with
      | Some (tick, cache), Some d when tick = t.tick - 1 && not (Delta.structural d) ->
        Codec.units_digest_incremental cache ~dirty:(Delta.dirty_attrs d) t.units
      | _ -> Codec.units_digest_cache t.units
    in
    t.digest_cache <- Some (t.tick, cache);
    Codec.digest_of_cache cache

(* Write a checkpoint generation now, then rotate the journal onto it.
   Ordering matters for crash safety: the new generation is durable before
   the old journal closes, so at every instant some checkpoint + journal
   chain reaches the last committed tick. *)
let checkpoint_now (t : t) : unit =
  match t.persist with
  | None -> invalid_arg "Simulation.checkpoint_now: persistence is not armed"
  | Some p ->
    Telemetry.Span.with_ ~cat:"persist" "checkpoint" @@ fun () ->
    let t0 = Timer.now_ns () in
    let (_ : string) = Checkpoint.save ~dir:p.p_dir ~fsync:p.p_fsync ~schema:(schema t) (state_of t) in
    Option.iter Journal.close p.p_journal;
    p.p_base <- t.tick;
    p.p_journal <- Some (Journal.create ~dir:p.p_dir ~base:t.tick ~fsync:p.p_fsync);
    Checkpoint.prune ~dir:p.p_dir ~keep:p.p_keep;
    Telemetry.Counter.incr tel_checkpoints;
    Telemetry.Histogram.observe tel_checkpoint_ns
      (Int64.to_float (Int64.sub (Timer.now_ns ()) t0))

(* One journal record for the tick that just committed. *)
let journal_commit (t : t) (p : persistence) : unit =
  match p.p_journal with
  | None -> ()
  | Some w ->
    let structural, dirty_attrs, dirty_keys =
      match t.pending_delta with
      | Some d -> (Delta.structural d, Delta.dirty_attrs d, Delta.dirty_key_count d)
      | None ->
        (* no summary recorded (cache off / rolled back): claim everything
           changed — over-reporting is sound, here as in the index cache *)
        (true, [], 0)
    in
    let before = Journal.bytes_written w in
    Journal.append w
      {
        Journal.j_tick = t.tick;
        j_units = Array.length t.units;
        j_digest = state_digest t;
        j_deaths = Telemetry.Counter.value t.c_deaths;
        j_resurrections = Telemetry.Counter.value t.c_resurrections;
        j_structural = structural;
        j_dirty_attrs = dirty_attrs;
        j_dirty_keys = dirty_keys;
      };
    Telemetry.Counter.incr tel_journal_records;
    Telemetry.Counter.add tel_journal_bytes (Journal.bytes_written w - before)

(* ------------------------------------------------------------------ *)
(* The tick *)

(* One attempt at the tick's phases.  Raises whatever a phase raises; on
   success [t.units] holds the post-tick state and the tick counter has
   advanced.  Crucially for the transactional wrapper in [step], no phase
   writes into a committed row: plans work on full-width row copies,
   post-processing and movement copy a row only when a value in it changes
   (at most once per tick between them), resurrection copies the rows it
   revives, every phase builds fresh arrays, and [t.units] is swapped as
   the last action of the attempt. *)
let run_phases (t : t) : unit =
  let sch = schema t in
  let tick = t.tick in
  let rand_for ~key i = Prng.script_random t.prng ~tick ~key i in
  (* The incoming delta (what the previous committed tick changed) keeps
     the evaluator's index cache warm; the outgoing one records what this
     tick changes, for the next.  With the cache disabled neither exists
     and every tick opens cold. *)
  let delta_in = if t.index_cache then t.pending_delta else None in
  let delta_out = if t.index_cache then Some (Delta.create sch) else None in
  (* The columnar mirror is committed alongside [t.units]; mid-restore or
     after a half-applied refresh it may not cover the array, in which
     case the tick simply runs on boxed reads. *)
  let cols =
    if
      t.columnar
      && Colstore.length t.store = Array.length t.units
      && Colstore.rectangular t.store
    then Some t.store
    else None
  in
  (* decision + action *)
  t.phase <- Fault.Decision;
  let acc =
    let { evaluator; kernels } = t.engine in
    Telemetry.Span.with_ ~cat:"phase" "decision" @@ fun () ->
    Timer.record t.timings.decision (fun () ->
        Exec.run_tick ?delta:delta_in ?cols ?kernels t.compiled ~evaluator ~units:t.units
          ~groups:(groups t) ~rand_for)
  in
  (* post-processing *)
  t.phase <- Fault.Post;
  let { Postprocess.survivors; dead; owned } =
    Telemetry.Span.with_ ~cat:"phase" "post" @@ fun () ->
    Timer.record t.timings.post (fun () ->
        Postprocess.apply ?delta:delta_out t.config.postprocess ~schema:sch ~rand_for
          ~units:t.units ~acc)
  in
  (* movement over the survivors *)
  t.phase <- Fault.Movement;
  Telemetry.Span.with_ ~cat:"phase" "movement" (fun () ->
      Timer.record t.timings.movement (fun () ->
          Option.iter
            (fun grid ->
              Movement.run ?delta:delta_out ~owned grid ~schema:sch ~prng:t.prng ~tick
                ~units:survivors ~acc)
            t.grid));
  (* death handling *)
  t.phase <- Fault.Death;
  let final =
    Telemetry.Span.with_ ~cat:"phase" "death" @@ fun () ->
    Timer.record t.timings.death (fun () ->
        Telemetry.Counter.add t.c_deaths (Array.length dead);
        match t.config.death with
        | Remove -> survivors
        | Resurrect { health; max_health } ->
          let revived =
            Array.map
              (fun row ->
                let out = Tuple.copy row in
                Tuple.set out health (Tuple.get out max_health);
                (match (t.grid, t.config.movement) with
                | Some g, Some mconfig -> begin
                  let key = Tuple.key sch out in
                  match Movement.random_free_cell g t.prng ~tick ~salt:key with
                  | Some (x, y) ->
                    Tuple.set out mconfig.Movement.posx (Value.Float (float_of_int x));
                    Tuple.set out mconfig.Movement.posy (Value.Float (float_of_int y));
                    Movement.move_unit g
                      ~from_:
                        ( Value.to_int (Tuple.get row mconfig.Movement.posx),
                          Value.to_int (Tuple.get row mconfig.Movement.posy) )
                      ~to_:(x, y)
                  | None -> ()
                end
                | _ -> ());
                Telemetry.Counter.incr t.c_resurrections;
                out)
              dead
          in
          Array.append survivors revived)
  in
  (* Any death reorders or re-populates the array, so positional data ids
     stop naming the same units: structural.  (Resurrection also rewrites
     health and positions, which structural subsumes.) *)
  if Array.length dead > 0 then Option.iter Delta.record_structural delta_out;
  t.units <- final;
  (* Commit the columnar mirror copy-on-write: clean columns (per the
     tick's dirty-attribute summary) keep their arrays, dirty ones rebuild
     into fresh arrays.  Runs only on the success path — a faulting tick
     leaves the mirror on the pre-tick state the rollback restores. *)
  Colstore.refresh ?delta:delta_out t.store final;
  t.pending_delta <- delta_out;
  t.tick <- t.tick + 1

(* Cumulative evaluator statistics across demotions: retired engines'
   totals plus the live engine's. *)
let cumulative_stats (t : t) : Eval.eval_stats =
  let s = Eval.fresh_stats () in
  add_stats s t.retired_stats;
  add_stats s t.engine.evaluator.Eval.stats;
  s

(* Counter values and cumulative timings captured before a step, so the
   observer's sample can report per-tick deltas. *)
type pre_step = {
  pre_deaths : int;
  pre_resurrections : int;
  pre_faults : int;
  pre_rollbacks : int;
  pre_retries : int;
  pre_demotions : int;
  pre_decision_s : float;
  pre_post_s : float;
  pre_movement_s : float;
  pre_death_s : float;
  pre_builds : int;
  pre_reuses : int;
}

let pre_step_of (t : t) : pre_step =
  let s = cumulative_stats t in
  {
    pre_deaths = Telemetry.Counter.value t.c_deaths;
    pre_resurrections = Telemetry.Counter.value t.c_resurrections;
    pre_faults = Telemetry.Counter.value t.c_faults;
    pre_rollbacks = Telemetry.Counter.value t.c_rollbacks;
    pre_retries = Telemetry.Counter.value t.c_retries;
    pre_demotions = List.length t.degradations;
    pre_decision_s = Timer.elapsed t.timings.decision;
    pre_post_s = Timer.elapsed t.timings.post;
    pre_movement_s = Timer.elapsed t.timings.movement;
    pre_death_s = Timer.elapsed t.timings.death;
    pre_builds = s.Eval.index_builds;
    pre_reuses = s.Eval.index_reuses;
  }

let sample_of (t : t) (pre : pre_step) ~(tick_s : float) : tick_sample =
  let s = cumulative_stats t in
  {
    s_tick = t.tick;
    s_units = Array.length t.units;
    s_digest = state_digest t;
    s_tick_s = tick_s;
    s_decision_s = Timer.elapsed t.timings.decision -. pre.pre_decision_s;
    s_post_s = Timer.elapsed t.timings.post -. pre.pre_post_s;
    s_movement_s = Timer.elapsed t.timings.movement -. pre.pre_movement_s;
    s_death_s = Timer.elapsed t.timings.death -. pre.pre_death_s;
    s_deaths = Telemetry.Counter.value t.c_deaths - pre.pre_deaths;
    s_resurrections = Telemetry.Counter.value t.c_resurrections - pre.pre_resurrections;
    s_faults = Telemetry.Counter.value t.c_faults - pre.pre_faults;
    s_rollbacks = Telemetry.Counter.value t.c_rollbacks - pre.pre_rollbacks;
    s_retries = Telemetry.Counter.value t.c_retries - pre.pre_retries;
    s_demotions = List.length t.degradations - pre.pre_demotions;
    s_index_builds = s.Eval.index_builds - pre.pre_builds;
    s_index_reuses = s.Eval.index_reuses - pre.pre_reuses;
    s_evaluator = evaluator_name t.evaluator;
  }

(* Transactional tick.  The pre-tick state is three references — the unit
   array (whose rows no phase writes into; see [run_phases]) and two
   counters — so the snapshot is O(1) and the fault-free path pays only
   the exception handler.  The fault-free tick is the same code under
   every policy.  On a fault: restore the snapshot, log the fault with
   full context, then apply the policy.  [Quarantine_script] excludes the
   failing script group and retries the tick without it; [Degrade]
   retries the tick under the next-weaker evaluator.  Every PRNG draw is
   keyed by [~tick ~key], so a retry is bit-identical to a healthy run of
   the new configuration: for quarantine, to the failed group having
   contributed nothing (its units stay in the environment). *)
let step (t : t) : unit =
  (* Captured before the attempt so the observer (if any) can report
     per-tick deltas; [pre] costs nothing when no observer is installed. *)
  let t_start = Timer.now_ns () in
  let pre = match t.observer with None -> None | Some _ -> Some (pre_step_of t) in
  let units0 = t.units
  and deaths0 = Telemetry.Counter.value t.c_deaths
  and resurrections0 = Telemetry.Counter.value t.c_resurrections in
  let rec attempt () =
    let phases () =
      (* The tick's root span; the per-tick name is built only when the
         tracer is on, so the disabled path stays allocation-free. *)
      if Telemetry.Span.enabled () then
        Telemetry.Span.with_ ~cat:"sim" (Printf.sprintf "tick:%d" t.tick) (fun () ->
            run_phases t)
      else run_phases t
    in
    match phases () with
    | () -> ()
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      (* A group failure names its script; the fault carries the original
         exception either way. *)
      let script, exn, bt =
        match exn with
        | Exec.Group_failed gf -> (Some gf.Exec.gf_script, gf.Exec.gf_exn, gf.Exec.gf_backtrace)
        | exn -> (None, exn, bt)
      in
      let fault =
        Fault.make ~tick:t.tick ~phase:t.phase ?script ~evaluator:(evaluator_name t.evaluator) exn
          bt
      in
      Fault.Log.push t.fault_log fault;
      Telemetry.Counter.incr t.c_faults;
      Telemetry.Span.instant ~cat:"fault" "rollback";
      t.units <- units0;
      (* Swap the mirror's column pointers back to the restored state.
         Usually a no-op rebuild of identical content (the failed attempt
         never reached the commit refresh), but it also repairs a refresh
         that itself faulted half-way. *)
      Colstore.refresh t.store units0;
      (* [set] writes through the enabled gate: the snapshot restore must
         happen whatever the registry state, like the field writes did. *)
      Telemetry.Counter.set t.c_deaths deaths0;
      Telemetry.Counter.set t.c_resurrections resurrections0;
      Telemetry.Counter.incr t.c_rollbacks;
      Telemetry.Counter.incr tel_rollbacks;
      (* The failed attempt's mutations were undone, so its delta (and the
         one it consumed) no longer describe reality: the retry — and the
         tick after a policy absorbs the fault — must open the index cache
         cold.  The epoch stamp makes any structure the failed attempt
         left behind read as a miss. *)
      t.pending_delta <- None;
      let retry () =
        Telemetry.Counter.incr t.c_retries;
        attempt ()
      in
      let fail () = Printexc.raise_with_backtrace (Fault.Error fault) bt in
      (match (t.policy, script) with
      | Quarantine_script, Some s when not (List.mem s t.quarantined) ->
        (* excluded groups never run, so each retry quarantines a new
           script and the loop ends with at most every script excluded *)
        Telemetry.Span.instant ~cat:"fault" "quarantine";
        t.quarantined <- t.quarantined @ [ s ];
        retry ()
      | (Fail | Quarantine_script), _ -> fail ()
      | Degrade, _ -> begin
        match demotion t.evaluator with
        | None -> fail ()
        | Some weaker ->
          demote t weaker;
          retry ()
      end)
  in
  attempt ();
  (* Durability hooks run only for a committed tick: a failed attempt was
     rolled back before the policy re-raised, so the journal never sees a
     state the simulation did not keep. *)
  (match t.persist with
  | None -> ()
  | Some p ->
    journal_commit t p;
    if p.p_every > 0 && t.tick - p.p_base >= p.p_every then checkpoint_now t);
  let tick_s = Int64.to_float (Int64.sub (Timer.now_ns ()) t_start) /. 1e9 in
  Telemetry.Histogram.observe t.h_tick_s tick_s;
  (* The observer runs last, after the durability hooks: its sample
     describes a tick the journal has already committed, so a flight
     record never gets ahead of recoverable state. *)
  match (t.observer, pre) with
  | Some f, Some pre -> f (sample_of t pre ~tick_s)
  | _ -> ()

let run (t : t) ~(ticks : int) : unit =
  (* Fix the target tick up front: [step] can grow or shrink [t.units]
     (death, resurrection), and the bound must not depend on anything a
     tick mutates. *)
  let target = t.tick + ticks in
  while t.tick < target do
    step t
  done

(* ------------------------------------------------------------------ *)
(* Durable state: arming and recovery *)

let checkpoint_every ?(fsync = true) ?(keep = 2) (t : t) ~(dir : string) ~(every : int) : unit =
  (match t.persist with
  | Some p ->
    Option.iter Journal.close p.p_journal;
    p.p_journal <- None
  | None -> ());
  t.persist <- Some { p_dir = dir; p_every = every; p_fsync = fsync; p_keep = keep;
                      p_base = t.tick; p_journal = None };
  (* an initial durable generation, so recovery always has a base *)
  checkpoint_now t

let detach_persistence (t : t) : unit =
  match t.persist with
  | None -> ()
  | Some p ->
    Option.iter Journal.close p.p_journal;
    p.p_journal <- None;
    t.persist <- None

type restore_info = {
  restored_tick : int; (* the checkpoint generation recovery loaded *)
  replayed : int; (* journal ticks re-executed on top of it *)
  generations_skipped : int; (* newer generations rejected as corrupt/unreadable *)
  journal_torn : bool; (* the journal chain ended in a torn record *)
}

(* Recovery: newest valid checkpoint generation + deterministic replay of
   the journal chain.  Replay re-executes [step] — every PRNG draw is a
   pure function of (seed, tick, key, i), so the re-run is bit-identical
   to the crashed one — and each replayed tick is verified against the
   journaled fingerprint before the next is attempted. *)
let restore ?fault_policy ?fault_log_capacity ?index_cache (config : config)
    ~(evaluator : evaluator_kind) ~(dir : string) : (t * restore_info, string) result =
  let schema = config.prog.Core_ir.schema in
  match Checkpoint.load_latest ~schema ~dir with
  | Error e -> Error e
  | Ok (st, generations_skipped) ->
    if st.Checkpoint.seed <> config.seed then
      Error
        (Printf.sprintf "checkpoint was taken under seed %d, config has seed %d — replay would diverge"
           st.Checkpoint.seed config.seed)
    else begin
      let t =
        create ?fault_policy ?fault_log_capacity ?index_cache config ~evaluator
          ~units:st.Checkpoint.units
      in
      t.tick <- st.Checkpoint.tick;
      t.quarantined <- st.Checkpoint.quarantined;
      t.degradations <- st.Checkpoint.degradations;
      let set_counter name c =
        match List.assoc_opt name st.Checkpoint.counters with
        | Some v -> Telemetry.Counter.set c v
        | None -> ()
      in
      set_counter "deaths" t.c_deaths;
      set_counter "resurrections" t.c_resurrections;
      set_counter "faults" t.c_faults;
      set_counter "retries" t.c_retries;
      set_counter "rollbacks" t.c_rollbacks;
      (* Replay the journal chain: every journal whose base is at or after
         the loaded generation, oldest first.  The chain exists because
         rotation happens at checkpoint time — journal [base=B] covers
         exactly the ticks between generation B and the next one. *)
      let bases =
        if Sys.file_exists dir then
          Sys.readdir dir |> Array.to_list
          |> List.filter_map Journal.base_of_filename
          |> List.filter (fun b -> b >= st.Checkpoint.tick)
          |> List.sort compare
        else []
      in
      let replayed = ref 0 and torn = ref false and error = ref None in
      let verify (e : Journal.entry) =
        if Array.length t.units <> e.Journal.j_units
           || Codec.units_digest t.units <> e.Journal.j_digest
           || Telemetry.Counter.value t.c_deaths <> e.Journal.j_deaths
           || Telemetry.Counter.value t.c_resurrections <> e.Journal.j_resurrections
        then
          error :=
            Some
              (Printf.sprintf
                 "replay diverged at tick %d: journal has units=%d digest=%08x, replay produced units=%d digest=%08x"
                 e.Journal.j_tick e.Journal.j_units e.Journal.j_digest (Array.length t.units)
                 (Codec.units_digest t.units))
      in
      (try
         List.iter
           (fun base ->
             if !error = None && not !torn then begin
               let entries, t_torn = Journal.read ~dir ~base in
               List.iter
                 (fun (e : Journal.entry) ->
                   if !error = None && not !torn then
                     if e.Journal.j_tick <= t.tick then () (* already in the snapshot *)
                     else if e.Journal.j_tick = t.tick + 1 then begin
                       Telemetry.Span.with_ ~cat:"persist" "replay" (fun () -> step t);
                       incr replayed;
                       verify e
                     end
                     else
                       (* a gap means records are missing: stop like a tear
                          rather than replay past unverifiable ticks *)
                       torn := true)
                 entries;
               if t_torn then torn := true
             end)
           bases
       with
      | Codec.Corrupt msg -> error := Some (Printf.sprintf "journal unreadable: %s" msg)
      | Fault.Error f -> error := Some (Printf.sprintf "fault during replay: %s" (Fmt.str "%a" Fault.pp f))
      | Fault_inject.Injected { point; count } ->
        error := Some (Printf.sprintf "injected read fault at %s (call %d)" point count));
      match !error with
      | Some e -> Error e
      | None ->
        Telemetry.Counter.incr tel_recoveries;
        Telemetry.Counter.add tel_fallbacks generations_skipped;
        Telemetry.Counter.add tel_replayed !replayed;
        Ok
          ( t,
            {
              restored_tick = st.Checkpoint.tick;
              replayed = !replayed;
              generations_skipped;
              journal_torn = !torn;
            } )
    end

(* ------------------------------------------------------------------ *)
(* Reporting *)

type report = {
  ticks : int;
  n_units : int;
  decision_s : float;
  build_s : float; (* portion of decision spent building indexes *)
  post_s : float;
  movement_s : float;
  death_s : float;
  total_s : float;
  index_builds : int;
  index_probes : int;
  naive_scans : int;
  uniform_hits : int;
  index_reuses : int; (* structures the cross-tick cache carried over *)
  deaths : int;
  resurrections : int;
  faults : int; (* faults observed, including any the bounded log dropped *)
  retries : int; (* tick retries performed by Degrade or Quarantine_script *)
  rollbacks : int; (* snapshot restores performed after faults *)
  quarantined : string list;
  degradations : (int * string * string) list; (* tick, from, to *)
  tick_p50_s : float; (* per-tick wall-clock percentiles (sim.tick_seconds) *)
  tick_p90_s : float;
  tick_p99_s : float;
}

let faults (t : t) : Fault.t list = Fault.Log.to_list t.fault_log
let fault_count (t : t) : int = Telemetry.Counter.value t.c_faults
let quarantined_scripts (t : t) : string list = t.quarantined
let degradations (t : t) : (int * string * string) list = t.degradations
let retries (t : t) : int = Telemetry.Counter.value t.c_retries
let current_evaluator (t : t) : evaluator_kind = t.evaluator

(* The per-simulation registry, for archiving next to the ambient
   registry's metrics or asserting on engine counters in tests. *)
let telemetry (t : t) : Telemetry.Registry.t = t.tel

(* Install (or remove) the per-commit observer.  Single slot: the flight
   recorder composes the fan-out itself. *)
let set_observer (t : t) (f : (tick_sample -> unit) option) : unit = t.observer <- f

(* The delta the last committed tick recorded (None before the first tick,
   after a rollback, or with the cache disabled).  Exposed so differential
   tests can check it against the ground-truth [Delta.of_tuples]. *)
let last_delta (t : t) : Delta.t option = t.pending_delta

let report (t : t) : report =
  let s = cumulative_stats t in
  let ts = Telemetry.Histogram.snapshot t.h_tick_s in
  let decision_s = Timer.elapsed t.timings.decision in
  let post_s = Timer.elapsed t.timings.post in
  let movement_s = Timer.elapsed t.timings.movement in
  let death_s = Timer.elapsed t.timings.death in
  {
    ticks = t.tick;
    n_units = Array.length t.units;
    decision_s;
    build_s = s.Eval.build_seconds;
    post_s;
    movement_s;
    death_s;
    total_s = decision_s +. post_s +. movement_s +. death_s;
    index_builds = s.Eval.index_builds;
    index_probes = s.Eval.index_probes;
    naive_scans = s.Eval.naive_scans;
    uniform_hits = s.Eval.uniform_hits;
    index_reuses = s.Eval.index_reuses;
    deaths = Telemetry.Counter.value t.c_deaths;
    resurrections = Telemetry.Counter.value t.c_resurrections;
    faults = Telemetry.Counter.value t.c_faults;
    retries = Telemetry.Counter.value t.c_retries;
    rollbacks = Telemetry.Counter.value t.c_rollbacks;
    quarantined = t.quarantined;
    degradations = t.degradations;
    tick_p50_s = ts.Telemetry.p50;
    tick_p90_s = ts.Telemetry.p90;
    tick_p99_s = ts.Telemetry.p99;
  }

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "@[<v>ticks=%d units=%d total=%.3fs (decision=%.3fs [build=%.3fs] post=%.3fs move=%.3fs \
     death=%.3fs)@,tick p50=%.2fms p90=%.2fms p99=%.2fms@,builds=%d reuses=%d probes=%d scans=%d \
     uniform=%d deaths=%d resurrections=%d"
    r.ticks r.n_units r.total_s r.decision_s r.build_s r.post_s r.movement_s r.death_s
    (r.tick_p50_s *. 1e3) (r.tick_p90_s *. 1e3) (r.tick_p99_s *. 1e3) r.index_builds
    r.index_reuses r.index_probes r.naive_scans r.uniform_hits r.deaths r.resurrections;
  (* fault-free runs keep the pre-fault-layer report byte-identical *)
  if r.faults > 0 || r.retries > 0 || r.quarantined <> [] || r.degradations <> [] then
    Fmt.pf ppf "@,faults=%d retries=%d rollbacks=%d quarantined=[%s] degraded=[%s]"
      r.faults r.retries r.rollbacks
      (String.concat "," r.quarantined)
      (String.concat ","
         (List.map (fun (tick, from_, to_) -> Fmt.str "t%d:%s->%s" tick from_ to_) r.degradations));
  Fmt.pf ppf "@]"
