(** The discrete simulation engine (Sections 2.2 and 6): per tick, the
    decision+action phases (set-at-a-time, with index building inside the
    pluggable evaluator), the post-processing query, the movement phase,
    and death handling (removal or uniform-random resurrection). *)

open Sgl_util
open Sgl_relalg
open Sgl_lang

type death_rule =
  | Remove
  | Resurrect of { health : int; max_health : int }

type config = {
  prog : Core_ir.program;
  script_of : Tuple.t -> string option; (* [None]: the unit performs the empty action *)
  postprocess : Postprocess.t;
  movement : Movement.config option;
  death : death_rule;
  seed : int;
  optimize : bool;
}

(** The aggregate evaluator behind the decision phase.  Every kind runs
    the same kernels: each script's optimized plan is lowered to the loop
    IR ({!Sgl_qopt.Loop_ir}) and compiled once at {!create} into a
    closure-composed kernel that takes the evaluator as a run-time
    parameter.  The kinds differ only in how aggregates and area effects
    are evaluated, and produce tick-for-tick the same unit states. *)
type evaluator_kind =
  | Naive  (** nested-loop scans *)
  | Indexed  (** index structures, cached across ticks *)
  | Fused
      (** A synonym of [Indexed], kept under its own name ["fused"] for
          callers and degradation records that use it. *)

val evaluator_name : evaluator_kind -> string

(** What {!step} does when a tick phase raises.  Ticks are transactional:
    the pre-tick state is snapshotted at tick start and restored before
    the policy applies, so no policy ever observes a half-applied tick.

    - [Fail] (the default): re-raise as {!Fault.Error} with full context.
    - [Quarantine_script]: a failing script group is excluded from this
      and every later tick and reported, and the tick is retried without
      it.  The retried tick equals a run in which that group contributed
      nothing; its units stay in the environment.  Faults not attributable
      to one group (opening the tick's index cache, post-processing,
      movement, death) still fail.
    - [Degrade]: demote the evaluator from fused or indexed to naive and
      retry the tick.  The compiled kernels are kept; only the evaluator
      they are handed changes.  Every PRNG draw is keyed by [~tick ~key],
      so the retried tick is bit-identical to a healthy run of naive; when
      even naive fails, re-raise. *)
type fault_policy =
  | Fail
  | Quarantine_script
  | Degrade

val fault_policy_name : fault_policy -> string

type t

(** [create ?fault_policy ?fault_log_capacity ?index_cache config
    ~evaluator ~units] assembles a simulation.  [fault_policy] defaults
    to [Fail]; [fault_log_capacity] bounds the in-memory fault log
    (default 64 — later faults are counted but not retained).
    [index_cache] (default [true]) hands each tick's delta summary to the
    next tick's evaluator so index structures over untouched attributes
    survive across ticks; [false] restores rebuild-every-tick behaviour,
    with bit-identical unit states.  Every tick records its delta
    summary ({!last_delta}) either way.

    The simulation keeps the units' column store (one typed column per
    schema attribute) as part of its committed state: every commit
    refreshes it copy-on-write, a rollback restores it with the rows, and
    it is what the decision phase's index builds scan and the source of
    the checkpoints' unit columns. *)
val create :
  ?fault_policy:fault_policy ->
  ?fault_log_capacity:int ->
  ?index_cache:bool ->
  config ->
  evaluator:evaluator_kind ->
  units:Tuple.t array ->
  t

val schema : t -> Schema.t

(** The current unit state (do not mutate). *)
val units : t -> Tuple.t array

val tick_count : t -> int
val step : t -> unit
val run : t -> ticks:int -> unit

(** {2 Durable state}

    Armed persistence makes the simulation survive its process: every
    committed tick appends one CRC-framed record to a commit journal
    ({!Sgl_persist.Journal}), and every [every] ticks the full state is
    snapshotted as a new checkpoint generation
    ({!Sgl_persist.Checkpoint}).  Recovery ({!restore}) loads the newest
    generation that passes checksum validation — falling back to older
    generations when a file is corrupt — then deterministically re-executes
    the journaled ticks, verifying each against its journaled fingerprint.
    The replay is bit-identical to the lost run because every PRNG draw is
    a pure function of (seed, tick, key, i) and evaluators are
    differentially pinned equal. *)

(** [checkpoint_every ?fsync ?keep t ~dir ~every] arms persistence: an
    initial checkpoint generation is written immediately, a journal record
    follows every committed tick, and a new generation is cut each [every]
    ticks ([0]: only the arming checkpoint; the journal still grows).
    [fsync] (default [true]) fsyncs every journal append and checkpoint;
    [keep] (default 2) bounds retained generations.  Raises on I/O
    failure, and propagates ["io.checkpoint.write"] /
    ["io.journal.append"] injections. *)
val checkpoint_every : ?fsync:bool -> ?keep:int -> t -> dir:string -> every:int -> unit

(** Cut a checkpoint generation now (persistence must be armed). *)
val checkpoint_now : t -> unit

(** Close the journal and disarm persistence (idempotent).  Call on every
    exit path so the journal's tail record is not torn by process
    teardown. *)
val detach_persistence : t -> unit

(** CRC-32 of the canonical binary encoding of the current unit array —
    the deterministic state fingerprint journal records carry and
    crash-recovery differentials compare. *)
val state_digest : t -> int

type restore_info = {
  restored_tick : int;  (** the checkpoint generation recovery loaded *)
  replayed : int;  (** journal ticks re-executed on top of it *)
  generations_skipped : int;
      (** newer generations rejected as corrupt or unreadable *)
  journal_torn : bool;
      (** the journal chain ended in a torn (mid-append) record *)
}

(** [restore config ~evaluator ~dir] recovers a simulation from [dir]:
    newest valid checkpoint plus deterministic journal replay, each
    replayed tick verified bit-for-bit against its journaled digest.
    [Error] when no generation validates, the checkpoint seed disagrees
    with [config.seed], or replay diverges from the journal.  The
    returned simulation is not armed for persistence — call
    {!checkpoint_every} to resume durability. *)
val restore :
  ?fault_policy:fault_policy ->
  ?fault_log_capacity:int ->
  ?index_cache:bool ->
  config ->
  evaluator:evaluator_kind ->
  dir:string ->
  (t * restore_info, string) result

(** Retained faults, oldest first (bounded by the log capacity). *)
val faults : t -> Fault.t list

(** Faults ever observed, including any the bounded log dropped. *)
val fault_count : t -> int

val quarantined_scripts : t -> string list

(** Demotions performed by the [Degrade] policy: (tick, from, to). *)
val degradations : t -> (int * string * string) list

(** Tick retries performed by [Degrade] and [Quarantine_script]. *)
val retries : t -> int

(** The evaluator currently driving ticks (weaker than the one requested
    at {!create} after a degradation). *)
val current_evaluator : t -> evaluator_kind

(** The simulation's private, always-enabled telemetry registry: the
    engine's one ledger.  It holds the engine counters ([sim.deaths],
    [sim.resurrections], [sim.retries], [sim.rollbacks], [sim.faults],
    the [sim.tick_seconds] histogram) and everything its evaluators count
    ({!Sgl_qopt.Eval.counters}, and the [agg.<i>.*] and
    [group.<id>.reuses] counters behind {!Sgl_qopt.Eval.explain}), across
    demotions too.  {!report} and the tick samples are read from it.
    Independent of the ambient {!Sgl_util.Telemetry.default}, so
    concurrent simulations never mix counts. *)
val telemetry : t -> Telemetry.Registry.t

(** What one committed tick did, as deltas against the previous commit:
    population, state digest, wall-clock per phase, engine-counter and
    index-statistic deltas, and the evaluator that committed it.  Each is
    the difference of the {!telemetry} ledger's reads after and before the
    step, so the samples of a run sum to its {!report}. *)
type tick_sample = {
  s_tick : int;
  s_units : int;
  s_digest : int;  (** {!Sgl_persist.Codec.units_digest} of the committed units *)
  s_tick_s : float;  (** wall-clock of the whole step, retries included *)
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
  s_evaluator : string;
}

(** [set_observer t (Some f)] calls [f] with a {!tick_sample} after each
    committed tick, once the durability hooks have run — so a sample
    never describes state a crash could lose beyond the last journal
    record.  The observer cannot reach unit state, so simulations are
    bit-identical with and without one ({!Sgl_obs} pins that with a
    differential).  Per-tick digests are only computed while an observer
    is installed; [set_observer t None] removes it. *)
val set_observer : t -> (tick_sample -> unit) option -> unit

(** The delta summary the last committed tick recorded, whatever the
    [index_cache] setting ([None] before the first tick and after a
    rollback).  For tests: check it against the ground truth
    {!Sgl_relalg.Delta.of_tuples} computes between unit snapshots. *)
val last_delta : t -> Delta.t option

type timings = {
  decision : Timer.t;
  post : Timer.t;
  movement : Timer.t;
  death : Timer.t;
}

type report = {
  ticks : int;
  n_units : int;
  decision_s : float;
  build_s : float;
  post_s : float;
  movement_s : float;
  death_s : float;
  total_s : float;
  index_builds : int;
  index_probes : int;
  naive_scans : int;
  uniform_hits : int;
  index_reuses : int;
      (** structures the cross-tick cache carried over instead of
          rebuilding *)
  deaths : int;
  resurrections : int;
  faults : int;
  retries : int;
  rollbacks : int;
      (** snapshot restores performed after faults (every fault a policy
          absorbs or re-raises rolled the tick back exactly once) *)
  quarantined : string list;
  degradations : (int * string * string) list;
  tick_p50_s : float;
      (** per-tick wall-clock percentiles from the always-on
          [sim.tick_seconds] histogram ({!Sgl_util.Stats.percentile}) *)
  tick_p90_s : float;
  tick_p99_s : float;
}

val report : t -> report
val pp_report : report Fmt.t
