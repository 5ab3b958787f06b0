(** Unified telemetry: a metrics registry and a Chrome-trace span tracer.

    Metrics and spans are inert until enabled; the disabled fast path is a
    single atomic load per call site (the {!Fault_inject} pattern).
    Counters are atomics, so any thread records without locks;
    histograms shard per domain and merge through {!Stats.merge} on read.
    Telemetry never feeds back into simulation state: unit states are
    bit-identical with telemetry on, off, or under EXPLAIN.

    The metric name catalogue lives in docs/INTERNALS.md ("Telemetry and
    EXPLAIN"). *)

type counter
type gauge
type histogram

type histogram_snapshot = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  total : float;
  p50 : float;  (** median, from {!Stats.percentile}'s merge-exact log buckets *)
  p90 : float;
  p99 : float;
}

module Counter : sig
  val name : counter -> string

  (** One atomic load when the owning registry is disabled. *)
  val incr : counter -> unit

  val add : counter -> int -> unit

  (** Unconditional write (ignores the enabled flag) — for counters that
      mirror engine-owned state, e.g. restoring a snapshot on rollback. *)
  val set : counter -> int -> unit

  val value : counter -> int
end

module Gauge : sig
  val name : gauge -> string
  val set : gauge -> float -> unit
  val value : gauge -> float
end

module Histogram : sig
  val name : histogram -> string

  (** Folds into the shard owned by the calling domain (per-shard mutex,
      so recorders rarely contend). *)
  val observe : histogram -> float -> unit

  (** Merge every shard ({!Stats.merge}) and summarize. *)
  val snapshot : histogram -> histogram_snapshot
end

(** {1 JSON fragments}

    Hand-rolled helpers (the toolchain ships no JSON library), shared
    with the observability layer's endpoint bodies. *)

val json_escape : string -> string

(** [json_escape] wrapped in quotes. *)
val json_string : string -> string

(** ["%.6g"]; non-finite floats render as [null]. *)
val json_float : float -> string

module Registry : sig
  type t

  (** [create ()] makes a private registry, disabled unless [enabled]. *)
  val create : ?enabled:bool -> unit -> t

  val enabled : t -> bool
  val set_enabled : t -> bool -> unit

  (** Registration is idempotent by name: later calls return the handle
      the first created.  Register eagerly, hold the handle. *)
  val counter : t -> string -> counter

  val gauge : t -> string -> gauge
  val histogram : t -> string -> histogram

  (** Zero every metric; registrations (and held handles) stay valid. *)
  val reset : t -> unit

  (** Current values, sorted by metric name. *)
  val counters : t -> (string * int) list

  val gauges : t -> (string * float) list
  val histograms : t -> (string * histogram_snapshot) list

  (** The --metrics document: {"counters": {...}, "gauges": {...},
      "histograms": {name: {count, mean, stddev, min, max, total}}}. *)
  val to_json : t -> string

  val write_json : t -> path:string -> unit
end

(** The process-wide ambient registry: the evaluator and executor record
    here.  Disabled by default. *)
val default : Registry.t

(** Enable/disable {!default}. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** [counter name] is [Registry.counter default name]; likewise the rest. *)
val counter : string -> counter

val gauge : string -> gauge
val histogram : string -> histogram

(** Zero every metric of {!default}. *)
val reset : unit -> unit

(** The span tracer: one process-wide buffer of (name, category, domain,
    start, duration) tuples, dumped in Chrome trace-event format (load at
    chrome://tracing or ui.perfetto.dev).  Each event's [tid] is the
    recording domain's id, so each domain renders as its own timeline
    row. *)
module Span : sig
  (** Clear the buffer, stamp the time origin, enable recording. *)
  val start : unit -> unit

  val stop : unit -> unit
  val enabled : unit -> bool

  (** Events recorded since [start]. *)
  val count : unit -> int

  (** [with_ name f] runs [f] inside a complete span ([ph:"X"]).  When
      tracing is off this is [f ()] after one atomic load.  The span is
      recorded even when [f] raises (then re-raises). *)
  val with_ : ?cat:string -> string -> (unit -> 'a) -> 'a

  (** A zero-duration marker ([ph:"i"]): faults, rollbacks, demotions. *)
  val instant : ?cat:string -> string -> unit

  val to_json : unit -> string
  val write : path:string -> unit
end
