(** Pluggable aggregate evaluators (Section 6): the naive O(n)-per-query
    scanner and the indexed evaluator driving the Section 5.3/5.4 index
    structures.  Both agree exactly with the reference interpreter. *)

open Sgl_util
open Sgl_relalg

(** The evaluator-wide totals every evaluator built over a registry counts
    into, once per event.  Registration is by name, so [counters tel]
    returns the handles the evaluators over [tel] bump. *)
type counters = {
  index_builds : Telemetry.counter;  (** [eval.index_build]: structures built *)
  index_reuses : Telemetry.counter;
      (** [eval.index_reuse]: structures carried over from the previous
          tick by the cross-tick cache instead of being rebuilt *)
  index_probes : Telemetry.counter;  (** [eval.index_probe] *)
  naive_scans : Telemetry.counter;
      (** [eval.naive_scan]: prober rows and area-effect contributors
          answered by a full scan *)
  uniform_hits : Telemetry.counter;  (** [eval.uniform_hit]: batches answered once and shared *)
  build_ns : Telemetry.counter;
      (** [eval.index_build_ns]: nanoseconds spent building index
          structures and the partition geometries they share *)
}

val counters : Telemetry.Registry.t -> counters

(** An aggregate evaluator.  [prepare ?delta ?cols units] opens a tick
    over [units] and must run before any query of that tick.

    [delta] summarises what changed since the previous [prepare]'s unit
    array; when present and non-structural, the indexed evaluator
    revalidates cached structures against it instead of dropping them.
    Omitting [delta] is always sound: the cache goes cold and everything
    rebuilds.  [cols] is the column store of [units] (same rows, same
    order, each of schema arity); the indexed evaluator's builds read its
    typed columns unchecked, so a caller must not hand it a store of
    other rows ({!Exec.run_tick} checks it).  Omitted, the indexed
    evaluator builds one from [units]; the naive evaluator ignores it. *)
type t = {
  eval_agg : agg_id:int -> rows:Tuple.t array -> rands:(int -> int) array -> Value.t array;
  apply_aoe :
    pred:Predicate.t ->
    updates:(int * Expr.t) list ->
    contributors:Tuple.t array ->
    contributor_rands:(int -> int) array ->
    acc:Combine.Acc.t ->
    unit;
  prepare : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit;
}

(** [naive ~tel ~aggregates] is the naive scanner.  Every evaluator
    records its work in [tel] once: the {!counters} totals, and the
    per-aggregate-instance [agg.<i>.*] counters {!explain} reads.  A
    disabled registry makes the counting inert. *)
val naive : tel:Telemetry.Registry.t -> aggregates:Aggregate.t array -> t

(** [indexed ?share ~tel ~schema ~aggregates ()] builds the Section 5.3/5.4
    evaluator over a per-tick index cache.  With [share] (the default),
    instances whose access paths agree share one index group — Section 6's
    "all divisible queries share the same range tree"; [~share:false]
    gives every instance private trees (the ablation baseline).  Index
    structures are built lazily, on first probe.  It counts into [tel]
    like {!naive}, plus the per-group [group.<id>.reuses] counters. *)
val indexed :
  ?share:bool ->
  tel:Telemetry.Registry.t ->
  schema:Schema.t ->
  aggregates:Aggregate.t array ->
  unit ->
  t

(** [explain ~tel ~schema ~aggregates ()] renders the compiled plan of
    every aggregate instance — chosen strategy, index group, access path —
    annotated with the live counters the evaluators over [tel] have
    accumulated (batches, probes, rows scanned, prefix-aggregate vs.
    enumeration vs. sweep vs. uniform answers, cache reuse per group, and
    the {!counters} totals).  Group assignment is deterministic, so the
    mapping matches any evaluator built with the same
    [share]/[schema]/[aggregates].  Over a disabled registry every
    counter renders as zero. *)
val explain :
  ?share:bool ->
  tel:Telemetry.Registry.t ->
  schema:Schema.t ->
  aggregates:Aggregate.t array ->
  unit ->
  string
