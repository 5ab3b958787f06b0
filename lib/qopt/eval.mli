(** Pluggable aggregate evaluators (Section 6): the naive O(n)-per-query
    scanner and the indexed evaluator driving the Section 5.3/5.4 index
    structures.  Both agree exactly with the reference interpreter. *)

open Sgl_relalg

type eval_stats = {
  mutable index_builds : int;
  mutable index_probes : int;
  mutable naive_scans : int;
  mutable uniform_hits : int;
  mutable index_reuses : int;
      (** structures carried over from the previous tick by the cross-tick
          cache instead of being rebuilt *)
  mutable build_seconds : float;
}

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
  name : string;
  eval_agg : agg_id:int -> rows:Tuple.t array -> rands:(int -> int) array -> Value.t array;
  apply_aoe :
    pred:Predicate.t ->
    updates:(int * Expr.t) list ->
    contributors:Tuple.t array ->
    contributor_rands:(int -> int) array ->
    acc:Combine.Acc.t ->
    unit;
  prepare : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit;
  stats : eval_stats;
}

val fresh_stats : unit -> eval_stats

(** The naive scanner. *)
val naive : aggregates:Aggregate.t array -> t

(** [indexed ?share ~schema ~aggregates ()] builds the Section 5.3/5.4
    evaluator over a per-tick index cache.  With [share] (the default),
    instances whose access paths agree share one index group — Section 6's
    "all divisible queries share the same range tree"; [~share:false]
    gives every instance private trees (the ablation baseline).  Index
    structures are built lazily, on first probe. *)
val indexed :
  ?share:bool -> schema:Schema.t -> aggregates:Aggregate.t array -> unit -> t

(** [explain ~schema ~aggregates ()] renders the compiled plan of every
    aggregate instance — chosen strategy, index group, access path —
    annotated with the live telemetry counters the evaluators have
    accumulated in {!Sgl_util.Telemetry.default} (batches, probes, rows
    scanned, prefix-aggregate vs. enumeration vs. sweep vs. uniform
    answers, and cache reuse per group).  Group assignment is
    deterministic, so the mapping matches any evaluator built with the
    same [share]/[schema]/[aggregates].  With telemetry disabled all
    counters render as zero. *)
val explain : ?share:bool -> schema:Schema.t -> aggregates:Aggregate.t array -> unit -> string
