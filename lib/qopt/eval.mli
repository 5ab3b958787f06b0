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
  stats : eval_stats;
}

(** Evaluators over one unit array, one member per chunk of it.  Members
    answer queries; [prepare ?delta ?cols units] opens the tick for all of
    them and must run on the coordinating domain before any member does.

    [delta] summarises what changed since the previous [prepare]'s unit
    array; when present and non-structural, the indexed evaluators
    revalidate cached structures against it instead of dropping them.
    Omitting [delta] is always sound: the cache goes cold and everything
    rebuilds.  [cols], when given, is a columnar mirror of [units] (same
    rows, same order): index builds then scan contiguous typed columns
    instead of boxed rows.  It is purely an access-path hint — results are
    bit-identical with or without it, and a mirror that does not cover
    [units] is ignored. *)
type family = {
  members : t array;
  prepare : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit;
}

val fresh_stats : unit -> eval_stats

(** The naive scanner: a one-member family. *)
val naive : schema:Schema.t -> aggregates:Aggregate.t array -> family

(** [indexed ?share ?chunks ~schema ~aggregates ()] builds the Section
    5.3/5.4 evaluator as a family of [chunks] (default 1) members over one
    shared per-tick index cache.  With [share] (the default), instances
    whose access paths agree share one index group — Section 6's "all
    divisible queries share the same range tree"; [~share:false] gives
    every instance private trees (the ablation baseline).

    A one-member family builds structures lazily, on first probe.  With
    several members, each safe to drive from its own domain after
    [prepare], [prepare] eagerly builds every index structure any member
    could reach (group indexes, categorical partitions, divisible /
    enumeration / kD sub-structures), so the members' queries never write
    shared state; they are constructed memoization-free, so a structure
    somehow missed is rebuilt call-locally rather than raced on. *)
val indexed :
  ?share:bool ->
  ?chunks:int ->
  schema:Schema.t ->
  aggregates:Aggregate.t array ->
  unit ->
  family

(** Counter totals across every member (for reporting). *)
val family_stats : family -> eval_stats

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
