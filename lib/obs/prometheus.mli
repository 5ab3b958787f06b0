(** Prometheus text exposition (format 0.0.4) over telemetry
    registries. *)

open Sgl_util

(** ["sgl_" ^ name] with every character outside [[a-zA-Z0-9_:]] mapped
    to ['_']. *)
val metric_name : string -> string

(** [render [(label, registry); ...]] exposes every metric of every
    registry, one [# TYPE] header per metric name, the owning registry
    as a [registry="label"] label.  Counters map directly;
    histograms render as summaries (quantiles 0.5/0.9/0.99 from
    {!Sgl_util.Stats.percentile}, plus [_sum] and [_count]). *)
val render : (string * Telemetry.Registry.t) list -> string

(** The Content-Type a scrape endpoint should serve. *)
val content_type : string
