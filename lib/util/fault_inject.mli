(** Seeded, deterministic fault injection.

    The engine compiles named injection points into its phases; each point
    is a single [hit] call that is inert until armed.  Arming a point with
    a {!spec} makes it raise {!Injected} — always, at an exact call count,
    or by a seeded per-call probability — so every recovery path is
    testable and reproducible from a seed.

    Arm/reset are meant to run while no simulation is in flight; [hit] is
    safe to call from any domain. *)

type spec =
  | Always
  | Prob of { p : float; seed : int }
      (** Fire on calls where a pure hash of (seed, point, call number)
          lands below [p]: the same seed always fires on the same calls. *)
  | At_count of int  (** Fire on exactly the Nth call to the point, 1-based. *)

exception Injected of { point : string; count : int }

(** The injection points compiled into the engine:
    ["eval.member"] (indexed-evaluator aggregate batch),
    ["exec.group"] (per script group, per tick),
    ["fused.kernel"] (per kernel row batch of the fused evaluator),
    ["index.build"] (per-tick index construction),
    ["io.checkpoint.write"] (per section of a checkpoint being written),
    ["io.journal.append"] (per journal record appended),
    ["io.restore.read"] (per persisted file opened during recovery),
    ["post.apply"] (the post-processing query). *)
val points : string list

(** [hit name] raises {!Injected} when [name] is armed and its spec fires;
    otherwise (and always when nothing is armed) it is a cheap no-op. *)
val hit : string -> unit

(** [arm ~point spec] arms (or re-arms, resetting counters) one point.
    Raises [Invalid_argument] when [point] is not in {!points}. *)
val arm : point:string -> spec -> unit

(** Disarm every point and forget all counters. *)
val reset : unit -> unit

(** Calls observed / faults raised by an armed point (0 when not armed). *)
val calls : string -> int

val fired : string -> int
val armed_points : unit -> string list

(** Parse the CLI syntax [POINT:SPEC] where SPEC is [always], [count=N] or
    [p=F[,seed=N]]. *)
val parse_arg : string -> (string * spec, string) result

val parse_spec : string -> (spec, string) result
val pp_spec : Format.formatter -> spec -> unit
