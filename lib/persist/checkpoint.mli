(** Durable full-state snapshots with generations.

    A checkpoint is one self-contained file: a versioned header and
    CRC-framed sections ({!Codec}) holding everything the engine needs to
    resume a simulation bit-identically — tick counter, PRNG root seed
    (the counter-mode generator's whole position: every draw is a pure
    function of (seed, tick, key, i)), the environment relation, the
    quarantine set, the deterministic engine counters, and the schema the
    units were encoded under.

    Files are written atomically: encode, write to a [".tmp"] sibling,
    fsync, rename into place, fsync the directory.  A crash mid-write can
    therefore never damage an existing generation; it only leaves a stale
    temp file that readers ignore.  Several generations coexist in one
    directory ([ckpt-<tick>.sglc]); {!load_latest} walks them newest
    first, skipping any that fail validation, so one corrupt file costs a
    generation, not the simulation. *)

open Sgl_relalg

type state = {
  tick : int;  (** ticks committed when the snapshot was taken *)
  seed : int;  (** the PRNG root seed (its full position, being counter-mode) *)
  cache_epoch : int;
      (** index-cache generation at snapshot time; restore reopens the
          cache cold, so this is recorded for diagnostics only *)
  units : Tuple.t array;  (** the environment relation, in array order *)
  quarantined : string list;  (** script groups excluded by fault policies *)
  counters : (string * int) list;
      (** deterministic engine counters (deaths, resurrections, ...) *)
  degradations : (int * string * string) list;  (** (tick, from, to) demotions *)
}

(** [path ~dir ~tick] is the generation file name for [tick]. *)
val path : dir:string -> tick:int -> string

(** [save ~dir ~fsync ~schema ~store state] atomically writes the
    generation for [state.tick] and returns its path.  [store] is the
    column store of [state.units] (same rows, same order); the unit
    columns are written from it.  Raises [Invalid_argument] when its
    length differs from [state.units].
    Hits the ["io.checkpoint.write"] injection point once per section.
    Raises [Sys_error]/[Unix_error] on real I/O failure. *)
val save : dir:string -> fsync:bool -> schema:Schema.t -> store:Colstore.t -> state -> string

(** [load ~schema path] reads and fully validates one generation: header
    magic and version, every section CRC, and that the persisted schema
    equals [schema].  Raises {!Codec.Corrupt}.  Hits ["io.restore.read"]. *)
val load : schema:Schema.t -> string -> state

(** Generation ticks present in [dir], newest first (temp files
    ignored). *)
val generations : dir:string -> int list

(** [load_latest ~schema ~dir] tries generations newest first and returns
    the first that validates, together with the number of newer
    generations skipped as corrupt or unreadable.  [Error] when the
    directory holds no loadable checkpoint (the message lists what was
    tried). *)
val load_latest : schema:Schema.t -> dir:string -> (state * int, string) result

(** [prune ~dir ~keep] deletes all but the newest [keep] generations and
    any journal files older than the oldest survivor. *)
val prune : dir:string -> keep:int -> unit
