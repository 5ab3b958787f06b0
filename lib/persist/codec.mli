(** The binary codec under durable simulation state.

    Fixed-width little-endian encodings wrapped in CRC-framed sections:
    every number is a canonical byte string (ints as 64-bit two's
    complement, floats as IEEE-754 bit patterns), so the encoding of a
    unit array is itself a canonical fingerprint of simulation state —
    {!units_digest} is the integrity check both the journal and the
    differential tests compare.

    Readers never trust the input: every length is bounds-checked against
    the remaining bytes and every section payload is verified against its
    stored CRC-32 before it is decoded.  Any violation raises {!Corrupt}
    with a description of the first inconsistency found. *)

open Sgl_relalg

exception Corrupt of string

val corrupt : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Writer} *)

module W : sig
  type t

  val create : ?size:int -> unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val i64 : t -> int64 -> unit

  (** OCaml int as 64-bit two's complement. *)
  val int : t -> int -> unit

  val float : t -> float -> unit

  (** u32 length prefix + bytes. *)
  val str : t -> string -> unit

  (** Bytes as-is, no length prefix — bulk column blits; pair with
      {!R.raw} and an out-of-band length. *)
  val raw : t -> string -> unit

  val bool : t -> bool -> unit
  val value : t -> Value.t -> unit
  val tuple : t -> Tuple.t -> unit
  val schema : t -> Schema.t -> unit
  val contents : t -> string
end

(** {1 Reader} *)

module R : sig
  type t

  val of_string : string -> t

  (** Bytes not yet consumed. *)
  val remaining : t -> int

  (** [need r n what] raises {!Corrupt} unless [n] bytes remain — also
      the bound to check before allocating for a count of [n] values read
      from the input, each of which takes at least one byte. *)
  val need : t -> int -> string -> unit

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int : t -> int
  val float : t -> float
  val str : t -> string

  (** [raw r n] consumes exactly [n] bytes. *)
  val raw : t -> int -> string

  val bool : t -> bool
  val value : t -> Value.t
  val tuple : t -> Tuple.t

  (** Decodes and re-validates the schema invariants (via
      {!Sgl_relalg.Schema.create}); a schema the engine would reject
      reads as corrupt. *)
  val schema : t -> Schema.t
end

(** {1 Section framing}

    A persisted file is a header ([magic] bytes + u32 version) followed by
    sections: a 4-byte tag, a u32 payload length, the payload, and the
    payload's CRC-32.  A well-formed file ends with an empty ["END!"]
    section, so plain truncation is always detectable. *)

val end_tag : string

(** [write_header b ~magic ~version] starts a file; [magic] must be 8
    bytes. *)
val write_header : Buffer.t -> magic:string -> version:int -> unit

(** [write_section b ~tag payload] frames one section; [tag] must be 4
    bytes. *)
val write_section : Buffer.t -> tag:string -> string -> unit

(** [read_header_any r ~magic ~versions] checks the magic, requires the
    version to be one of [versions], and returns it. *)
val read_header_any : R.t -> magic:string -> versions:int list -> int

(** [read_header r ~magic ~version] checks the magic and returns the file
    version after raising {!Corrupt} unless it equals [version]. *)
val read_header : R.t -> magic:string -> version:int -> unit

(** [read_sections r] consumes CRC-verified [(tag, payload)] sections up
    to and excluding the ["END!"] terminator.  Raises {!Corrupt} on a
    truncated file, a bad CRC, or trailing garbage after the
    terminator. *)
val read_sections : R.t -> (string * string) list

(** {1 Record framing}

    The journal and the flight recorder append records after their
    header as frames: a u32 payload length, the payload, and the
    payload's CRC-32. *)

(** [frame payload] is one framed record. *)
val frame : string -> string

(** [read_frames r decode] decodes frames to the end of [r].  Reading
    stops at the first short or checksum-failing frame, or one whose
    [decode] raises {!Corrupt} — a torn tail, what a crash mid-append
    leaves — and returns the records before it; the [bool] says whether
    it stopped early. *)
val read_frames : R.t -> (string -> 'a) -> 'a list * bool

(** {1 State fingerprints} *)

(** CRC-32 of the canonical column-major encoding of the unit array —
    bit-identical across evaluators and runs by the engine's determinism
    guarantee.  Column-major so per-column CRCs can be cached and the
    digest of a lightly-changed array re-assembled from them (see
    {!units_digest_incremental}); the full and incremental paths always
    agree. *)
val units_digest : Tuple.t array -> int

(** Per-column CRCs (with encoded byte lengths) behind one digest. *)
type digest_cache

(** Full computation, retaining the per-column CRCs for later
    incremental updates. *)
val units_digest_cache : Tuple.t array -> digest_cache

(** The digest value a cache denotes — equal to [units_digest] of the
    array it was computed from. *)
val digest_of_cache : digest_cache -> int

(** [units_digest_incremental prev ~dirty units] re-derives the cache for
    [units] given [prev] (valid for an array of the same shape) by
    recomputing only the columns listed in [dirty] — sound exactly when
    every column that changed since [prev] is listed (the
    {!Sgl_relalg.Delta} dirty-attribute contract).  Falls back to a full
    recomputation when the row count or arity differs from [prev]. *)
val units_digest_incremental : digest_cache -> dirty:int list -> Tuple.t array -> digest_cache

(** {2 From the column store}

    The same digest read from a {!Sgl_relalg.Colstore.t}: the cache
    [store_digest_cache s] is equal to [units_digest_cache
    (Colstore.to_array s)], computed without materialising a row or an
    encoded byte.  [Floats] and [Ints] columns fold a whole typed array
    into the CRC register per call; [Bools] and [Boxed] columns take the
    same per-value path as the row functions above. *)

val store_digest_cache : Colstore.t -> digest_cache

(** As {!units_digest_incremental}, over the store's columns. *)
val store_digest_incremental : digest_cache -> dirty:int list -> Colstore.t -> digest_cache
