(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
    guarding every persisted section and journal record.  Pure OCaml,
    slicing-by-8 (eight bytes per register step); digests are non-negative
    ints in [\[0, 2^32)]. *)

type t = int
(** A running CRC state (already pre/post-conditioned: [empty] is the
    digest of the empty string, and any [t] is a valid final digest). *)

val empty : t

(** [update crc s ~pos ~len] folds [s.[pos .. pos+len-1]] into [crc].
    @raise Invalid_argument when the range is out of bounds. *)
val update : t -> string -> pos:int -> len:int -> t

val update_bytes : t -> Bytes.t -> pos:int -> len:int -> t

(** [string s] is [update empty s ~pos:0 ~len:(String.length s)]. *)
val string : string -> t

(** {2 Fixed-width values}

    Each folds in exactly the bytes a little-endian writer would emit,
    without writing them anywhere: [update_byte crc b] is [crc] extended
    by the byte [b land 0xFF]; [update_int crc i] by [i] as 64-bit two's
    complement (8 bytes); [update_float crc f] by [f]'s IEEE-754 bit
    pattern (8 bytes). *)

val update_byte : t -> int -> t
val update_int : t -> int -> t
val update_float : t -> float -> t

(** [update_prefixed_ints crc ~prefix a] folds, for each element in
    order, the byte [prefix] then the element as {!update_int} does —
    9 bytes per element, one call per array. *)
val update_prefixed_ints : t -> prefix:int -> int array -> t

(** As {!update_prefixed_ints}, each element as {!update_float} does. *)
val update_prefixed_floats : t -> prefix:int -> float array -> t

(** [combine a b ~len_b] is the digest of the concatenation [A ^ B] given
    [a = string A], [b = string B] and [len_b = String.length B] — without
    touching the data (zlib's [crc32_combine], GF(2) matrix exponentiation,
    O(log len_b)).  The law [combine (string a) (string b)
    ~len_b:(String.length b) = string (a ^ b)] is what lets a composite
    digest be re-assembled from per-part digests when only some parts
    changed.
    @raise Invalid_argument on a negative [len_b]. *)
val combine : t -> t -> len_b:int -> t

val to_hex : t -> string
