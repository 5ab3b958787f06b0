(** Multiset relations over a schema: a bag of [Tuple.t] rows.

    Arity contract: the schema describes a {e prefix} of each row.  Rows
    may be longer than the schema arity — the extra slots are
    [let]-extension (or product-concatenation) overflow — or shorter, when
    produced by projection.  The relation stores a copy of every added row
    and every accessor that returns a [Tuple.t] returns a fresh copy of the
    row as added (same [Value.t] constructor tags, same length, extensions
    included), so mutating either never changes the relation. *)

open Sgl_util

type t

val create : Schema.t -> t
val of_tuples : Schema.t -> Tuple.t list -> t
val of_rows : Schema.t -> Tuple.t Varray.t -> t
val schema : t -> Schema.t
val cardinality : t -> int

(** Appends a copy of a row of any length (see the arity contract above);
    later mutation of the caller's array is not observed. *)
val add : t -> Tuple.t -> unit

val row : t -> int -> Tuple.t
val iter : (Tuple.t -> unit) -> t -> unit
val iteri : (int -> Tuple.t -> unit) -> t -> unit
val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc
val to_list : t -> Tuple.t list
val to_array : t -> Tuple.t array

(** [map_rows f t] applies [f] to a copy of every row — including its
    let-extension slots — and collects the results under the same schema.
    [f] may return rows of any length; extension slots in the result are
    preserved, not truncated. *)
val map_rows : (Tuple.t -> Tuple.t) -> t -> t

(** [filter_rows p t] keeps the rows satisfying [p], preserving each row
    bit-identically — let-extension slots included. *)
val filter_rows : (Tuple.t -> bool) -> t -> t

(** Order-insensitive multiset equality (test helper).  Values compare
    bit-exactly, up to [Value.equal]'s identifications: [-0.] equals
    [0.], and [Int n] equals [Float (float n)] for |n| <= 2^53. *)
val equal_as_multiset : t -> t -> bool

val pp : t Fmt.t
