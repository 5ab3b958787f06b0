(** Multiset relations over a schema, stored columnar (struct-of-arrays,
    {!Colstore}) behind a materializing row view.

    Arity contract: the schema describes a {e prefix} of each row.  Rows
    may be longer than the schema arity — the extra slots are
    [let]-extension (or product-concatenation) overflow, kept in a
    dedicated boxed column — or shorter, when produced by projection.
    Every accessor that returns a [Tuple.t] materializes a fresh boxed row
    bit-identical to the row as added (same [Value.t] constructor tags,
    same length, extensions included); mutating a materialized row never
    writes back into the relation. *)

open Sgl_util

type t

val create : Schema.t -> t
val of_tuples : Schema.t -> Tuple.t list -> t
val of_rows : Schema.t -> Tuple.t Varray.t -> t
val schema : t -> Schema.t
val cardinality : t -> int

(** Appends a row of any length (see the arity contract above).  The row
    is decomposed into columns at add time; later mutation of the caller's
    array is not observed. *)
val add : t -> Tuple.t -> unit

val row : t -> int -> Tuple.t
val iter : (Tuple.t -> unit) -> t -> unit
val iteri : (int -> Tuple.t -> unit) -> t -> unit
val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc
val to_list : t -> Tuple.t list
val to_array : t -> Tuple.t array

(** [map_rows f t] applies [f] to every materialized row — including its
    let-extension slots — and collects the results under the same schema.
    [f] may return rows of any length; extension slots in the result are
    preserved (they land in the overflow column, not truncated). *)
val map_rows : (Tuple.t -> Tuple.t) -> t -> t

(** [filter_rows p t] keeps the rows satisfying [p], preserving each row
    bit-identically — let-extension slots included. *)
val filter_rows : (Tuple.t -> bool) -> t -> t

(** Direct column access, bypassing row materialization.  Row ids are the
    add order, [0 .. cardinality-1]. *)
module Col : sig
  (** The backing columnar store (a view, not a copy). *)
  val store : t -> Colstore.t

  (** [float_reader t j] is [Some read] when attribute [j] is stored as a
      typed numeric column; [read i] avoids boxing entirely. *)
  val float_reader : t -> int -> (int -> float) option

  val int_reader : t -> int -> (int -> int) option

  (** Bounds-checked scalar read; falls back to the boxed path on
      non-float columns (preserving coercion errors). *)
  val float_get : t -> attr:int -> row:int -> float

  (** No bounds check on typed columns — caller guarantees
      [row < cardinality t]. *)
  val unsafe_float_get : t -> attr:int -> row:int -> float

  (** [iter_floats t j f] calls [f i x] for every row id [i] with the
      numeric value of attribute [j] — a contiguous scan on typed
      columns. *)
  val iter_floats : t -> int -> (int -> float -> unit) -> unit
end

(** Order-insensitive multiset equality (test helper).  Values compare
    bit-exactly, up to [Value.equal]'s identifications: [-0.] equals
    [0.], and [Int n] equals [Float (float n)] for |n| <= 2^53. *)
val equal_as_multiset : t -> t -> bool

val pp : t Fmt.t
