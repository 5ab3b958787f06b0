(** Struct-of-arrays storage for the unit relation: the engine's
    store of schema-arity rows.

    One column per schema attribute — [float array] / [int array] /
    packed [Bytes.t] for bools — indexed by row id.  Every row has exactly
    the schema arity; building or refreshing from any other row raises.
    Enum-like attributes are int-typed in this engine, so they ride in
    [Ints].

    The store is a faithful multiset of [Tuple.t] rows: {!materialize}
    reproduces every row bit-identically, including the [Value.t]
    constructor tags ([Int 0] and [Float 0.] compare equal but encode
    differently).  So a column is typed only when every value carries its
    schema type's constructor, and [Boxed] otherwise. *)

(** A column's physical representation, exactly {!length} long. *)
type col =
  | Floats of float array  (** every value is [Value.Float] *)
  | Ints of int array  (** every value is [Value.Int] *)
  | Bools of Bytes.t  (** every value is [Value.Bool]; ['\000'] = false *)
  | Boxed of Value.t array  (** mixed or vec-typed values *)

type t

(** [of_tuples schema rows] builds one column per attribute by the typed-or-
    [Boxed] rule above.  Raises [Invalid_argument] when a row's length is
    not the schema arity. *)
val of_tuples : Schema.t -> Tuple.t array -> t

val schema : t -> Schema.t
val length : t -> int

(** Fresh boxed row equal (by {!Tuple.equal} and by codec bytes) to row
    [i] as stored.  Mutating the result does not write back. *)
val materialize : t -> int -> Tuple.t

val to_array : t -> Tuple.t array

(** The current physical column for attribute [j] (a view, not a copy).
    Valid until the next {!refresh} that rebuilds that column. *)
val col : t -> int -> col

(** [int_reader t j] is [Some read] only for pure int columns. *)
val int_reader : t -> int -> (int -> int) option

(** [refresh ?delta t rows] makes [t] mirror [rows].  Raises
    [Invalid_argument] when a row's length is not the schema arity.
    With a non-structural [delta] of matching population, clean columns are
    kept as-is — their values are unchanged, so the previous arrays remain
    valid (counted as [persist.snapshot_cow_hits]) — and each dirty column
    (counted as [relalg.column_copies]) becomes a fresh copy of its old
    array with only the delta's dirty positions ({!Delta.dirty_positions})
    rewritten from [rows]: work per dirty column is one array copy plus
    the tick's writes, not a pass over the rows.  A column the patch
    cannot keep under the typed-or-[Boxed] rule — a written value without
    the column's constructor, or a [Boxed] column of a non-vec type —
    rebuilds from [rows] instead, and so does every dirty column when
    more than half the positions are dirty (one row-major pass then reads
    barely more rows than the patch and skips the copies).  Either way the result is the store
    {!of_tuples} would build from [rows], provided the delta covers every
    change (the {!Delta} contract).  Refreshes never mutate previously
    exposed arrays, so a {!snapshot} and readers captured by cross-tick
    index structures stay coherent.  Without a delta, or on a structural
    tick, every column rebuilds. *)
val refresh : ?delta:Delta.t -> t -> Tuple.t array -> unit

(** Shallow snapshot sharing every column array with [t] — O(arity).
    Valid as long as [t] only advances through {!refresh} (which copies
    instead of mutating). *)
val snapshot : t -> t
