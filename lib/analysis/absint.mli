(** Interval abstract interpretation over SGL values (the [Absint]
    domain the value-range lints and the optimizer's interval-fact
    oracles are built on).

    The abstract domain is a reduced product over the four runtime types
    of {!Sgl_relalg.Value.t}: integer interval, float interval with a
    may-be-nan flag, boolean possibility pair, and per-axis float
    intervals for vectors.

    Soundness contract: whenever concrete evaluation succeeds, its value
    is a {!mem}ber of the abstract result; whenever the abstract
    evaluator reports "no error", concrete evaluation does not raise. *)

open Sgl_relalg
open Sgl_lang

type t

val top : t
val bot : t
val is_bot : t -> bool
val of_value : Value.t -> t
val join : t -> t -> t

(** [mem v d]: is the concrete value [v] contained in [d]? *)
val mem : Value.t -> t -> bool

(** The unique concrete value [d] denotes, if any.  Float singletons
    require bit-identical bounds, so folding to the constant can never
    change results (-0. vs 0.). *)
val singleton : t -> Value.t option

(** Bounds of the numeric (int ∪ float) part in {!Value.compare_num}
    order, when non-empty. *)
val num_bounds : t -> (float * float) option

val may_nan : t -> bool
val pp : t Fmt.t

(** Runtime failures the abstract evaluator can anticipate. *)
type alarm = Div_by_zero | Sqrt_neg

(** Abstract evaluation context: a total map for unit slots (schema
    attributes and let registers) and an optional one for environment
    attributes ([None] means any [e.*] reference is an error). *)
type ctx = { u : int -> t; e : (int -> t) option }

(** [eval ?alarm ctx e] returns the abstract value together with a
    may-raise flag.  [alarm] is invoked for each possible
    division-by-zero / sqrt-of-negative found on the way. *)
val eval : ?alarm:(alarm -> unit) -> ctx -> Expr.t -> t * bool

(** Abstract result of an aggregate: [eenv] describes the scanned
    environment tuples, [ctx] the calling unit (for [Nearest] anchors and
    the default expression). *)
val eval_aggregate : ?alarm:(alarm -> unit) -> ctx:ctx -> eenv:(int -> t) -> Aggregate.t -> t * bool

(** Abstract store for the schema attributes.  With [trust_ranges] the
    declared {!Schema.attr} ranges and types are believed (lint side);
    without it every slot is top (engine-side folding oracles, which must
    stay sound against stores that violate the declarations). *)
val schema_env : trust_ranges:bool -> Schema.t -> int -> t

(** Flow-insensitive register map for one script: unit slots below the
    schema arity resolve through [senv], let/aggregate registers to the
    join of their bind sites.  Valid at any program point, including
    plans the optimizer has re-ordered. *)
val script_env : senv:(int -> t) -> Core_ir.program -> Core_ir.script -> int -> t

(** Interval-fact oracles handed to the optimizer.  [prove script guard]
    decides a boolean guard when interval facts settle it; [fold script
    expr] produces the constant an expression always evaluates to.  Both
    answer [None] for expressions mentioning [e.*] or when any runtime
    error is possible. *)
type oracle = {
  prove : string -> Expr.t -> bool option;
  fold : string -> Expr.t -> Value.t option;
}

val no_oracle : oracle

(** [trust_ranges] defaults to [false]: engine-side folding must not
    believe advisory schema ranges. *)
val make_oracle : ?trust_ranges:bool -> Core_ir.program -> oracle

(** Path-sensitive value-range rules over every script of the program,
    trusting declared ranges: N001 division-by-zero, N002
    sqrt-of-negative, N003 guard decided by interval facts. *)
val check : ?pos_of:(string -> Ast.pos) -> Core_ir.program -> Diagnostic.t list
