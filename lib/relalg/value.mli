(** Attribute values of the environment relation, typed at run time. *)

open Sgl_util

type ty = TInt | TFloat | TBool | TVec

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Vec of Vec2.t

(** Raised by any ill-typed operation or coercion. *)
exception Type_error of string

val ty_of : t -> ty
val ty_name : ty -> string
val pp : t Fmt.t
val to_string : t -> string

(** Numeric coercion; ints widen to floats. Raises {!Type_error} otherwise. *)
val to_float : t -> float

(** Floats truncate toward zero. Raises {!Type_error} for bool/vec. *)
val to_int : t -> int

val to_bool : t -> bool
val to_vec : t -> Vec2.t
val zero_of : ty -> t

(** Structural equality with int/float widening ([Int 2 = Float 2.]). *)
val equal : t -> t -> bool

(** Tag- and bit-exact identity ([Int 0] is not [Float 0.], [0.] is not
    [-0.], a NaN is identical to itself): the distinctions the codec
    digest and the columnar store encode.  Change tracking uses this, not
    {!equal}. *)
val identical : t -> t -> bool

(** Numeric comparison; raises {!Type_error} on non-numbers. *)
val compare_num : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

(** Euclidean-style remainder on ints (result is always non-negative). *)
val modulo : t -> t -> t

val neg : t -> t
val vec_x : t -> t
val vec_y : t -> t
val make_vec : t -> t -> t
