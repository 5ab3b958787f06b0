(** Resolved scalar expressions over the current unit [u] and, inside
    aggregate or effect bodies, a scanned environment tuple [e]. *)

type binop = Add | Sub | Mul | Div | Mod
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | UAttr of int
  | EAttr of int
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Neg of t
  | VecOf of t * t
  | VecX of t
  | VecY of t
  | Abs of t
  | Sqrt of t
  | MinOf of t * t
  | MaxOf of t * t
  | Random of t

type ctx = {
  u : Tuple.t;
  e : Tuple.t option;
  rand : int -> int;
}

exception Eval_error of string

val eval : ctx -> t -> Value.t
val eval_bool : ctx -> t -> bool
val eval_float : ctx -> t -> float
val eval_int : ctx -> t -> int
val apply_cmp : cmpop -> Value.t -> Value.t -> bool
val apply_binop : binop -> Value.t -> Value.t -> Value.t

(** Constant folding, bottom-up.  [oracle] is consulted first at every
    node and its answer replaces the node; it must only answer when every
    context the expression can meet evaluates it to exactly that value.
    Otherwise a node other than [Random] whose children all fold to
    constants becomes the constant it evaluates to — unless evaluating it
    raises, in which case it stays so the error surfaces at run time.
    [eval ctx (fold e)] equals [eval ctx e] for every [ctx], errors
    included. *)
val fold : ?oracle:(t -> Value.t option) -> t -> t

(** Does the expression reference [e.*]? *)
val mentions_e : t -> bool

(** Does the expression reference [u.*]? *)
val mentions_u : t -> bool

(** Does the expression call [Random]? *)
val mentions_random : t -> bool

(** Sorted unit slots referenced, for dependency analysis. *)
val u_slots : t -> int list

(** Sorted environment slots referenced — the attributes an index structure
    evaluating the expression over data rows depends on. *)
val e_slots : t -> int list

val cmp_name : cmpop -> string
val binop_name : binop -> string
val pp : t Fmt.t
