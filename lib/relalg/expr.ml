(* Resolved scalar expressions — the "terms" of SGL after name resolution.

   Expressions are evaluated against an evaluation context holding the
   current unit tuple [u] (possibly extended by let-bindings), optionally a
   scanned environment tuple [e] (inside aggregate bodies and effect
   clauses), and the per-tick random function. *)

type binop = Add | Sub | Mul | Div | Mod
type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | UAttr of int (* slot of the current unit record (schema attr or let slot) *)
  | EAttr of int (* attribute of the scanned environment tuple *)
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Neg of t
  | VecOf of t * t (* build a 2-d vector *)
  | VecX of t
  | VecY of t
  | Abs of t
  | Sqrt of t
  | MinOf of t * t
  | MaxOf of t * t
  | Random of t (* Random(i): stable within a tick *)

type ctx = {
  u : Tuple.t;
  e : Tuple.t option;
  rand : int -> int;
}

exception Eval_error of string

let eval_error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let rec eval ctx expr =
  match expr with
  | Const v -> v
  | UAttr i ->
    if i >= Array.length ctx.u then eval_error "unit slot %d out of range" i;
    ctx.u.(i)
  | EAttr i -> begin
    match ctx.e with
    | None -> eval_error "e.* reference outside an aggregate or effect body"
    | Some e ->
      if i >= Array.length e then eval_error "env attribute %d out of range" i;
      e.(i)
  end
  | Binop (op, a, b) ->
    let va = eval ctx a and vb = eval ctx b in
    apply_binop op va vb
  | Cmp (op, a, b) ->
    let va = eval ctx a and vb = eval ctx b in
    Value.Bool (apply_cmp op va vb)
  | And (a, b) -> Value.Bool (Value.to_bool (eval ctx a) && Value.to_bool (eval ctx b))
  | Or (a, b) -> Value.Bool (Value.to_bool (eval ctx a) || Value.to_bool (eval ctx b))
  | Not a -> Value.Bool (not (Value.to_bool (eval ctx a)))
  | Neg a -> Value.neg (eval ctx a)
  | VecOf (a, b) -> Value.make_vec (eval ctx a) (eval ctx b)
  | VecX a -> Value.vec_x (eval ctx a)
  | VecY a -> Value.vec_y (eval ctx a)
  | Abs a -> begin
    match eval ctx a with
    | Value.Int i -> Value.Int (abs i)
    | Value.Float f -> Value.Float (Float.abs f)
    | v -> eval_error "abs of non-number %a" Value.pp v
  end
  | Sqrt a -> Value.Float (sqrt (Value.to_float (eval ctx a)))
  | MinOf (a, b) ->
    let va = eval ctx a and vb = eval ctx b in
    if Value.compare_num va vb <= 0 then va else vb
  | MaxOf (a, b) ->
    let va = eval ctx a and vb = eval ctx b in
    if Value.compare_num va vb >= 0 then va else vb
  | Random a -> Value.Int (ctx.rand (Value.to_int (eval ctx a)))

and apply_binop op a b =
  match op with
  | Add -> Value.add a b
  | Sub -> Value.sub a b
  | Mul -> Value.mul a b
  | Div -> Value.div a b
  | Mod -> Value.modulo a b

and apply_cmp op a b =
  match op with
  | Eq -> Value.equal a b
  | Ne -> not (Value.equal a b)
  | Lt -> Value.compare_num a b < 0
  | Le -> Value.compare_num a b <= 0
  | Gt -> Value.compare_num a b > 0
  | Ge -> Value.compare_num a b >= 0

(* Constant folding: one bottom-up rewrite.  The oracle's answer for a
   node wins outright (it may pin reads the structural rule must treat as
   dynamic, [Random] included: the per-row streams are pure in the draw
   index).  Otherwise a node whose children all folded to constants is
   evaluated once with a dummy context and becomes a constant — except
   [Random], whose draw depends on the row's stream, and except when that
   evaluation raises: the node then stays, so the error surfaces at run
   time with the interpreter's message. *)
let fold ?(oracle = fun (_ : t) -> None) (expr : t) : t =
  let dummy = { u = [||]; e = None; rand = (fun _ -> 0) } in
  let const = function Const _ -> true | _ -> false in
  let try_eval node = match eval dummy node with v -> Const v | exception _ -> node in
  let rec go expr =
    match oracle expr with
    | Some v -> Const v
    | None -> begin
      match expr with
      | Const _ | UAttr _ | EAttr _ -> expr
      | Random a -> Random (go a)
      | Binop (op, a, b) -> two (fun a b -> Binop (op, a, b)) a b
      | Cmp (op, a, b) -> two (fun a b -> Cmp (op, a, b)) a b
      | And (a, b) -> two (fun a b -> And (a, b)) a b
      | Or (a, b) -> two (fun a b -> Or (a, b)) a b
      | VecOf (a, b) -> two (fun a b -> VecOf (a, b)) a b
      | MinOf (a, b) -> two (fun a b -> MinOf (a, b)) a b
      | MaxOf (a, b) -> two (fun a b -> MaxOf (a, b)) a b
      | Not a -> one (fun a -> Not a) a
      | Neg a -> one (fun a -> Neg a) a
      | VecX a -> one (fun a -> VecX a) a
      | VecY a -> one (fun a -> VecY a) a
      | Abs a -> one (fun a -> Abs a) a
      | Sqrt a -> one (fun a -> Sqrt a) a
    end
  and one mk a =
    let a = go a in
    if const a then try_eval (mk a) else mk a
  and two mk a b =
    let a = go a and b = go b in
    if const a && const b then try_eval (mk a b) else mk a b
  in
  go expr

let eval_bool ctx expr = Value.to_bool (eval ctx expr)
let eval_float ctx expr = Value.to_float (eval ctx expr)
let eval_int ctx expr = Value.to_int (eval ctx expr)

(* Structural analysis used by the optimizer and the index planner. *)

let rec mentions_e = function
  | Const _ | UAttr _ -> false
  | EAttr _ -> true
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b)
  | VecOf (a, b) | MinOf (a, b) | MaxOf (a, b) ->
    mentions_e a || mentions_e b
  | Not a | Neg a | VecX a | VecY a | Abs a | Sqrt a | Random a -> mentions_e a

let rec mentions_u = function
  | Const _ | EAttr _ -> false
  | UAttr _ -> true
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b)
  | VecOf (a, b) | MinOf (a, b) | MaxOf (a, b) ->
    mentions_u a || mentions_u b
  | Not a | Neg a | VecX a | VecY a | Abs a | Sqrt a | Random a -> mentions_u a

let rec mentions_random = function
  | Const _ | EAttr _ | UAttr _ -> false
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b)
  | VecOf (a, b) | MinOf (a, b) | MaxOf (a, b) ->
    mentions_random a || mentions_random b
  | Not a | Neg a | VecX a | VecY a | Abs a | Sqrt a -> mentions_random a
  | Random _ -> true

(* Unit slots referenced by the expression (for lazy let placement). *)
let u_slots expr =
  let acc = ref [] in
  let rec go = function
    | Const _ | EAttr _ -> ()
    | UAttr i -> if not (List.mem i !acc) then acc := i :: !acc
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b)
    | VecOf (a, b) | MinOf (a, b) | MaxOf (a, b) ->
      go a;
      go b
    | Not a | Neg a | VecX a | VecY a | Abs a | Sqrt a | Random a -> go a
  in
  go expr;
  List.sort compare !acc

(* Environment slots referenced by the expression (the attributes an index
   structure evaluating it over data rows depends on). *)
let e_slots expr =
  let acc = ref [] in
  let rec go = function
    | Const _ | UAttr _ -> ()
    | EAttr i -> if not (List.mem i !acc) then acc := i :: !acc
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b)
    | VecOf (a, b) | MinOf (a, b) | MaxOf (a, b) ->
      go a;
      go b
    | Not a | Neg a | VecX a | VecY a | Abs a | Sqrt a | Random a -> go a
  in
  go expr;
  List.sort compare !acc

let cmp_name = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "mod"

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | UAttr i -> Fmt.pf ppf "u[%d]" i
  | EAttr i -> Fmt.pf ppf "e[%d]" i
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Cmp (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (cmp_name op) pp b
  | And (a, b) -> Fmt.pf ppf "(%a and %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a or %a)" pp a pp b
  | Not a -> Fmt.pf ppf "(not %a)" pp a
  | Neg a -> Fmt.pf ppf "(- %a)" pp a
  | VecOf (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | VecX a -> Fmt.pf ppf "%a.x" pp a
  | VecY a -> Fmt.pf ppf "%a.y" pp a
  | Abs a -> Fmt.pf ppf "abs(%a)" pp a
  | Sqrt a -> Fmt.pf ppf "sqrt(%a)" pp a
  | MinOf (a, b) -> Fmt.pf ppf "min(%a, %a)" pp a pp b
  | MaxOf (a, b) -> Fmt.pf ppf "max(%a, %a)" pp a pp b
  | Random a -> Fmt.pf ppf "random(%a)" pp a
