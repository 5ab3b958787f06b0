(* Attribute values, typed at run time.

   The environment relation E stores unit state; SGL terms compute over it.
   Four runtime types suffice for the paper's workloads: integers (keys,
   health, cooldowns), floats (positions, distances), booleans (conditions)
   and 2-d vectors (centroids, movement vectors). *)

open Sgl_util

type ty = TInt | TFloat | TBool | TVec

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Vec of Vec2.t

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

let ty_of = function
  | Int _ -> TInt
  | Float _ -> TFloat
  | Bool _ -> TBool
  | Vec _ -> TVec

let ty_name = function
  | TInt -> "int"
  | TFloat -> "float"
  | TBool -> "bool"
  | TVec -> "vec"

let pp ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Bool b -> Fmt.bool ppf b
  | Vec v -> Vec2.pp ppf v

let to_string v = Fmt.str "%a" pp v

(* Numeric access with implicit int->float widening, as in game scripting
   languages; everything else is a type error. *)
let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | (Bool _ | Vec _) as v -> type_error "expected a number, got %a" pp v

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | (Bool _ | Vec _) as v -> type_error "expected an int, got %a" pp v

let to_bool = function
  | Bool b -> b
  | (Int _ | Float _ | Vec _) as v -> type_error "expected a bool, got %a" pp v

let to_vec = function
  | Vec v -> v
  | (Int _ | Float _ | Bool _) as v -> type_error "expected a vec, got %a" pp v

let zero_of = function
  | TInt -> Int 0
  | TFloat -> Float 0.
  | TBool -> Bool false
  | TVec -> Vec Vec2.zero

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Bool x, Bool y -> x = y
  | Vec x, Vec y -> Vec2.equal x y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | (Int _ | Float _ | Bool _ | Vec _), _ -> false

(* Tag- and bit-exact identity: what the codec digest and the columnar
   store can tell apart.  [Int 0] vs [Float 0.] and [0.] vs [-0.] are
   [equal] but not [identical]; a NaN is identical to itself. *)
let identical a b =
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a == b
  ||
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> same_bits x y
  | Bool x, Bool y -> x = y
  | Vec u, Vec v -> same_bits u.Vec2.x v.Vec2.x && same_bits u.Vec2.y v.Vec2.y
  | (Int _ | Float _ | Bool _ | Vec _), _ -> false

(* Total order used by MIN/MAX-tagged effect combination and by aggregate
   evaluation.  Only numbers are ordered. *)
let compare_num a b = Float.compare (to_float a) (to_float b)

(* Arithmetic.  Int op Int stays Int (so keys and counters stay integral);
   any float operand widens the result.  Vectors support +, -, and scaling. *)
let add a b =
  match (a, b) with
  | Int x, Int y -> Int (x + y)
  | Vec x, Vec y -> Vec (Vec2.add x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a +. to_float b)
  | _ -> type_error "cannot add %a and %a" pp a pp b

let sub a b =
  match (a, b) with
  | Int x, Int y -> Int (x - y)
  | Vec x, Vec y -> Vec (Vec2.sub x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a -. to_float b)
  | _ -> type_error "cannot subtract %a from %a" pp b pp a

let mul a b =
  match (a, b) with
  | Int x, Int y -> Int (x * y)
  | (Int _ | Float _), Vec v -> Vec (Vec2.scale (to_float a) v)
  | Vec v, (Int _ | Float _) -> Vec (Vec2.scale (to_float b) v)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a *. to_float b)
  | _ -> type_error "cannot multiply %a and %a" pp a pp b

let div a b =
  match (a, b) with
  | Int x, Int y ->
    if y = 0 then type_error "integer division by zero" else Int (x / y)
  | Vec v, (Int _ | Float _) ->
    let k = to_float b in
    if k = 0. then type_error "vector division by zero" else Vec (Vec2.scale (1. /. k) v)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a /. to_float b)
  | _ -> type_error "cannot divide %a by %a" pp a pp b

let modulo a b =
  match (a, b) with
  | Int x, Int y ->
    if y = 0 then type_error "mod by zero"
    else Int (((x mod y) + abs y) mod abs y)
  | (Int _ | Float _ | Bool _ | Vec _), _ -> type_error "mod needs ints, got %a and %a" pp a pp b

let neg = function
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | Vec v -> Vec (Vec2.scale (-1.) v)
  | Bool _ as v -> type_error "cannot negate %a" pp v

let vec_x v = Float (to_vec v).Vec2.x
let vec_y v = Float (to_vec v).Vec2.y
let make_vec a b = Vec (Vec2.make (to_float a) (to_float b))
