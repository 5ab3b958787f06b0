(* Interval abstract interpretation over SGL values.

   The domain is a reduced product across the four runtime types of
   [Value.t]: an integer interval, a float interval with an explicit
   may-be-nan flag, a pair of booleans (may-be-true / may-be-false) and a
   per-axis pair of float intervals for vectors.  A component being absent
   means "no concrete value of that type is possible here".

   Soundness contract (checked by the qcheck law in test_absint):
   whenever concrete evaluation of an expression succeeds, the resulting
   value is a member of the abstract result; and whenever the abstract
   evaluator reports "no error possible", concrete evaluation does not
   raise.  The converse directions are deliberately approximate.

   Two sharp edges shape the arithmetic:
   - OCaml ints wrap silently on overflow, so interval corner arithmetic
     is only valid for small magnitudes; anything near the 63-bit edge
     falls to top.  Likewise float<->int conversions are only exact below
     2^53, so float-derived int bounds are applied only in that range.
   - Float corner arithmetic is sound because the concrete operations are
     the same weakly monotone rounded IEEE ops, but nan can appear away
     from corners (inf - inf, 0 * inf, x / 0), so those cases are
     detected explicitly. *)

open Sgl_relalg
open Sgl_lang

(* ------------------------------------------------------------------ *)
(* Domain *)

type ibnd = Ninf | I of int | Pinf

(* Float axis: [lo, hi] plus a nan flag.  The numeric part is empty iff
   lo > hi (canonically lo = +inf, hi = -inf). *)
type axis = { lo : float; hi : float; nan : bool }

type t = {
  ints : (ibnd * ibnd) option;
  floats : axis option;
  btrue : bool;
  bfalse : bool;
  vec : (axis * axis) option;
}

let empty_axis = { lo = infinity; hi = neg_infinity; nan = false }
let full_axis = { lo = neg_infinity; hi = infinity; nan = true }
let axis_has_num a = a.lo <= a.hi
let axis_is_empty a = (not (axis_has_num a)) && not a.nan

let bot = { ints = None; floats = None; btrue = false; bfalse = false; vec = None }

let top =
  {
    ints = Some (Ninf, Pinf);
    floats = Some full_axis;
    btrue = true;
    bfalse = true;
    vec = Some (full_axis, full_axis);
  }

let is_bot v =
  v.ints = None
  && (match v.floats with None -> true | Some a -> axis_is_empty a)
  && (not v.btrue) && (not v.bfalse)
  && match v.vec with
     | None -> true
     | Some (x, y) -> axis_is_empty x || axis_is_empty y

let norm_axis a = if axis_is_empty a then None else Some a

let norm v =
  let floats = Option.bind v.floats norm_axis in
  let vec =
    match v.vec with
    | Some (x, y) when not (axis_is_empty x || axis_is_empty y) -> Some (x, y)
    | _ -> None
  in
  { v with floats; vec }

(* Bound helpers *)

let ib_to_f = function Ninf -> neg_infinity | I k -> float_of_int k | Pinf -> infinity
let ib_le a b = ib_to_f a <= ib_to_f b
let ib_min a b = if ib_le a b then a else b
let ib_max a b = if ib_le a b then b else a

(* Magnitude guards against silent int wrap-around: corner arithmetic on
   bounds within [small] cannot overflow for +/-, within [sm31] for *. *)
let small k = k > -(1 lsl 61) && k < 1 lsl 61
let sm31 k = k > -(1 lsl 31) && k < 1 lsl 31

(* float -> int bound conversion, only in the range where float<->int
   round-trips are exact (|v| < 2^52). *)
let ib_lower_of_float v =
  if v = neg_infinity then Some Ninf
  else if Float.abs v <= 4.5e15 then Some (I (int_of_float (Float.ceil v)))
  else None

let ib_upper_of_float v =
  if v = infinity then Some Pinf
  else if Float.abs v <= 4.5e15 then Some (I (int_of_float (Float.floor v)))
  else None

let of_value (v : Value.t) : t =
  match v with
  | Value.Int k -> { bot with ints = Some (I k, I k) }
  | Value.Float f ->
    if Float.is_nan f then { bot with floats = Some { empty_axis with nan = true } }
    else { bot with floats = Some { lo = f; hi = f; nan = false } }
  | Value.Bool b -> { bot with btrue = b; bfalse = not b }
  | Value.Vec { Sgl_util.Vec2.x; y } ->
    let ax f =
      if Float.is_nan f then { empty_axis with nan = true } else { lo = f; hi = f; nan = false }
    in
    { bot with vec = Some (ax x, ax y) }

let join_axis a b =
  { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi; nan = a.nan || b.nan }

let opt_join j a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (j a b)

let join a b =
  norm
    {
      ints = opt_join (fun (lo1, hi1) (lo2, hi2) -> (ib_min lo1 lo2, ib_max hi1 hi2)) a.ints b.ints;
      floats = opt_join join_axis a.floats b.floats;
      btrue = a.btrue || b.btrue;
      bfalse = a.bfalse || b.bfalse;
      vec = opt_join (fun (x1, y1) (x2, y2) -> (join_axis x1 x2, join_axis y1 y2)) a.vec b.vec;
    }

let axis_mem f a = if Float.is_nan f then a.nan else a.lo <= f && f <= a.hi

let mem (v : Value.t) (d : t) : bool =
  match v with
  | Value.Int k -> (
    match d.ints with
    | None -> false
    | Some (lo, hi) -> ib_to_f lo <= float_of_int k && float_of_int k <= ib_to_f hi)
  | Value.Float f -> ( match d.floats with None -> false | Some a -> axis_mem f a)
  | Value.Bool b -> if b then d.btrue else d.bfalse
  | Value.Vec { Sgl_util.Vec2.x; y } -> (
    match d.vec with None -> false | Some (ax, ay) -> axis_mem x ax && axis_mem y ay)

(* [singleton d] is the unique concrete value [d] denotes, if any.  Float
   singletons require bit equality of the bounds so that folding to the
   constant can never change results (e.g. -0. vs 0.). *)
let singleton (d : t) : Value.t option =
  let no_bool = (not d.btrue) && not d.bfalse in
  let no_float = match d.floats with None -> true | Some a -> axis_is_empty a in
  let no_vec = d.vec = None in
  match d.ints with
  | Some (I lo, I hi) when lo = hi && no_bool && no_float && no_vec -> Some (Value.Int lo)
  | Some _ -> None
  | None -> (
    match d.floats with
    | Some { lo; hi; nan = false }
      when Int64.equal (Int64.bits_of_float lo) (Int64.bits_of_float hi) && no_bool && no_vec ->
      Some (Value.Float lo)
    | Some _ -> None
    | None ->
      if no_vec && d.btrue && not d.bfalse then Some (Value.Bool true)
      else if no_vec && d.bfalse && not d.btrue then Some (Value.Bool false)
      else None)

(* Numeric view: ints and floats merged into one float axis, the order
   [Value.compare_num] actually compares in.  float_of_int is monotone,
   so widening int bounds into floats is sound. *)
let num_view (d : t) : axis =
  let from_ints =
    match d.ints with
    | None -> empty_axis
    | Some (lo, hi) -> { lo = ib_to_f lo; hi = ib_to_f hi; nan = false }
  in
  match d.floats with None -> from_ints | Some a -> join_axis from_ints a

let num_bounds (d : t) : (float * float) option =
  let a = num_view d in
  if axis_has_num a then Some (a.lo, a.hi) else None

let may_nan (d : t) : bool =
  (match d.floats with Some a -> a.nan | None -> false)
  || match d.vec with Some (x, y) -> x.nan || y.nan | None -> false

(* ------------------------------------------------------------------ *)
(* Integer interval arithmetic *)

let iadd (lo1, hi1) (lo2, hi2) =
  let lo =
    match (lo1, lo2) with
    | Ninf, _ | _, Ninf -> Ninf
    | Pinf, _ | _, Pinf -> Pinf
    | I x, I y -> if small x && small y then I (x + y) else Ninf
  in
  let hi =
    match (hi1, hi2) with
    | Pinf, _ | _, Pinf -> Pinf
    | Ninf, _ | _, Ninf -> Ninf
    | I x, I y -> if small x && small y then I (x + y) else Pinf
  in
  (lo, hi)

let ineg (lo, hi) =
  let neg_b = function
    | Ninf -> Some Pinf
    | Pinf -> Some Ninf
    | I k -> if small k then Some (I (-k)) else None
  in
  match (neg_b hi, neg_b lo) with
  | Some l, Some h -> (l, h)
  | _ -> (Ninf, Pinf)

let isub a b = iadd a (ineg b)

let imul (lo1, hi1) (lo2, hi2) =
  let all_small = List.for_all (function I k -> sm31 k | _ -> false) [ lo1; hi1; lo2; hi2 ] in
  if not all_small then
    if lo1 = I 0 && hi1 = I 0 then (I 0, I 0)
    else if lo2 = I 0 && hi2 = I 0 then (I 0, I 0)
    else if lo1 = I 1 && hi1 = I 1 then (lo2, hi2)
    else if lo2 = I 1 && hi2 = I 1 then (lo1, hi1)
    else (Ninf, Pinf)
  else
    let prods =
      List.concat_map
        (fun a -> List.map (fun b -> match (a, b) with I x, I y -> x * y | _ -> 0) [ lo2; hi2 ])
        [ lo1; hi1 ]
    in
    let lo = List.fold_left min (List.hd prods) (List.tl prods) in
    let hi = List.fold_left max (List.hd prods) (List.tl prods) in
    (I lo, I hi)

(* Integer division x / y with OCaml truncation toward zero.  Returns the
   result interval (None when the divisor is exactly {0}, i.e. a definite
   raise) and whether 0 may be in the divisor (a possible raise). *)
let idiv (lo1, hi1) (lo2, hi2) : (ibnd * ibnd) option * bool =
  let may_zero = ib_to_f lo2 <= 0. && 0. <= ib_to_f hi2 in
  let x_small = match (lo1, hi1) with I a, I b -> small a && small b | _ -> false in
  let div_part (dl, dh) : (ibnd * ibnd) option =
    if ib_to_f dl > ib_to_f dh then None
    else if not x_small then Some (Ninf, Pinf)
    else
      (* For a fixed small x, x/y is extremal at the divisor's finite
         ends and tends to 0 as |y| grows, so an infinite end contributes
         the corner candidate 0. *)
      let ends = List.filter_map (function I k when k <> 0 -> Some k | _ -> None) [ dl; dh ] in
      let qs0 = if List.exists (function Ninf | Pinf -> true | _ -> false) [ dl; dh ] then [ 0 ] else [] in
      let xs = match (lo1, hi1) with I a, I b -> [ a; b ] | _ -> [] in
      let qs = qs0 @ List.concat_map (fun x -> List.map (fun y -> x / y) ends) xs in
      match qs with
      | [] -> Some (Ninf, Pinf)
      | q :: rest ->
        let lo = List.fold_left min q rest and hi = List.fold_left max q rest in
        Some (I lo, I hi)
  in
  let pos = div_part (ib_max lo2 (I 1), hi2) in
  let neg = div_part (lo2, ib_min hi2 (I (-1))) in
  match (pos, neg) with
  | None, None -> (None, may_zero)
  | Some p, None | None, Some p -> (Some p, may_zero)
  | Some (l1, h1), Some (l2, h2) -> (Some (ib_min l1 l2, ib_max h1 h2), may_zero)

(* Euclidean mod: the result is always in [0, |y| - 1].  Returns None
   when the divisor is exactly {0}. *)
let imod ((lo2, hi2) : ibnd * ibnd) : (ibnd * ibnd) option * bool =
  let may_zero = ib_to_f lo2 <= 0. && 0. <= ib_to_f hi2 in
  if lo2 = I 0 && hi2 = I 0 then (None, true)
  else
    let maxabs =
      match (lo2, hi2) with
      | I a, I b when small a && small b -> I (max (abs a) (abs b) - 1)
      | _ -> Pinf
    in
    (Some (I 0, maxabs), may_zero)

(* ------------------------------------------------------------------ *)
(* Float interval arithmetic *)

let contains0 a = axis_has_num a && a.lo <= 0. && 0. <= a.hi
let has_inf a = axis_has_num a && (a.lo = neg_infinity || a.hi = infinity)

(* Corner evaluation for a weakly monotone rounded op.  Corners producing
   nan set the nan flag; operand nan always propagates. *)
let corners2 (f : float -> float -> float) a b =
  if not (axis_has_num a && axis_has_num b) then { empty_axis with nan = a.nan || b.nan }
  else begin
    let lo = ref infinity and hi = ref neg_infinity and nan = ref (a.nan || b.nan) in
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            let v = f x y in
            if Float.is_nan v then nan := true
            else begin
              if v < !lo then lo := v;
              if v > !hi then hi := v
            end)
          [ b.lo; b.hi ])
      [ a.lo; a.hi ];
    { lo = !lo; hi = !hi; nan = !nan }
  end

let fadd = corners2 ( +. )
let fsub = corners2 ( -. )

let fmul a b =
  let r = corners2 ( *. ) a b in
  (* 0 * inf = nan can hide away from corners (0 interior to one side). *)
  if (contains0 a && has_inf b) || (contains0 b && has_inf a) then { r with nan = true } else r

let fdiv a b =
  if not (axis_has_num a && axis_has_num b) then { empty_axis with nan = a.nan || b.nan }
  else if contains0 b then full_axis (* x /. 0. = ±inf, 0. /. 0. = nan *)
  else
    let r = corners2 ( /. ) a b in
    if has_inf a && has_inf b then { r with nan = true } else r

let fneg a = if not (axis_has_num a) then a else { lo = -.a.hi; hi = -.a.lo; nan = a.nan }

let fabs a =
  if not (axis_has_num a) then a
  else if a.lo >= 0. then a
  else if a.hi <= 0. then { lo = -.a.hi; hi = -.a.lo; nan = a.nan }
  else { lo = 0.; hi = Float.max (-.a.lo) a.hi; nan = a.nan }

let fsqrt a =
  if not (axis_has_num a) then a
  else
    let nan = a.nan || a.lo < 0. in
    if a.hi < 0. then { empty_axis with nan }
    else { lo = sqrt (Float.max 0. a.lo); hi = sqrt a.hi; nan }

(* ------------------------------------------------------------------ *)
(* Abstract expression evaluation *)

type alarm = Div_by_zero | Sqrt_neg

type ctx = { u : int -> t; e : (int -> t) option }

let int_top = { bot with ints = Some (Ninf, Pinf) }
let float_top = { bot with floats = Some full_axis }
let bool_top = { bot with btrue = true; bfalse = true }
let vec_top = { bot with vec = Some (full_axis, full_axis) }

let of_axis a = norm { bot with floats = Some a }

let has_ints d = d.ints <> None
let has_floats d = match d.floats with Some a -> not (axis_is_empty a) | None -> false
let has_bool d = d.btrue || d.bfalse
let has_vec d = d.vec <> None
let has_num d = has_ints d || has_floats d
let only_num d = (not (has_bool d)) && not (has_vec d)
let only_int d = has_ints d && (not (has_floats d)) && only_num d

let typed_top (ty : Value.ty) : t =
  match ty with
  | Value.TInt -> int_top
  | Value.TFloat -> float_top
  | Value.TBool -> bool_top
  | Value.TVec -> vec_top

(* Possible outcomes of [Float.compare (to_float a) (to_float b)] over
   numeric views, with nan ordered below all numbers and equal to
   itself: (may_lt, may_eq, may_gt). *)
let orderings (a : axis) (b : axis) : bool * bool * bool =
  let may_lt = ref false and may_eq = ref false and may_gt = ref false in
  if a.nan && b.nan then may_eq := true;
  if a.nan && axis_has_num b then may_lt := true;
  if b.nan && axis_has_num a then may_gt := true;
  if axis_has_num a && axis_has_num b then begin
    if a.lo < b.hi then may_lt := true;
    if a.hi > b.lo then may_gt := true;
    if a.lo <= b.hi && b.lo <= a.hi then may_eq := true;
    (* Float.compare distinguishes -0. from 0. while the interval cannot:
       a shared singleton 0 may still order either way. *)
    if a.lo = a.hi && b.lo = b.hi && a.lo = b.lo && a.lo = 0. then begin
      may_lt := true;
      may_gt := true
    end
  end;
  (!may_lt, !may_eq, !may_gt)

let bool_abs may_t may_f = { bot with btrue = may_t; bfalse = may_f }

(* Abstract [Value.equal] (total, never raises). *)
let abs_equal (a : t) (b : t) : t =
  let may_true =
    (let va = num_view a and vb = num_view b in
     axis_has_num va && axis_has_num vb && va.lo <= vb.hi && vb.lo <= va.hi)
    || (a.btrue && b.btrue) || (a.bfalse && b.bfalse)
    || (match (a.vec, b.vec) with
       | Some (x1, y1), Some (x2, y2) ->
         x1.lo <= x2.hi && x2.lo <= x1.hi && y1.lo <= y2.hi && y2.lo <= y1.hi
       | _ -> false)
  in
  let may_false =
    (match (singleton a, singleton b) with
    | Some va, Some vb -> not (Value.equal va vb)
    | _ -> true)
    || may_nan a || may_nan b
  in
  bool_abs may_true may_false

(* Clamp the numeric parts from above / below (min/max, refinement). *)
let clamp_hi (d : t) (cap : float) : t =
  let ints =
    Option.map
      (fun (lo, hi) ->
        match ib_upper_of_float cap with Some b -> (lo, ib_min hi b) | None -> (lo, hi))
      d.ints
  in
  let floats = Option.map (fun a -> { a with hi = Float.min a.hi cap }) d.floats in
  norm { d with ints; floats }

let clamp_lo (d : t) (floor : float) : t =
  let ints =
    Option.map
      (fun (lo, hi) ->
        match ib_lower_of_float floor with Some b -> (ib_max lo b, hi) | None -> (lo, hi))
      d.ints
  in
  let floats = Option.map (fun a -> { a with lo = Float.max a.lo floor }) d.floats in
  norm { d with ints; floats }

let abs_binop ~raise_alarm (op : Expr.binop) ~(square : bool) (va : t) (vb : t) : t * bool =
  let ii f = match (va.ints, vb.ints) with Some a, Some b -> Some (f a b) | _ -> None in
  (* Float part of a numeric mix: any int/float combination involving at
     least one float operand. *)
  let float_mix f =
    if (has_floats va && has_num vb) || (has_floats vb && has_num va) then
      norm_axis (f (num_view va) (num_view vb))
    else None
  in
  let addsub iop fop =
    let ints = ii iop in
    let floats = float_mix fop in
    let vec =
      match (va.vec, vb.vec) with
      | Some (x1, y1), Some (x2, y2) -> Some (fop x1 x2, fop y1 y2)
      | _ -> None
    in
    let ok = (has_num va && has_num vb) || (has_vec va && has_vec vb) in
    let err =
      has_bool va || has_bool vb || (has_vec va && has_num vb) || (has_num va && has_vec vb)
    in
    if ok then (norm { bot with ints; floats; vec }, err) else (bot, true)
  in
  match op with
  | Expr.Add -> addsub iadd fadd
  | Expr.Sub -> addsub isub fsub
  | Expr.Mul ->
    let ints =
      let r = ii imul in
      if square then
        (* x * x >= 0 when the multiplication cannot wrap *)
        Option.map
          (fun (lo, hi) ->
            match va.ints with
            | Some (I a, I b) when sm31 a && sm31 b -> (ib_max lo (I 0), hi)
            | _ -> (lo, hi))
          r
      else r
    in
    let floats =
      let r = float_mix fmul in
      if square then
        Option.map (fun a -> if axis_has_num a then { a with lo = Float.max a.lo 0. } else a) r
      else r
    in
    let vec =
      let parts =
        (match (va.vec, has_num vb) with
        | Some (x, y), true ->
          let k = num_view vb in
          [ (fmul k x, fmul k y) ]
        | _ -> [])
        @
        match (vb.vec, has_num va) with
        | Some (x, y), true ->
          let k = num_view va in
          [ (fmul k x, fmul k y) ]
        | _ -> []
      in
      match parts with
      | [] -> None
      | [ p ] -> Some p
      | (x1, y1) :: rest ->
        Some
          (List.fold_left
             (fun (x, y) (x', y') -> (join_axis x x', join_axis y y'))
             (x1, y1) rest)
    in
    let ok =
      (has_num va && has_num vb) || (has_vec va && has_num vb) || (has_num va && has_vec vb)
    in
    let err = has_bool va || has_bool vb || (has_vec va && has_vec vb) in
    if ok then (norm { bot with ints; floats; vec }, err) else (bot, true)
  | Expr.Div ->
    let ints, int_zero =
      match (va.ints, vb.ints) with
      | Some a, Some b -> idiv a b
      | _ -> (None, false)
    in
    if has_ints va && has_ints vb && int_zero then raise_alarm Div_by_zero;
    let floats = float_mix fdiv in
    let vec, vec_zero =
      match (va.vec, has_num vb) with
      | Some (x, y), true ->
        let k = num_view vb in
        let mz = contains0 k in
        if k.lo = 0. && k.hi = 0. && not k.nan then (None, true)
        else
          (* [Value.div] scales by the reciprocal, and x *. (1. /. k) can
             differ from x /. k in the last place. *)
          let r = fdiv { lo = 1.; hi = 1.; nan = false } k in
          (Some (fmul x r, fmul y r), mz)
      | _ -> (None, false)
    in
    if has_vec va && has_num vb && vec_zero then raise_alarm Div_by_zero;
    let ok = (has_num va && has_num vb) || (has_vec va && has_num vb) in
    let err =
      has_bool va || has_bool vb || has_vec vb
      || (has_ints va && has_ints vb && int_zero)
      || (has_vec va && vec_zero)
    in
    if ok then (norm { bot with ints; floats; vec }, err) else (bot, true)
  | Expr.Mod ->
    (* Both operands must be Int at runtime. *)
    let ints, mz = match vb.ints with Some b -> imod b | None -> (None, false) in
    if has_ints va && has_ints vb then begin
      if mz then raise_alarm Div_by_zero;
      let definitely_ints = only_int va && only_int vb in
      match ints with
      | Some r -> ({ bot with ints = Some r }, mz || not definitely_ints)
      | None -> (bot, true)
    end
    else (bot, true)

let abs_cmp (op : Expr.cmpop) (va : t) (vb : t) : t * bool =
  match op with
  | Expr.Eq -> (abs_equal va vb, false)
  | Expr.Ne ->
    let e = abs_equal va vb in
    (bool_abs e.bfalse e.btrue, false)
  | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge ->
    (* compare_num raises on bool/vec operands *)
    let err = has_bool va || has_vec va || has_bool vb || has_vec vb in
    let a = num_view va and b = num_view vb in
    if (axis_has_num a || a.nan) && (axis_has_num b || b.nan) then begin
      let lt, eq, gt = orderings a b in
      let mt, mf =
        match op with
        | Expr.Lt -> (lt, eq || gt)
        | Expr.Le -> (lt || eq, gt)
        | Expr.Gt -> (gt, lt || eq)
        | Expr.Ge -> (gt || eq, lt)
        | Expr.Eq | Expr.Ne -> assert false
      in
      (bool_abs mt mf, err)
    end
    else (bot, true)

let rec eval ?(alarm : (alarm -> unit) option) (ctx : ctx) (expr : Expr.t) : t * bool =
  let ev e = eval ?alarm ctx e in
  let raise_alarm a = match alarm with Some f -> f a | None -> () in
  match expr with
  | Expr.Const v -> (of_value v, false)
  | Expr.UAttr i -> (ctx.u i, false)
  | Expr.EAttr i -> (
    match ctx.e with None -> (bot, true) | Some e -> (e i, false))
  | Expr.Binop (op, a, b) ->
    let va, ea = ev a and vb, eb = ev b in
    if is_bot va || is_bot vb then (bot, true)
    else
      let v, e_op = abs_binop ~raise_alarm op ~square:(op = Expr.Mul && a = b) va vb in
      (v, ea || eb || e_op)
  | Expr.Cmp (op, a, b) ->
    let va, ea = ev a and vb, eb = ev b in
    if is_bot va || is_bot vb then (bot, true)
    else
      let v, e_op = abs_cmp op va vb in
      (v, ea || eb || e_op)
  | Expr.And (a, b) ->
    let va, ea = ev a in
    let err_a = ea || has_num va || has_vec va in
    if not va.btrue then (bool_abs false va.bfalse, err_a)
    else
      let vb, eb = ev b in
      let err_b = eb || has_num vb || has_vec vb in
      (bool_abs (va.btrue && vb.btrue) (va.bfalse || vb.bfalse), err_a || err_b)
  | Expr.Or (a, b) ->
    let va, ea = ev a in
    let err_a = ea || has_num va || has_vec va in
    if not va.bfalse then (bool_abs va.btrue false, err_a)
    else
      let vb, eb = ev b in
      let err_b = eb || has_num vb || has_vec vb in
      (bool_abs (va.btrue || vb.btrue) (va.bfalse && vb.bfalse), err_a || err_b)
  | Expr.Not a ->
    let va, ea = ev a in
    (bool_abs va.bfalse va.btrue, ea || has_num va || has_vec va)
  | Expr.Neg a ->
    let va, ea = ev a in
    let ints = Option.map ineg va.ints in
    let floats = Option.map fneg va.floats in
    let vec = Option.map (fun (x, y) -> (fneg x, fneg y)) va.vec in
    (norm { bot with ints; floats; vec }, ea || has_bool va)
  | Expr.VecOf (a, b) ->
    let va, ea = ev a and vb, eb = ev b in
    let err = ea || eb || has_bool va || has_vec va || has_bool vb || has_vec vb in
    if has_num va && has_num vb then ({ bot with vec = Some (num_view va, num_view vb) }, err)
    else (bot, true)
  | Expr.VecX a ->
    let va, ea = ev a in
    let err = ea || has_num va || has_bool va in
    (match va.vec with Some (x, _) -> (of_axis x, err) | None -> (bot, true))
  | Expr.VecY a ->
    let va, ea = ev a in
    let err = ea || has_num va || has_bool va in
    (match va.vec with Some (_, y) -> (of_axis y, err) | None -> (bot, true))
  | Expr.Abs a ->
    let va, ea = ev a in
    let err = ea || has_bool va || has_vec va in
    let ints =
      Option.map
        (fun (lo, hi) ->
          match (lo, hi) with
          | I l, I h when small l && small h ->
            if l >= 0 then (I l, I h)
            else if h <= 0 then (I (-h), I (-l))
            else (I 0, I (max (-l) h))
          | _ -> (Ninf, Pinf) (* abs min_int wraps negative *))
        va.ints
    in
    let floats = Option.map fabs va.floats in
    if has_num va then (norm { bot with ints; floats }, err) else (bot, true)
  | Expr.Sqrt a ->
    let va, ea = ev a in
    let err = ea || has_bool va || has_vec va in
    if has_num va || may_nan va then begin
      let view = num_view va in
      if view.nan || view.lo < 0. then raise_alarm Sqrt_neg;
      (of_axis (fsqrt view), err)
    end
    else (bot, true)
  | Expr.MinOf (a, b) ->
    let va, ea = ev a and vb, eb = ev b in
    let err = ea || eb || has_bool va || has_vec va || has_bool vb || has_vec vb in
    let num_a = has_num va || may_nan va and num_b = has_num vb || may_nan vb in
    if num_a && num_b then begin
      let strip d = { d with btrue = false; bfalse = false; vec = None } in
      let j = join (strip va) (strip vb) in
      (* The result is one operand; nan is below all numbers, so even a
         nan pick respects the numeric cap min(hi_a, hi_b). *)
      let j = clamp_hi j (Float.min (num_view va).hi (num_view vb).hi) in
      (j, err)
    end
    else (bot, true)
  | Expr.MaxOf (a, b) ->
    let va, ea = ev a and vb, eb = ev b in
    let err = ea || eb || has_bool va || has_vec va || has_bool vb || has_vec vb in
    let num_a = has_num va || may_nan va and num_b = has_num vb || may_nan vb in
    if num_a && num_b then begin
      let strip d = { d with btrue = false; bfalse = false; vec = None } in
      let j = join (strip va) (strip vb) in
      (* The floor max(lo_a, lo_b) only holds when neither side can be
         nan: a nan operand makes max return the other side unchanged. *)
      let j =
        if may_nan va || may_nan vb then j
        else clamp_lo j (Float.max (num_view va).lo (num_view vb).lo)
      in
      (j, err)
    end
    else (bot, true)
  | Expr.Random a ->
    let va, ea = ev a in
    let err = ea || has_bool va || has_vec va in
    if has_num va || may_nan va then (int_top, err) else (bot, true)

(* ------------------------------------------------------------------ *)
(* Aggregate result intervals *)

(* Outward relative widening absorbing the different summation orders of
   the naive vs indexed evaluators (avg and stddev divide accumulated
   rounded sums). *)
let widen_lo v = if Float.is_finite v then v -. (Float.abs v *. 1e-6) -. Float.min_float else v
let widen_hi v = if Float.is_finite v then v +. (Float.abs v *. 1e-6) +. Float.min_float else v

(* Accumulated float sums can overflow to infinity only when individual
   magnitudes approach max_float / count; below this threshold any
   physically realizable unit count keeps the accumulator finite. *)
let acc_overflows v = Float.abs v > 1e140

let eval_aggregate ?alarm ~(ctx : ctx) ~(eenv : int -> t) (agg : Aggregate.t) : t * bool =
  let body_ctx = { ctx with e = Some eenv } in
  let ev_body e = eval ?alarm body_ctx e in
  let ev_outer e = eval ?alarm ctx e in
  let where_err =
    List.fold_left
      (fun acc c ->
        let v, e = ev_body c in
        acc || e || has_num v || has_vec v)
      false
      (Predicate.conjuncts agg.Aggregate.where_)
  in
  let eval_kind (k : Aggregate.kind) : t * bool =
    match k with
    | Aggregate.Count -> ({ bot with ints = Some (I 0, Pinf) }, false)
    | Aggregate.Sum e ->
      let v, err = ev_body e in
      let err = err || has_bool v || has_vec v in
      let x = num_view v in
      if axis_has_num x || x.nan then begin
        (* The empty sum is 0.  Rounded addition of same-sign values is
           monotone, so a one-sided sign bound survives summation; mixed
           signs lose both bounds and (via overflow in both directions)
           may produce nan. *)
        let lo = if axis_has_num x && x.lo >= 0. then 0. else neg_infinity in
        let hi = if axis_has_num x && x.hi <= 0. then 0. else infinity in
        let nan = x.nan || (lo = neg_infinity && hi = infinity) in
        (of_axis { lo; hi; nan }, err)
      end
      else (bot, true)
    | Aggregate.Avg e ->
      let v, err = ev_body e in
      let err = err || has_bool v || has_vec v in
      let x = num_view v in
      if axis_has_num x || x.nan then
        let lo = if acc_overflows x.lo then neg_infinity else widen_lo x.lo in
        let hi = if acc_overflows x.hi then infinity else widen_hi x.hi in
        let nan = x.nan || (lo = neg_infinity && hi = infinity) in
        (of_axis { lo; hi; nan }, err)
      else (bot, true)
    | Aggregate.Std_dev e ->
      let v, err = ev_body e in
      let err = err || has_bool v || has_vec v in
      let x = num_view v in
      if axis_has_num x || x.nan then
        (* stddev <= spread of the values; the slack term absorbs the
           catastrophic cancellation in s2/n - mean^2 (relative to the
           magnitude of the values, not the spread). *)
        let maxabs = Float.max (Float.abs x.lo) (Float.abs x.hi) in
        let hi =
          if acc_overflows maxabs || not (Float.is_finite maxabs) then infinity
          else widen_hi ((x.hi -. x.lo) +. (maxabs *. 1e-3))
        in
        (of_axis { lo = 0.; hi; nan = x.nan || hi = infinity }, err)
      else (bot, true)
    | Aggregate.Min_agg e | Aggregate.Max_agg e ->
      let v, err = ev_body e in
      let err = err || has_bool v || has_vec v in
      let x = num_view v in
      if axis_has_num x || x.nan then (of_axis x, err) else (bot, true)
    | Aggregate.Arg_min { objective; result } | Aggregate.Arg_max { objective; result } ->
      let vo, eo = ev_body objective in
      let vr, er = ev_body result in
      (vr, eo || er || has_bool vo || has_vec vo)
    | Aggregate.Nearest { ex; ey; ux; uy; result } ->
      let ve1, e1 = ev_body ex and ve2, e2 = ev_body ey in
      let vu1, e3 = ev_outer ux and vu2, e4 = ev_outer uy in
      let coord_err v = has_bool v || has_vec v in
      let vr, er = ev_body result in
      ( vr,
        e1 || e2 || e3 || e4 || er || coord_err ve1 || coord_err ve2 || coord_err vu1
        || coord_err vu2 )
  in
  let default_val, default_err =
    match agg.Aggregate.default with
    | None -> (bot, true) (* an empty selection raises *)
    | Some d -> ev_outer d
  in
  match agg.Aggregate.kinds with
  | [ k ] ->
    let v, err = eval_kind k in
    (join v default_val, where_err || err || default_err)
  | [ k1; k2 ] ->
    let v1, err1 = eval_kind k1 and v2, err2 = eval_kind k2 in
    let a1 = num_view v1 and a2 = num_view v2 in
    let pair_err = has_bool v1 || has_vec v1 || has_bool v2 || has_vec v2 in
    let vec_val =
      if (axis_has_num a1 || a1.nan) && (axis_has_num a2 || a2.nan) then
        { bot with vec = Some (a1, a2) }
      else bot
    in
    (join vec_val default_val, where_err || err1 || err2 || pair_err || default_err)
  | _ -> (top, true)

(* ------------------------------------------------------------------ *)
(* Environments *)

let of_range (ty : Value.ty) ((lo, hi) : float * float) : t =
  match ty with
  | Value.TInt ->
    let b_lo = Option.value (ib_lower_of_float lo) ~default:Ninf in
    let b_hi = Option.value (ib_upper_of_float hi) ~default:Pinf in
    { bot with ints = Some (b_lo, b_hi) }
  | Value.TFloat -> { bot with floats = Some { lo; hi; nan = false } }
  | Value.TVec -> { bot with vec = Some ({ lo; hi; nan = false }, { lo; hi; nan = false }) }
  | Value.TBool -> bool_top

(* Abstract store for the schema attributes.  [trust_ranges] decides
   whether declared ranges (and declared types) are believed: the lint
   side trusts them — they are the documented contract —
   while the engine-side folding oracles do not, because tests may build
   stores whose tuples violate the declarations, and a misfolded kernel
   would corrupt execution rather than just mis-lint. *)
let schema_env ~trust_ranges (schema : Schema.t) : int -> t =
  let n = Schema.arity schema in
  let slots =
    Array.init n (fun i ->
        if not trust_ranges then top
        else
          match Schema.range_at schema i with
          | Some r -> of_range (Schema.ty_at schema i) r
          | None -> typed_top (Schema.ty_at schema i))
  in
  fun i -> if i >= 0 && i < n then slots.(i) else top

(* Flat register map for a script: walk the body in program order and
   join the abstract value of every Let/Let_agg into its slot (slot =
   arity + let depth).  Position-independent, hence valid for plans the
   optimizer has sunk: sinking never moves a binder below a use of its
   slot. *)
let script_env ~(senv : int -> t) (prog : Core_ir.program) (s : Core_ir.script) : int -> t =
  let arity = Schema.arity prog.Core_ir.schema in
  let regs : (int, t) Hashtbl.t = Hashtbl.create 16 in
  let lookup i =
    if i < arity then senv i
    else match Hashtbl.find_opt regs i with Some v -> v | None -> top
  in
  let ctx = { u = lookup; e = None } in
  let bind slot v =
    let v' = match Hashtbl.find_opt regs slot with Some old -> join old v | None -> v in
    Hashtbl.replace regs slot v'
  in
  let rec go depth (a : Core_ir.t) =
    match a with
    | Core_ir.Skip | Core_ir.Effects _ -> ()
    | Core_ir.Let (e, k) ->
      let v, _ = eval ctx e in
      bind (arity + depth) v;
      go (depth + 1) k
    | Core_ir.Let_agg (i, k) ->
      let agg = prog.Core_ir.aggregates.(i) in
      let v, _ = eval_aggregate ~ctx ~eenv:senv agg in
      bind (arity + depth) v;
      go (depth + 1) k
    | Core_ir.Seq (a, b) ->
      go depth a;
      go depth b
    | Core_ir.If (_, a, b) ->
      go depth a;
      go depth b
  in
  go 0 s.Core_ir.body;
  lookup

(* ------------------------------------------------------------------ *)
(* Oracles for the optimizer *)

type oracle = {
  prove : string -> Expr.t -> bool option;
  fold : string -> Expr.t -> Value.t option;
}

let no_oracle = { prove = (fun _ _ -> None); fold = (fun _ _ -> None) }

let make_oracle ?(trust_ranges = false) (prog : Core_ir.program) : oracle =
  let senv = schema_env ~trust_ranges prog.Core_ir.schema in
  let envs : (string, int -> t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s -> Hashtbl.replace envs s.Core_ir.name (script_env ~senv prog s))
    prog.Core_ir.scripts;
  let env_of script =
    match Hashtbl.find_opt envs script with Some e -> e | None -> fun _ -> top
  in
  (* Both oracles bail on expressions mentioning e: those run under
     varying environment tuples (or raise with e = None), so no
     script-level fact about them is meaningful.  Random is fine: the
     per-tick PRNG is a pure function of its index, so skipping the call
     is unobservable. *)
  let prove script e =
    if Expr.mentions_e e then None
    else
      let v, err = eval { u = env_of script; e = None } e in
      if err then None
      else
        match singleton v with
        | Some (Value.Bool b) -> Some b
        | _ -> None
  in
  let fold script e =
    if Expr.mentions_e e then None
    else
      let v, err = eval { u = env_of script; e = None } e in
      if err then None else singleton v
  in
  { prove; fold }

(* ------------------------------------------------------------------ *)
(* Path-sensitive analysis: refinement and value-range diagnostics *)

module IMap = Map.Make (Int)

let negate_cmp = function
  | Expr.Eq -> Expr.Ne
  | Expr.Ne -> Expr.Eq
  | Expr.Lt -> Expr.Ge
  | Expr.Le -> Expr.Gt
  | Expr.Gt -> Expr.Le
  | Expr.Ge -> Expr.Lt

let flip_cmp = function
  | Expr.Eq -> Expr.Eq
  | Expr.Ne -> Expr.Ne
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

(* Narrow the abstract value [d] of a slot known to satisfy
   [slot `op` rhs].  An ordering comparison reaching its branch implies
   compare_num did not raise, so the slot was numeric; nan handling
   follows Float.compare's total order (nan below all numbers). *)
let narrow_by_cmp (d : t) (op : Expr.cmpop) (rhs : t) : t =
  let r = num_view rhs in
  if (not (axis_has_num r)) || r.nan then d
  else
    let numeric_only = { d with btrue = false; bfalse = false; vec = None } in
    match op with
    | Expr.Ge | Expr.Gt ->
      (* nan >= number is false, so a true branch also rules out nan *)
      let d = clamp_lo numeric_only r.lo in
      { d with floats = Option.map (fun a -> { a with nan = false }) d.floats }
    | Expr.Le | Expr.Lt ->
      (* nan <= number is true: nan survives the true branch *)
      clamp_hi numeric_only r.hi
    | Expr.Eq ->
      (* Value.equal never raises, so slot may still be bool/vec unless
         rhs is purely numeric. *)
      if only_num rhs && not (may_nan rhs) then begin
        let d = clamp_lo (clamp_hi numeric_only r.hi) r.lo in
        { d with floats = Option.map (fun a -> { a with nan = false }) d.floats }
      end
      else d
    | Expr.Ne -> d

let rec refine (env : t IMap.t) (guard : Expr.t) (pol : bool) (lookup : int -> t) : t IMap.t =
  match (guard, pol) with
  | Expr.And (a, b), true -> refine (refine env a true lookup) b true lookup
  | Expr.Or (a, b), false -> refine (refine env a false lookup) b false lookup
  | Expr.Not a, _ -> refine env a (not pol) lookup
  | Expr.Cmp (op, Expr.UAttr s, rhs), _ when not (Expr.mentions_e rhs) ->
    refine_cmp env s op rhs pol lookup
  | Expr.Cmp (op, lhs, Expr.UAttr s), _ when not (Expr.mentions_e lhs) ->
    refine_cmp env s (flip_cmp op) lhs pol lookup
  | _ -> env

and refine_cmp env s op rhs pol lookup =
  let op = if pol then op else negate_cmp op in
  let cur = match IMap.find_opt s env with Some v -> v | None -> lookup s in
  let ctx =
    { u = (fun i -> match IMap.find_opt i env with Some v -> v | None -> lookup i); e = None }
  in
  let rv, rerr = eval ctx rhs in
  if rerr then env else IMap.add s (narrow_by_cmp cur op rv) env

(* N001/N002/N003 for one script, trusting the schema's declared ranges. *)
let check_script ~(pos_of : string -> Ast.pos) (prog : Core_ir.program) (s : Core_ir.script) :
    Diagnostic.t list =
  let schema = prog.Core_ir.schema in
  let arity = Schema.arity schema in
  let senv = schema_env ~trust_ranges:true schema in
  let base = script_env ~senv prog s in
  let pos = pos_of s.Core_ir.name in
  let diags = ref [] in
  let seen = Hashtbl.create 8 in
  let add_diag ~rule fmt =
    Fmt.kstr
      (fun msg ->
        if not (Hashtbl.mem seen (rule, msg)) then begin
          Hashtbl.add seen (rule, msg) ();
          diags := Rules.diag ~pos ~context:s.Core_ir.name ~rule "%s" msg :: !diags
        end)
      fmt
  in
  let alarm_handler where = function
    | Div_by_zero -> add_diag ~rule:"N001" "possible division by zero in %s" where
    | Sqrt_neg -> add_diag ~rule:"N002" "sqrt of a possibly negative value in %s" where
  in
  let rec go depth (env : t IMap.t) (a : Core_ir.t) : t IMap.t =
    let lookup i = match IMap.find_opt i env with Some v -> v | None -> base i in
    let ctx_of env =
      { u = (fun i -> match IMap.find_opt i env with Some v -> v | None -> base i); e = None }
    in
    match a with
    | Core_ir.Skip -> env
    | Core_ir.Let (e, k) ->
      let v, _ = eval ~alarm:(alarm_handler "a let binding") (ctx_of env) e in
      go (depth + 1) (IMap.add (arity + depth) v env) k
    | Core_ir.Let_agg (i, k) ->
      let agg = prog.Core_ir.aggregates.(i) in
      let v, _ =
        eval_aggregate
          ~alarm:(alarm_handler (Fmt.str "aggregate %s" agg.Aggregate.name))
          ~ctx:(ctx_of env) ~eenv:senv agg
      in
      go (depth + 1) (IMap.add (arity + depth) v env) k
    | Core_ir.Seq (a, b) ->
      let env = go depth env a in
      go depth env b
    | Core_ir.If (c, a, b) ->
      let vc, cerr = eval ~alarm:(alarm_handler "an if condition") (ctx_of env) c in
      (* N003: the guard is decided by interval facts alone.  Guards not
         mentioning any state are P005's territory (constant folding). *)
      if
        (not cerr)
        && (Expr.mentions_u c || Expr.mentions_e c || Expr.mentions_random c)
        && has_bool vc
        && (not (vc.btrue && vc.bfalse))
        && not (has_num vc || has_vec vc)
      then
        add_diag ~rule:"N003" "condition %a is always %b by interval analysis" Expr.pp c
          vc.btrue;
      let env_t = refine env c true lookup in
      let env_f = refine env c false lookup in
      let out_t = go depth env_t a in
      let out_f = go depth env_f b in
      (* Branch-refined schema slots rejoin to their pre-branch values;
         registers bound inside the branches merge by join (they are
         lexically dead afterwards anyway). *)
      IMap.merge
        (fun k l r ->
          match (IMap.find_opt k env, l, r) with
          | Some pre, _, _ -> Some pre
          | None, Some x, Some y -> Some (join x y)
          | None, Some x, None | None, None, Some x -> Some x
          | None, None, None -> None)
        out_t out_f
    | Core_ir.Effects clauses ->
      List.iter
        (fun (c : Core_ir.effect_clause) ->
          let ectx = { u = lookup; e = Some senv } in
          (match c.Core_ir.target with
          | Core_ir.Self -> ()
          | Core_ir.Key e ->
            ignore (eval ~alarm:(alarm_handler "an effect key expression") { ectx with e = None } e)
          | Core_ir.All p ->
            List.iter
              (fun conj -> ignore (eval ~alarm:(alarm_handler "an effect condition") ectx conj))
              (Predicate.conjuncts p));
          List.iter
            (fun (_, upd) -> ignore (eval ~alarm:(alarm_handler "an effect update") ectx upd))
            c.Core_ir.updates)
        clauses;
      env
  in
  ignore (go 0 IMap.empty s.Core_ir.body);
  List.rev !diags

let check ?(pos_of = fun (_ : string) -> Ast.no_pos) (prog : Core_ir.program) :
    Diagnostic.t list =
  List.concat_map (check_script ~pos_of prog) prog.Core_ir.scripts

(* ------------------------------------------------------------------ *)
(* Pretty-printing *)

let pp_ibnd ppf = function
  | Ninf -> Fmt.string ppf "-inf"
  | Pinf -> Fmt.string ppf "+inf"
  | I k -> Fmt.int ppf k

let pp_axis ppf a =
  if not (axis_has_num a) then Fmt.string ppf (if a.nan then "nan" else "empty")
  else Fmt.pf ppf "[%g, %g]%s" a.lo a.hi (if a.nan then "?nan" else "")

let pp ppf (d : t) =
  if is_bot d then Fmt.string ppf "bot"
  else begin
    let parts = ref [] in
    (match d.ints with
    | Some (lo, hi) -> parts := Fmt.str "int[%a, %a]" pp_ibnd lo pp_ibnd hi :: !parts
    | None -> ());
    (match d.floats with
    | Some a when not (axis_is_empty a) -> parts := Fmt.str "float%a" pp_axis a :: !parts
    | _ -> ());
    (match (d.btrue, d.bfalse) with
    | true, true -> parts := "bool" :: !parts
    | true, false -> parts := "true" :: !parts
    | false, true -> parts := "false" :: !parts
    | false, false -> ());
    (match d.vec with
    | Some (x, y) -> parts := Fmt.str "vec(%a, %a)" pp_axis x pp_axis y :: !parts
    | None -> ());
    Fmt.(list ~sep:(any " | ") string) ppf (List.rev !parts)
  end
