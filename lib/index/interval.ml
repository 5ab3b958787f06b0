(* One dimension of an orthogonal range query: a possibly-open interval.

   The index planner compiles conjuncts like [e.posx >= u.posx - r] into
   intervals per probing unit; strict bounds are preserved so the indexed
   evaluators agree bit-for-bit with the naive scan. *)

open Sgl_util

type t = {
  lo : float;
  lo_strict : bool;
  hi : float;
  hi_strict : bool;
}

let make ?(lo = neg_infinity) ?(lo_strict = false) ?(hi = infinity) ?(hi_strict = false) () =
  { lo; lo_strict; hi; hi_strict }

let everything = make ()

let[@inline] within ~(lo : float) ~lo_strict ~(hi : float) ~hi_strict (x : float) =
  (if lo_strict then x > lo else x >= lo) && if hi_strict then x < hi else x <= hi

let mem t x = within ~lo:t.lo ~lo_strict:t.lo_strict ~hi:t.hi ~hi_strict:t.hi_strict x

let is_empty t = t.lo > t.hi || (t.lo = t.hi && (t.lo_strict || t.hi_strict))

(* Intersect two intervals over the same attribute. *)
let inter a b =
  let lo, lo_strict =
    if a.lo > b.lo then (a.lo, a.lo_strict)
    else if b.lo > a.lo then (b.lo, b.lo_strict)
    else (a.lo, a.lo_strict || b.lo_strict)
  in
  let hi, hi_strict =
    if a.hi < b.hi then (a.hi, a.hi_strict)
    else if b.hi < a.hi then (b.hi, b.hi_strict)
    else (a.hi, a.hi_strict || b.hi_strict)
  in
  { lo; lo_strict; hi; hi_strict }

let pp ppf t =
  Fmt.pf ppf "%s%g, %g%s"
    (if t.lo_strict then "(" else "[")
    t.lo t.hi
    (if t.hi_strict then ")" else "]")

(* ------------------------------------------------------------------ *)
(* Boxes *)

type box = {
  lows : float array;
  highs : float array;
  low_strict : bool array;
  high_strict : bool array;
}

let box (ivs : t list) : box =
  let a = Array.of_list ivs in
  {
    lows = Array.map (fun iv -> iv.lo) a;
    highs = Array.map (fun iv -> iv.hi) a;
    low_strict = Array.map (fun iv -> iv.lo_strict) a;
    high_strict = Array.map (fun iv -> iv.hi_strict) a;
  }

let first b d coords =
  if b.low_strict.(d) then Search.upper_bound coords b.lows.(d)
  else Search.lower_bound coords b.lows.(d)

let last b d coords =
  if b.high_strict.(d) then Search.lower_bound coords b.highs.(d)
  else Search.upper_bound coords b.highs.(d)

let box_mem b d x =
  within ~lo:b.lows.(d) ~lo_strict:b.low_strict.(d) ~hi:b.highs.(d) ~hi_strict:b.high_strict.(d) x
