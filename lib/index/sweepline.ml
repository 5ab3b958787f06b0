(* Sweep-line evaluation of MIN/MAX aggregates over constant-size ranges
   (Section 5.3.1, Figure 9).

   Min and max are not divisible, so the prefix-aggregate range tree does
   not apply.  But when every probing unit uses the same box half-widths
   (rx, ry) — "units of the same type all have the same weapon and
   visibility range" — we can sweep the queries by y, keep exactly the data
   points whose y lies within ry of the sweep in a segment tree ordered by
   x, and answer each query with one interval-aggregate probe: O((n+q) log n)
   in total instead of O(n*q).

   The segment tree is two flat arrays in 1-based heap layout: each node's
   best value and the index of the point holding it (-1: no point). *)

open Sgl_util

type kind = Min | Max

(* The better of heap nodes [a] and [b]: any point beats no point; then the
   smaller (Min) or larger (Max) value; then the smaller point index, which
   makes the answer independent of how the tree combines nodes. *)
let pick kind (vals : float array) (idx : int array) a b =
  let ia = idx.(a) and ib = idx.(b) in
  if ia < 0 then b
  else if ib < 0 then a
  else begin
    let c = Float.compare vals.(a) vals.(b) in
    let c = match kind with Min -> c | Max -> -c in
    if c < 0 || (c = 0 && ia < ib) then a else b
  end

let run kind ~(x : float array) ~(y : float array) ~(value : float array) ~(qx : float array)
    ~(qy : float array) ~(rx : float) ~(ry : float) (best : int array) : unit =
  let n = Array.length x and nq = Array.length qx in
  Array.fill best 0 nq (-1);
  let by_y = Array.init n (fun k -> k) in
  Array.sort (fun a b -> Float.compare y.(a) y.(b)) by_y;
  (* x order gives each point its leaf *)
  let by_x = Array.init n (fun k -> k) in
  Array.sort (fun a b -> Float.compare x.(a) x.(b)) by_x;
  let leaf = Array.make n 0 in
  Array.iteri (fun s k -> leaf.(k) <- s) by_x;
  let xs = Array.map (fun k -> x.(k)) by_x in
  let order = Array.init nq (fun q -> q) in
  Array.sort (fun a b -> Float.compare qy.(a) qy.(b)) order;
  let base = ref 1 in
  while !base < n do
    base := 2 * !base
  done;
  let base = !base in
  let vals = Array.make (2 * base) nan and idx = Array.make (2 * base) (-1) in
  let set k present =
    let p = ref (base + leaf.(k)) in
    vals.(!p) <- (if present then value.(k) else nan);
    idx.(!p) <- (if present then k else -1);
    p := !p / 2;
    while !p >= 1 do
      let w = pick kind vals idx (2 * !p) ((2 * !p) + 1) in
      vals.(!p) <- vals.(w);
      idx.(!p) <- idx.(w);
      p := !p / 2
    done
  in
  (* Points enter when the sweep reaches y - ry and leave after y + ry;
     both frontiers advance monotonically with the query sweep. *)
  let enter = ref 0 and exit_ = ref 0 in
  for r = 0 to nq - 1 do
    let q = order.(r) in
    let top = qy.(q) +. ry and bottom = qy.(q) -. ry in
    while !enter < n && y.(by_y.(!enter)) <= top do
      set by_y.(!enter) true;
      incr enter
    done;
    while !exit_ < n && y.(by_y.(!exit_)) < bottom do
      set by_y.(!exit_) false;
      incr exit_
    done;
    let a = ref (base + Search.lower_bound xs (qx.(q) -. rx)) in
    let b = ref (base + Search.upper_bound xs (qx.(q) +. rx)) in
    let found = ref 0 (* heap node 0 is unused: its index stays -1 *) in
    while !a < !b do
      if !a land 1 = 1 then begin
        found := pick kind vals idx !found !a;
        incr a
      end;
      if !b land 1 = 1 then begin
        decr b;
        found := pick kind vals idx !found !b
      end;
      a := !a / 2;
      b := !b / 2
    done;
    best.(q) <- idx.(!found)
  done
