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

(* The length of the nan prefix of [order], an order of [coords] under
   [Float.compare]: nan sorts first and lies in no window. *)
let nan_prefix (coords : float array) (order : int array) =
  let p = ref 0 in
  while !p < Array.length order && Float.is_nan coords.(order.(!p)) do
    incr p
  done;
  !p

let run kind (g : Geometry.t) ~(value : float array) ~(qx : float array) ~(qy : float array)
    ~(rx : float) ~(ry : float) (best : int array) : unit =
  let x = g.Geometry.x and y = g.Geometry.y and by_y = g.Geometry.by_y in
  let n = Array.length x and nq = Array.length qx in
  Array.fill best 0 nq (-1);
  (* A point's leaf is its rank in x order; one with a nan x gets none (-1)
     and, like one with a nan y, never enters the sweep. *)
  let x0 = nan_prefix x g.Geometry.by_x in
  let leaf = Array.make n (-1) and xs = Array.make (n - x0) 0. in
  for s = x0 to n - 1 do
    let k = g.Geometry.by_x.(s) in
    leaf.(k) <- s - x0;
    xs.(s - x0) <- x.(k)
  done;
  let order = Float_sort.order qy in
  let base = ref 1 in
  while !base < n - x0 do
    base := 2 * !base
  done;
  let base = !base in
  let vals = Array.make (2 * base) nan and idx = Array.make (2 * base) (-1) in
  (* Each node holds the winner of its children, so once a recomputed node
     keeps its winner every ancestor keeps its own: the walk stops there. *)
  let set k present =
    if leaf.(k) >= 0 then begin
      let p = ref (base + leaf.(k)) in
      vals.(!p) <- (if present then value.(k) else nan);
      idx.(!p) <- (if present then k else -1);
      p := !p / 2;
      while !p >= 1 do
        let w = pick kind vals idx (2 * !p) ((2 * !p) + 1) in
        if idx.(w) = idx.(!p) then p := 0
        else begin
          vals.(!p) <- vals.(w);
          idx.(!p) <- idx.(w);
          p := !p / 2
        end
      done
    end
  in
  (* The live points are the by_y positions [exit_, enter): y within ry of
     the sweep.  Both frontiers advance monotonically with the query sweep;
     the exit frontier moves first, so a point whose whole band
     [y - ry, y + ry] falls between two queries is never inserted. *)
  let y0 = nan_prefix y by_y in
  let enter = ref y0 and exit_ = ref y0 in
  for r = 0 to nq - 1 do
    let q = order.(r) in
    let top = qy.(q) +. ry and bottom = qy.(q) -. ry in
    while !exit_ < n && y.(by_y.(!exit_)) < bottom do
      if !exit_ < !enter then set by_y.(!exit_) false;
      incr exit_
    done;
    if !enter < !exit_ then enter := !exit_;
    while !enter < n && y.(by_y.(!enter)) <= top do
      set by_y.(!enter) true;
      incr enter
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
