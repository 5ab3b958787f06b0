(* Two-dimensional range tree with fractional cascading (Section 5.3.1).

   A balanced tree over the x-sorted points; each canonical node stores its
   points sorted by y together with prefix statistic vectors, plus *bridge*
   pointers into each child's y-array.  A box query binary-searches the y
   interval once at the root and then follows bridges while decomposing the
   x range, so a probe costs O(log n) instead of the plain layered tree's
   O(log^2 n).  This is the structure behind all divisible aggregates in the
   paper's experimental engine ("all such queries share the same range
   tree", Section 6).

   Layout: the tree splits x-sorted positions [lo, hi) at (lo + hi) / 2,
   so the nodes of one depth own disjoint slices of [0, n), and each depth
   is one level of flat arrays in which a node keeps its slice.  Prefix
   sums are node-local and inclusive (slot lo + i sums the node's first
   i + 1 points in y order); bridges are child-local.  A probe walks the
   levels with integer arithmetic only. *)

type t = {
  n : int;
  m : int;
  xs : float array; (* x-sorted coordinates *)
  ys : float array; (* the root's y-sorted coordinates *)
  prefix : float array array; (* per depth: m sums per position *)
  bridge_l : int array array; (* per depth: first left-child position with y >= *)
  bridge_r : int array array; (* one past a node's end bridges to the child's length *)
}

(* Depth count of the recursion over n positions: a node of size s has
   children of size at most ceil(s / 2). *)
let depth_count n =
  let rec go size d = if size <= 1 then d + 1 else go ((size + 1) / 2) (d + 1) in
  if n = 0 then 0 else go n 0

let build (g : Geometry.t) ~(stats : float array) ~(m : int) : t =
  let x = g.Geometry.x and y = g.Geometry.y and order = g.Geometry.by_x in
  let n = Array.length x in
  let xs = Array.map (fun k -> x.(k)) order in
  let levels = depth_count n in
  (* Each node's y-sorted coordinates, and below them its statistic rows
     in the same order, carried through the merges so the prefix pass
     reads them in sequence.  A node only reads its children's slices,
     which nothing writes between their completion and the merge, so two
     arrays alternating by depth parity suffice; only the root's ys
     outlive the build. *)
  let ys = [| Array.make n 0.; Array.make n 0. |] in
  let prefix = Array.init levels (fun _ -> Array.make (n * m) 0.) in
  let bridge_l = Array.init levels (fun _ -> Array.make n 0) in
  let bridge_r = Array.init levels (fun _ -> Array.make n 0) in
  let rows = [| Array.make (n * m) 0.; Array.make (n * m) 0. |] in
  (* Built bottom-up: every node is a stable linear merge of its children
     (O(n log n) total), equal ys taking the left child first, which also
     yields the node's bridges. *)
  let rec build_node d lo hi =
    let yd = ys.(d land 1) and rd = rows.(d land 1) in
    if hi - lo = 1 then begin
      yd.(lo) <- y.(order.(lo));
      let s = order.(lo) * m in
      for c = 0 to m - 1 do
        rd.((lo * m) + c) <- stats.(s + c)
      done
    end
    else begin
      let mid = (lo + hi) / 2 in
      build_node (d + 1) lo mid;
      build_node (d + 1) mid hi;
      let yc = ys.((d + 1) land 1) and rc = rows.((d + 1) land 1) in
      let bl = bridge_l.(d) and br = bridge_r.(d) in
      let i = ref lo and j = ref mid in
      for p = lo to hi - 1 do
        let a = !i and b = !j in
        let from =
          if b >= hi || (a < mid && yc.(a) <= yc.(b)) then begin
            i := a + 1;
            a
          end
          else begin
            j := b + 1;
            b
          end
        in
        let v = yc.(from) in
        yd.(p) <- v;
        (* A bridge counts the child's points strictly below [v].  Every
           point taken so far is at most [v], and equal to it only when [v]
           repeats the previous output, whose bridges then still hold. *)
        if p > lo && yd.(p - 1) = v then begin
          bl.(p) <- bl.(p - 1);
          br.(p) <- br.(p - 1)
        end
        else begin
          bl.(p) <- a - lo;
          br.(p) <- b - mid
        end;
        for c = 0 to m - 1 do
          rd.((p * m) + c) <- rc.((from * m) + c)
        done
      done
    end;
    (* node-local inclusive prefix sums, the first row added to zero *)
    let pre = prefix.(d) in
    for c = 0 to m - 1 do
      pre.((lo * m) + c) <- 0. +. rd.((lo * m) + c)
    done;
    for q = (lo + 1) * m to (hi * m) - 1 do
      pre.(q) <- pre.(q - m) +. rd.(q)
    done
  in
  if n > 0 then build_node 0 0 n;
  { n; m; xs; ys = ys.(0); prefix; bridge_l; bridge_r }

(* Add into [acc] the statistics of the node-local positions [ya, yb) of
   the node at depth [d] whose slice starts at [lo]. *)
let add_slice t (acc : float array) d lo ya yb =
  if yb > ya then begin
    let pre = t.prefix.(d) and m = t.m in
    for j = 0 to m - 1 do
      let below = if ya = 0 then 0. else pre.(((lo + ya - 1) * m) + j) in
      acc.(j) <- acc.(j) +. pre.(((lo + yb - 1) * m) + j) -. below
    done
  end

(* Decompose the x positions [xa, xb) over the node [lo, hi) at depth [d],
   whose y members are its node-local positions [ya, yb).  A node with no
   y members has none in any descendant either (bridges are monotone), so
   its subtree is skipped: it would add nothing. *)
let rec visit t acc xa xb d lo hi ya yb =
  if xb <= lo || hi <= xa || yb <= ya then ()
  else if xa <= lo && hi <= xb then add_slice t acc d lo ya yb
  else begin
    (* a partial overlap is never a leaf, so both children exist *)
    let mid = (lo + hi) / 2 and len = hi - lo in
    let bl = t.bridge_l.(d) and br = t.bridge_r.(d) in
    visit t acc xa xb (d + 1) lo mid
      (if ya = len then mid - lo else bl.(lo + ya))
      (if yb = len then mid - lo else bl.(lo + yb));
    visit t acc xa xb (d + 1) mid hi
      (if ya = len then hi - mid else br.(lo + ya))
      (if yb = len then hi - mid else br.(lo + yb))
  end

let accumulate t (box : Interval.box) ~(scratch : float array) (acc : float array) =
  Array.fill scratch 0 t.m 0.;
  if t.n > 0 then begin
    let xa = Interval.first box 0 t.xs and xb = Interval.last box 0 t.xs in
    if xb > xa then begin
      (* y positions at the root, as in a plain binary search, then carried
         down through the bridges: no further searches *)
      let root = t.ys in
      let ya = Interval.first box 1 root in
      visit t scratch xa xb 0 0 t.n ya (max ya (Interval.last box 1 root))
    end
  end;
  for j = 0 to t.m - 1 do
    acc.(j) <- acc.(j) +. scratch.(j)
  done

let query t ~x ~y =
  let acc = Array.make t.m 0. in
  accumulate t (Interval.box [ x; y ]) ~scratch:(Array.make t.m 0.) acc;
  acc

let size t = t.n
