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
  ys : float array array; (* per depth: each node's y-sorted coordinates *)
  prefix : float array array; (* per depth: m sums per position *)
  bridge_l : int array array; (* per depth: first left-child position with y >= *)
  bridge_r : int array array; (* one past a node's end bridges to the child's length *)
}

(* Depth count of the recursion over n positions: a node of size s has
   children of size at most ceil(s / 2). *)
let depth_count n =
  let rec go size d = if size <= 1 then d + 1 else go ((size + 1) / 2) (d + 1) in
  if n = 0 then 0 else go n 0

(* Bridges from the node slice [lo, hi) of [parent] into the child slice
   [clo, chi) of [child]: one linear two-pointer pass. *)
let bridge (parent : float array) (child : float array) lo hi clo chi (out : int array) =
  let p = ref clo in
  for i = lo to hi - 1 do
    while !p < chi && child.(!p) < parent.(i) do
      incr p
    done;
    out.(i) <- !p - clo
  done

let build ~(x : float array) ~(y : float array) ~(stats : float array) ~(m : int) : t =
  let n = Array.length x in
  let order = Array.init n (fun k -> k) in
  Array.sort (fun a b -> Float.compare x.(a) x.(b)) order;
  let xs = Array.map (fun k -> x.(k)) order in
  let levels = depth_count n in
  let ys = Array.init levels (fun _ -> Array.make n 0.) in
  let prefix = Array.init levels (fun _ -> Array.make (n * m) 0.) in
  let bridge_l = Array.init levels (fun _ -> Array.make n 0) in
  let bridge_r = Array.init levels (fun _ -> Array.make n 0) in
  (* Point indices in each node's y order.  A node only reads its
     children's slices, which nothing writes between their completion and
     the merge, so two arrays alternating by depth parity suffice. *)
  let ids = [| Array.make n 0; Array.make n 0 |] in
  (* Built bottom-up: every node is a stable linear merge of its children
     (O(n log n) total), equal ys taking the left child first. *)
  let rec build_node d lo hi =
    let yd = ys.(d) and idd = ids.(d land 1) in
    if hi - lo = 1 then begin
      yd.(lo) <- y.(order.(lo));
      idd.(lo) <- order.(lo)
    end
    else begin
      let mid = (lo + hi) / 2 in
      build_node (d + 1) lo mid;
      build_node (d + 1) mid hi;
      let yc = ys.(d + 1) and idc = ids.((d + 1) land 1) in
      let i = ref lo and j = ref mid in
      for p = lo to hi - 1 do
        if !j >= hi || (!i < mid && yc.(!i) <= yc.(!j)) then begin
          yd.(p) <- yc.(!i);
          idd.(p) <- idc.(!i);
          incr i
        end
        else begin
          yd.(p) <- yc.(!j);
          idd.(p) <- idc.(!j);
          incr j
        end
      done;
      bridge yd yc lo hi lo mid bridge_l.(d);
      bridge yd yc lo hi mid hi bridge_r.(d)
    end;
    let pre = prefix.(d) in
    for p = lo to hi - 1 do
      let s = idd.(p) * m in
      for j = 0 to m - 1 do
        let below = if p = lo then 0. else pre.(((p - 1) * m) + j) in
        pre.((p * m) + j) <- below +. stats.(s + j)
      done
    done
  in
  if n > 0 then build_node 0 0 n;
  { n; m; xs; ys; prefix; bridge_l; bridge_r }

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
   whose y members are its node-local positions [ya, yb). *)
let rec visit t acc xa xb d lo hi ya yb =
  if xb <= lo || hi <= xa then ()
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
      let root = t.ys.(0) in
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
