(* 2-d kD-tree for nearest-neighbour aggregates (Section 5.3.2).

   Built per categorical partition (player x unit type in the paper's
   engine); supports an optional per-point filter for residual predicates
   the planner could not push into the partitioning. *)

type node = {
  id : int; (* the splitting point *)
  px : float;
  py : float;
  axis : int; (* 0 = x, 1 = y *)
  left : node option;
  right : node option;
}

type t = { root : node option; count : int }

(* Median splits over presorted orders.  A node's slice [lo, hi) holds the
   same points in two arrays, one per axis order.  The median of the
   splitting axis's array is the node; the other array is stably
   partitioned into the points before the median and those after, so both
   children again hold their points in both orders.  O(n) per depth:
   O(n log n) build, O(log n) expected probes. *)
let build (g : Geometry.t) (ids : int array) : t =
  let n = Geometry.size g in
  if Array.length ids <> n then invalid_arg "Kd_tree.build: ids and geometry differ in size";
  let x = g.Geometry.x and y = g.Geometry.y in
  let orders = [| Array.copy g.Geometry.by_x; Array.copy g.Geometry.by_y |] in
  let left_of = Bytes.create n and scratch = Array.make n 0 in
  let rec go lo hi axis =
    if hi <= lo then None
    else begin
      let mid = (lo + hi) / 2 in
      let split = orders.(axis) and other = orders.(1 - axis) in
      let k = split.(mid) in
      if hi - lo > 1 then begin
        for i = lo to hi - 1 do
          Bytes.set left_of split.(i) (if i < mid then 'l' else 'r')
        done;
        let l = ref lo and r = ref (mid + 1) in
        for i = lo to hi - 1 do
          let p = other.(i) in
          if p <> k then begin
            if Bytes.get left_of p = 'l' then begin
              scratch.(!l) <- p;
              incr l
            end
            else begin
              scratch.(!r) <- p;
              incr r
            end
          end
        done;
        Array.blit scratch lo other lo (mid - lo);
        Array.blit scratch (mid + 1) other (mid + 1) (hi - mid - 1)
      end;
      Some
        {
          id = ids.(k);
          px = x.(k);
          py = y.(k);
          axis;
          left = go lo mid (1 - axis);
          right = go (mid + 1) hi (1 - axis);
        }
    end
  in
  { root = go 0 n 0; count = n }

let size t = t.count

(* Nearest accepted point to (qx, qy); distance ties break toward the
   smaller id.  The running best is an int ref and a one-slot float array
   (infinity while there is none), so improving it allocates nothing. *)
let nearest ?filter t ~qx ~qy : (int * float) option =
  let best_id = ref (-1) and best_d2 = [| infinity |] in
  let rec go = function
    | None -> ()
    | Some node ->
      let accepted =
        match filter with
        | None -> true
        | Some f -> f node.id
      in
      if accepted then begin
        let dx = node.px -. qx and dy = node.py -. qy in
        let d2 = (dx *. dx) +. (dy *. dy) in
        if !best_id < 0 || d2 < best_d2.(0) || (d2 = best_d2.(0) && node.id < !best_id) then begin
          best_id := node.id;
          best_d2.(0) <- d2
        end
      end;
      (* The far side can only help if the splitting plane is closer than
         the best match so far (<= admits equal-distance, smaller-id points). *)
      let delta = if node.axis = 0 then qx -. node.px else qy -. node.py in
      if delta < 0. then begin
        go node.left;
        if delta *. delta <= best_d2.(0) then go node.right
      end
      else begin
        go node.right;
        if delta *. delta <= best_d2.(0) then go node.left
      end
  in
  go t.root;
  if !best_id < 0 then None else Some (!best_id, best_d2.(0))

(* Visit every point inside the box (used by tests and residual scans). *)
let query_box ?(filter = fun _ -> true) t ~(x : Interval.t) ~(y : Interval.t) (f : int -> unit) :
    unit =
  let rec go = function
    | None -> ()
    | Some node ->
      if Interval.mem x node.px && Interval.mem y node.py && filter node.id then f node.id;
      let c = if node.axis = 0 then node.px else node.py in
      let iv = if node.axis = 0 then x else y in
      (* Prune subtrees wholly outside the box on the splitting axis. *)
      if c >= iv.Interval.lo then go node.left;
      if c <= iv.Interval.hi then go node.right
  in
  go t.root
