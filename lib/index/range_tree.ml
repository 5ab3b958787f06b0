(* Layered range trees (Section 5.3.1).

   A tree over dimension 0 whose canonical nodes carry an associated
   structure over the remaining dimensions; the last level is a sorted array
   whose leaves hold *prefix statistic vectors*, so any box aggregate of a
   divisible aggregate is recovered from O(log^d n) prefix differences
   without enumerating the k matching points (Figure 8).

   The same structure answers enumeration queries (reporting ids), which is
   the fallback for non-divisible aggregates and residual predicates. *)

open Sgl_util

type leaf = {
  coords : float array; (* sorted by the last dimension *)
  ids : int array; (* point ids in coord order *)
  prefix : float array; (* (n+1) * m statistic sums, flat; empty if stats are unused *)
  m : int;
}

type t =
  | Leaf_level of leaf
  | Tree_level of {
      coords : float array; (* sorted by this dimension *)
      root : node option; (* None iff there are no points *)
      m : int;
    }

and node = {
  lo : int;
  hi : int; (* the node covers sorted positions [lo, hi) *)
  assoc : t; (* next-level structure over those points *)
  left : node option;
  right : node option;
}

let build ~(dims : float array list) ~(stats : float array option) ~(m : int) (n : int) : t =
  let rec level dims (ids : int array) =
    match dims with
    | [] -> invalid_arg "Range_tree.build: at least one dimension required"
    | [ last ] ->
      let ids = Array.copy ids in
      Float_sort.sort_by last ids;
      let k = Array.length ids in
      let prefix =
        match stats with
        | None -> [||]
        | Some s ->
          let prefix = Array.make ((k + 1) * m) 0. in
          for i = 0 to k - 1 do
            let base = ids.(i) * m in
            for j = 0 to m - 1 do
              prefix.(((i + 1) * m) + j) <- prefix.((i * m) + j) +. s.(base + j)
            done
          done;
          prefix
      in
      Leaf_level { coords = Array.map (fun id -> last.(id)) ids; ids; prefix; m }
    | first :: rest ->
      let ids = Array.copy ids in
      Float_sort.sort_by first ids;
      let rec build_node lo hi =
        if hi <= lo then None
        else begin
          let assoc = level rest (Array.sub ids lo (hi - lo)) in
          if hi - lo = 1 then Some { lo; hi; assoc; left = None; right = None }
          else begin
            let mid = (lo + hi) / 2 in
            Some { lo; hi; assoc; left = build_node lo mid; right = build_node mid hi }
          end
        end
      in
      Tree_level
        { coords = Array.map (fun id -> first.(id)) ids; root = build_node 0 (Array.length ids); m }
  in
  level dims (Array.init n (fun k -> k))

(* Visit the leaf level of every canonical path through [box], with the
   position range [a, b) of its members in the last dimension. *)
let iter_box ~(fn : string) (t : t) (box : Interval.box) (visit : leaf -> int -> int -> unit) =
  let last_dim = Array.length box.Interval.lows - 1 in
  let arity () = invalid_arg ("Range_tree." ^ fn ^ ": box arity does not match tree depth") in
  let rec go t d =
    match t with
    | Leaf_level l ->
      if d <> last_dim then arity ();
      let a = Interval.first box d l.coords in
      visit l a (max a (Interval.last box d l.coords))
    | Tree_level { coords; root; _ } ->
      if d > last_dim then arity ();
      let a = Interval.first box d coords in
      let b = max a (Interval.last box d coords) in
      let rec cover = function
        | None -> ()
        | Some node ->
          if b <= node.lo || node.hi <= a then ()
          else if a <= node.lo && node.hi <= b then go node.assoc (d + 1)
          else begin
            cover node.left;
            cover node.right
          end
      in
      cover root
  in
  go t 0

let width = function
  | Leaf_level l -> l.m
  | Tree_level l -> l.m

(* Sum the statistic vectors of all points inside the box into [scratch]
   from zero, then add [scratch] into [acc]. *)
let accumulate (t : t) (box : Interval.box) ~(scratch : float array) (acc : float array) : unit =
  let m = width t in
  Array.fill scratch 0 m 0.;
  iter_box ~fn:"accumulate" t box (fun l a b ->
      if b > a then
        for j = 0 to m - 1 do
          scratch.(j) <- scratch.(j) +. l.prefix.((b * m) + j) -. l.prefix.((a * m) + j)
        done);
  for j = 0 to m - 1 do
    acc.(j) <- acc.(j) +. scratch.(j)
  done

(* Report the id of every point inside the box. *)
let query_enum (t : t) (box : Interval.box) (f : int -> unit) : unit =
  iter_box ~fn:"query_enum" t box (fun l a b ->
      for i = a to b - 1 do
        f l.ids.(i)
      done)

let query_count (t : t) (box : Interval.box) : int =
  let n = ref 0 in
  query_enum t box (fun _ -> incr n);
  !n

let depth (t : t) =
  let rec go acc = function
    | Leaf_level _ -> acc + 1
    | Tree_level { root = Some n; _ } -> go (acc + 1) n.assoc
    | Tree_level { root = None; _ } -> acc + 1
  in
  go 0 t

let size = function
  | Leaf_level l -> Array.length l.ids
  | Tree_level { coords; _ } -> Array.length coords
