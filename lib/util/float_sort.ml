(* Stable sorting of index arrays by float keys, in [Float.compare] order.

   Every geometric index orders its points along an axis.  A closure
   comparator ([fun a b -> Float.compare k.(a) k.(b)]) pays an indirect
   call and two scattered loads per comparison; this sort instead gathers
   the keys beside the ids once and runs a bottom-up merge sort over the
   two parallel arrays with the unboxed float [<].

   [Float.compare] differs from [<] only on nan: nan equals nan and sits
   below every other float.  Since all nans are equal, a stable sort puts
   them first in input order, so a nan prefix is split off by one stable
   partition and only the rest meets [<] (under which -0. and 0. are equal,
   as [Float.compare] has them). *)

(* Runs this short are insertion-sorted before merging starts. *)
let run = 24

(* Insertion-sort positions [lo, hi) of the parallel arrays. *)
let insertion (k : float array) (ids : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let kv = Array.unsafe_get k i and iv = Array.unsafe_get ids i in
    let j = ref (i - 1) in
    while !j >= lo && kv < Array.unsafe_get k !j do
      Array.unsafe_set k (!j + 1) (Array.unsafe_get k !j);
      Array.unsafe_set ids (!j + 1) (Array.unsafe_get ids !j);
      decr j
    done;
    Array.unsafe_set k (!j + 1) kv;
    Array.unsafe_set ids (!j + 1) iv
  done

(* Merge the sorted source runs [lo, mid) and [mid, hi) into the same
   positions of the destination; equal keys take the left run first. *)
let merge (sk : float array) (si : int array) (dk : float array) (di : int array) lo mid hi =
  let i = ref lo and j = ref mid in
  for p = lo to hi - 1 do
    if !j >= hi || (!i < mid && not (Array.unsafe_get sk !j < Array.unsafe_get sk !i)) then begin
      Array.unsafe_set dk p (Array.unsafe_get sk !i);
      Array.unsafe_set di p (Array.unsafe_get si !i);
      incr i
    end
    else begin
      Array.unsafe_set dk p (Array.unsafe_get sk !j);
      Array.unsafe_set di p (Array.unsafe_get si !j);
      incr j
    end
  done

(* Sort positions [lo, n) of the parallel arrays, none of whose keys is
   nan, leaving the result in [k] and [ids]. *)
let merge_sort (k : float array) (ids : int array) lo n =
  let s = ref lo in
  while !s < n do
    insertion k ids !s (min n (!s + run));
    s := !s + run
  done;
  if n - lo > run then begin
    let k' = Array.make n 0. and ids' = Array.make n 0 in
    let src = ref (k, ids) and dst = ref (k', ids') in
    let width = ref run in
    while !width < n - lo do
      let sk, si = !src and dk, di = !dst in
      let a = ref lo in
      while !a < n do
        let mid = min n (!a + !width) in
        let hi = min n (mid + !width) in
        merge sk si dk di !a mid hi;
        a := hi
      done;
      src := (dk, di);
      dst := (sk, si);
      width := 2 * !width
    done;
    let sk, si = !src in
    if sk != k then begin
      Array.blit sk lo k lo (n - lo);
      Array.blit si lo ids lo (n - lo)
    end
  end

let sort_by (keys : float array) (ids : int array) : unit =
  let n = Array.length ids in
  let k = Array.make n 0. in
  let nans = ref 0 in
  for p = 0 to n - 1 do
    let v = keys.(ids.(p)) in
    Array.unsafe_set k p v;
    if Float.is_nan v then incr nans
  done;
  let lo = !nans in
  if lo > 0 then begin
    (* stable partition: the nan ids to the front, the rest after them *)
    let rest = Array.make (n - lo) 0 in
    let a = ref 0 and b = ref 0 in
    for p = 0 to n - 1 do
      let id = ids.(p) and v = Array.unsafe_get k p in
      if Float.is_nan v then begin
        ids.(!a) <- id;
        incr a
      end
      else begin
        rest.(!b) <- id;
        k.(!b) <- v;
        incr b
      end
    done;
    Array.blit k 0 k lo (n - lo);
    Array.blit rest 0 ids lo (n - lo)
  end;
  merge_sort k ids lo n

let order (keys : float array) : int array =
  let ids = Array.init (Array.length keys) Fun.id in
  sort_by keys ids;
  ids
