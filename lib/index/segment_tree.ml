(* A static-topology segment tree over an arbitrary monoid.

   The general-purpose form of the dynamic interval-aggregate index of
   Section 5.3.1.  The sweep-line keeps its own specialised copy (one float
   array and one int array) so its hot loop never compares polymorphically. *)

type 'a t = {
  neutral : 'a;
  op : 'a -> 'a -> 'a;
  size : int; (* number of leaves exposed to the caller *)
  base : int; (* power-of-two leaf count *)
  data : 'a array; (* 1-based heap layout; leaves at [base .. base+size) *)
}

let create ~neutral ~op n =
  if n < 0 then invalid_arg "Segment_tree.create: negative size";
  let base = ref 1 in
  while !base < max n 1 do
    base := !base * 2
  done;
  { neutral; op; size = n; base = !base; data = Array.make (2 * !base) neutral }

let set t i v =
  if i < 0 || i >= t.size then invalid_arg "Segment_tree.set: index out of bounds";
  let pos = ref (t.base + i) in
  t.data.(!pos) <- v;
  pos := !pos / 2;
  while !pos >= 1 do
    t.data.(!pos) <- t.op t.data.(2 * !pos) t.data.((2 * !pos) + 1);
    pos := !pos / 2
  done

let clear t i = set t i t.neutral

(* Aggregate of the half-open leaf range [lo, hi). *)
let query t ~lo ~hi =
  if lo < 0 || hi > t.size || lo > hi then
    invalid_arg "Segment_tree.query: bad range";
  let a = ref (t.base + lo) and b = ref (t.base + hi) in
  let left = ref t.neutral and right = ref t.neutral in
  while !a < !b do
    if !a land 1 = 1 then begin
      left := t.op !left t.data.(!a);
      incr a
    end;
    if !b land 1 = 1 then begin
      decr b;
      right := t.op t.data.(!b) !right
    end;
    a := !a / 2;
    b := !b / 2
  done;
  t.op !left !right

let query_all t = query t ~lo:0 ~hi:t.size

(* Bulk initialization in O(n). *)
let build ~neutral ~op (values : 'a array) =
  let t = create ~neutral ~op (Array.length values) in
  Array.blit values 0 t.data t.base (Array.length values);
  for i = t.base - 1 downto 1 do
    t.data.(i) <- op t.data.(2 * i) t.data.((2 * i) + 1)
  done;
  t
