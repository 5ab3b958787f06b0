(* The movement phase (Section 6): "Units attempt to move in directions
   they have decided on earlier.  This is done in random order, with
   collision detection and very simple pathfinding rules."

   The world is an integer grid with at most one unit per cell (the paper's
   density experiments measure "percent of game grid squares occupied").
   Each unit's decided movement vector is clamped to its per-tick speed and
   rounded to a destination cell; if the cell is taken, simple pathfinding
   tries shorter and axis-aligned alternatives before giving up.  Positions
   therefore remain integral, which keeps every float computation exact and
   the naive and indexed evaluators bit-for-bit identical. *)

open Sgl_util
open Sgl_relalg

type config = {
  posx : int; (* state attributes *)
  posy : int;
  mvx : int; (* effect attributes carrying the decided vector *)
  mvy : int;
  speed : float; (* WALK_DIST_PER_TICK *)
  speed_attr : int option; (* per-unit speed override (e.g. a freeze effect) *)
  width : int; (* grid bounds: cells [0, width) x [0, height) *)
  height : int;
}

(* The occupancy grid: the set of occupied cells, each encoded as
   [y * width + x], in one flat open-addressing table (linear probing,
   load factor at most 1/2, backward-shift deletion).  The arrays live as
   long as the simulation: each tick clears and refills them, and they grow
   only when the population outgrows them. *)
type grid = {
  config : config;
  mutable cells : int array; (* [free] or an encoded cell *)
  mutable bits : int; (* log2 of the capacity *)
  mutable count : int;
  mutable order : int array; (* the tick's visiting order, reused *)
  mutable dest : int array; (* per unit this tick: [still], [steered] or the cell it moved to *)
}

let free = min_int
let min_bits = 4

(* [dest] markers; a unit that moved holds its new cell's code (>= 0). *)
let still = -1
let steered = -2

let create_grid (config : config) : grid =
  { config; cells = Array.make (1 lsl min_bits) free; bits = min_bits; count = 0; order = [||];
    dest = [||] }

let capacity g = Array.length g.cells

(* Fibonacci hashing: the top [bits] bits of the 63-bit product. *)
let home_of_code g code = (code * 0x1E3779B97F4A7C15) lsr (63 - g.bits)

let encode g x y = (y * g.config.width) + x
let home g x y = home_of_code g (encode g x y)
let in_bounds g x y = x >= 0 && x < g.config.width && y >= 0 && y < g.config.height

(* The slot holding [code], or the free slot ending its probe chain. *)
let find_slot g code =
  let mask = capacity g - 1 in
  let i = ref (home_of_code g code) in
  while
    let c = Array.unsafe_get g.cells !i in
    c <> free && c <> code
  do
    i := (!i + 1) land mask
  done;
  !i

let occupied g x y = g.cells.(find_slot g (encode g x y)) <> free

(* Insert [code]; the caller guarantees it is absent and a slot is free. *)
let insert_absent g code =
  g.cells.(find_slot g code) <- code;
  g.count <- g.count + 1

(* Make room for [n] cells at load factor 1/2.  With [rehash] the current
   cells move over; without, the table comes back empty. *)
let reserve g n ~rehash =
  let bits = ref g.bits in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  if !bits <> g.bits then begin
    let old = g.cells in
    g.cells <- Array.make (1 lsl !bits) free;
    g.bits <- !bits;
    g.count <- 0;
    if rehash then Array.iter (fun c -> if c <> free then insert_absent g c) old
  end
  else if not rehash then begin
    Array.fill g.cells 0 (capacity g) free;
    g.count <- 0
  end

let add_code g code =
  let slot = find_slot g code in
  if g.cells.(slot) = free then
    if 2 * (g.count + 1) <= capacity g then begin
      g.cells.(slot) <- code;
      g.count <- g.count + 1
    end
    else begin
      reserve g (g.count + 1) ~rehash:true;
      insert_absent g code
    end

(* Backward-shift deletion: walk the chain after the hole and pull back
   every entry whose home slot does not lie cyclically inside (hole, j],
   so no probe chain is ever broken by a free slot. *)
let remove_code g code =
  let mask = capacity g - 1 in
  let hole = ref (find_slot g code) in
  if g.cells.(!hole) <> free then begin
    let j = ref ((!hole + 1) land mask) in
    while g.cells.(!j) <> free do
      let c = g.cells.(!j) in
      if (!j - home_of_code g c) land mask >= (!j - !hole) land mask then begin
        g.cells.(!hole) <- c;
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    g.cells.(!hole) <- free;
    g.count <- g.count - 1
  end

let add_unit g x y = add_code g (encode g x y)
let remove_unit g x y = remove_code g (encode g x y)

(* Vacate [from_] (whoever holds it) and occupy [to_]. *)
let move_unit g ~from_:(x0, y0) ~to_:(x1, y1) =
  remove_unit g x0 y0;
  add_unit g x1 y1

(* A free random cell, for resurrection (Section 6).  Rejection-samples
   deterministically from the tick PRNG; gives up (returning None) on a
   full grid. *)
let random_free_cell g (prng : Prng.t) ~(tick : int) ~(salt : int) : (int * int) option =
  let rec try_ n =
    if n > 10_000 then None
    else begin
      let x = Prng.int prng ~bound:g.config.width [ tick; salt; n; 11 ] in
      let y = Prng.int prng ~bound:g.config.height [ tick; salt; n; 13 ] in
      if occupied g x y then try_ (n + 1) else Some (x, y)
    end
  in
  try_ 0

(* Execute the phase.  [units] are the tick's survivors, and
   [positions.(i)] is the position [units.(i)] had in the tick's unit
   array — its slot in [acc] and the position its moves are recorded at
   (no [positions]: the identity).  Rows of units that do not move are
   left untouched; a unit that moves gets a fresh copy with its new
   position, written back into [units] — unless [delta] records its
   position, which marks [units.(i)] as the tick's own copy, updated in
   place.  Candidate destinations are tried in decreasing preference: the
   full clamped step, the half step, each axis alone; a unit blocked on
   all of them stays put.  Each coordinate a move changes is recorded
   against [delta] (posx/posy + unit position).

   Three passes: a sequential one fills the grid and marks the units with
   a nonzero decided vector; the shuffled one decides the moves against
   the grid, reading only the marked rows; a last sequential one writes
   the moved rows.  The fill reads cells from [cols] (the committed store
   of the tick's unit array) through [positions], touching a row only
   where the tick owns it or a column is not pure floats.  Writing in
   array order keeps the new rows in memory in the order scans read
   them. *)
let run ~(delta : Delta.t) ~(cols : Colstore.t) ?(positions = [||]) (g : grid) ~(prng : Prng.t)
    ~(tick : int) ~(units : Tuple.t array) ~(acc : Combine.Acc.t) : unit =
  let config = g.config in
  let n = Array.length units in
  let identity = Array.length positions = 0 in
  let pos i = if identity then i else positions.(i) in
  reserve g n ~rehash:false;
  if Array.length g.dest <> n then begin
    g.dest <- Array.make n still;
    g.order <- Array.make n 0
  end;
  let dest = g.dest and order = g.order in
  (* The committed x/y columns, when both are pure floats: a cell read
     from them is the row's, [Value.to_int (Float f) = int_of_float f]. *)
  let xs, ys =
    match (Colstore.col cols config.posx, Colstore.col cols config.posy) with
    | Colstore.Floats xs, Colstore.Floats ys -> (xs, ys)
    | _ -> ([||], [||])
  in
  let from_cols = Array.length xs > 0 in
  for i = 0 to n - 1 do
    (* A row the tick owns may hold a new position the columns do not. *)
    let p = pos i in
    if from_cols && not (Delta.dirty_pos delta p) then
      add_code g (encode g (int_of_float xs.(p)) (int_of_float ys.(p)))
    else begin
      let u = units.(i) in
      add_code g
        (encode g (Value.to_int (Tuple.get u config.posx)) (Value.to_int (Tuple.get u config.posy)))
    end;
    let moves =
      match Combine.Acc.find_opt acc p with
      | None -> false
      | Some effects ->
        Value.to_float (Tuple.get effects config.mvx) <> 0.
        || Value.to_float (Tuple.get effects config.mvy) <> 0.
    in
    dest.(i) <- (if moves then steered else still);
    order.(i) <- i
  done;
  Prng.shuffle_in_place prng [ tick; 17 ] order;
  let round f = int_of_float (Float.round f) in
  for o = 0 to n - 1 do
    let i = order.(o) in
    if dest.(i) = steered then begin
      let u = units.(i) in
      match Combine.Acc.find_opt acc (pos i) with
      | None -> ()
      | Some effects ->
        let vx = Value.to_float (Tuple.get effects config.mvx) in
        let vy = Value.to_float (Tuple.get effects config.mvy) in
        let x = Value.to_int (Tuple.get u config.posx) in
        let y = Value.to_int (Tuple.get u config.posy) in
        let speed =
          match config.speed_attr with
          | None -> config.speed
          | Some a -> Float.min config.speed (Value.to_float (Tuple.get u a))
        in
        (* [Vec2.clamp_norm speed (vx, vy)], unboxed: scaling by exactly
           1. leaves a short vector bit-identical *)
        let norm = sqrt ((vx *. vx) +. (vy *. vy)) in
        let k = if norm <= speed || norm = 0. then 1. else speed /. norm in
        let vx = k *. vx and vy = k *. vy in
        let fx = x + round vx and fy = y + round vy in
        let ok cx cy = (cx <> x || cy <> y) && in_bounds g cx cy && not (occupied g cx cy) in
        let move_to cx cy =
          remove_unit g x y;
          add_unit g cx cy;
          dest.(i) <- encode g cx cy
        in
        if ok fx fy then move_to fx fy
        else begin
          let hx = x + round (vx /. 2.) and hy = y + round (vy /. 2.) in
          if ok hx hy then move_to hx hy
          else if ok fx y then move_to fx y
          else if ok x fy then move_to x fy
          (* blocked on every side: wait for the next tick *)
        end
    end
  done;
  for i = 0 to n - 1 do
    let code = dest.(i) in
    if code >= 0 then begin
      let u = units.(i) and p = pos i in
      let x = Value.to_int (Tuple.get u config.posx) and y = Value.to_int (Tuple.get u config.posy) in
      let cx = code mod config.width and cy = code / config.width in
      let row =
        if Delta.dirty_pos delta p then u
        else begin
          let r = Tuple.copy u in
          units.(i) <- r;
          r
        end
      in
      Tuple.set row config.posx (Value.Float (float_of_int cx));
      Tuple.set row config.posy (Value.Float (float_of_int cy));
      (* a move changes cx or cy, so a copied row is always recorded *)
      if cx <> x then Delta.record delta ~attr:config.posx ~pos:p;
      if cy <> y then Delta.record delta ~attr:config.posy ~pos:p
    end
  done
