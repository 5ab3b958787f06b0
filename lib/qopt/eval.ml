(* Pluggable aggregate evaluators (Section 6: "two pluggable versions of
   our aggregate query evaluator").

   [naive]   — every aggregate is a fresh O(n) scan; every area effect is a
               fresh O(n) application: O(n^2) per tick overall.
   [indexed] — per-tick in-memory indexes chosen by [Agg_plan]: shared
               prefix-aggregate range trees for divisible aggregates, the
               sweep-line for constant-window min/max, kD-trees for nearest
               neighbours, and the Section 5.4 index for combining area
               effects; O(n log n) per tick.

   Following Section 6 ("All divisible queries ... share the same range
   tree"), aggregate instances whose access paths agree — same categorical
   partition attributes, same box dimensions, same data filter — share one
   index *group*: one categorical partitioning, one tree per partition whose
   leaves carry the union of every member's statistics.  [indexed ~share:
   false] disables the sharing for the ablation benchmarks.

   Both evaluators must agree *exactly* with the reference interpreter; the
   integration suite checks tick-by-tick equality on integral-coordinate
   workloads, where all float sums are exact. *)

open Sgl_relalg
open Sgl_index
open Sgl_util

(* ------------------------------------------------------------------ *)
(* The ledger.

   An evaluator records its work in the registry it is built over, once
   per event: the evaluator-wide totals below, which the simulation's
   report and tick samples read, and the per-aggregate-instance and
   per-group counters behind EXPLAIN, which say how each instance's probes
   were actually answered — prefix-aggregate lookups, enumerations,
   sweeps, uniform sharing, or naive scans — and how many rows each answer
   touched.  A disabled registry makes every count inert. *)

type counters = {
  index_builds : Telemetry.counter;
  index_reuses : Telemetry.counter;
  index_probes : Telemetry.counter;
  naive_scans : Telemetry.counter;
  uniform_hits : Telemetry.counter;
  build_ns : Telemetry.counter;
}

let counters (tel : Telemetry.Registry.t) : counters =
  let c = Telemetry.Registry.counter tel in
  {
    index_builds = c "eval.index_build";
    index_reuses = c "eval.index_reuse";
    index_probes = c "eval.index_probe";
    naive_scans = c "eval.naive_scan";
    uniform_hits = c "eval.uniform_hit";
    build_ns = c "eval.index_build_ns";
  }

(* Per-aggregate-instance counters (EXPLAIN's row of live statistics).
   Instances are named by position in the program's aggregate array, so
   [explain] can re-derive the same names from the compiled program. *)
type agg_tel = {
  tel_batches : Telemetry.counter; (* eval_agg batches *)
  tel_probes : Telemetry.counter; (* index probes made for this instance *)
  tel_rows : Telemetry.counter; (* rows scanned (naive or enumerated candidates) *)
  tel_prefix : Telemetry.counter; (* probes answered from prefix-aggregate leaves *)
  tel_enum : Telemetry.counter; (* probes answered by enumerate-and-filter *)
  tel_sweep : Telemetry.counter; (* probes answered by a sweep-line pass *)
  tel_uniform : Telemetry.counter; (* batches answered once and shared *)
}

let agg_tel (tel : Telemetry.Registry.t) (label : string) : agg_tel =
  let c suffix = Telemetry.Registry.counter tel (Printf.sprintf "agg.%s.%s" label suffix) in
  {
    tel_batches = c "batches";
    tel_probes = c "probes";
    tel_rows = c "rows_scanned";
    tel_prefix = c "prefix_answers";
    tel_enum = c "enum_answers";
    tel_sweep = c "sweep_answers";
    tel_uniform = c "uniform_answers";
  }

let agg_tels (tel : Telemetry.Registry.t) (aggregates : Aggregate.t array) : agg_tel array =
  Array.init (Array.length aggregates) (fun i -> agg_tel tel (string_of_int i))

(* A batch's hot counts.  An indexed batch makes one probe per accepted
   partition per prober row, so these add up in plain fields while the
   batch runs and reach the registry's atomics once, when it ends. *)
type tally = {
  mutable probes : int;
  mutable rows : int;
  mutable prefix : int;
  mutable enum : int;
  mutable sweep : int;
}

(* Run [f] over a fresh tally and publish it, also when [f] raises: the
   probes a failed batch made were made. *)
let tallied (ec : counters) (tel : agg_tel) (f : tally -> 'a) : 'a =
  let tally = { probes = 0; rows = 0; prefix = 0; enum = 0; sweep = 0 } in
  let publish () =
    Telemetry.Counter.add ec.index_probes tally.probes;
    Telemetry.Counter.add tel.tel_probes tally.probes;
    Telemetry.Counter.add tel.tel_rows tally.rows;
    Telemetry.Counter.add tel.tel_prefix tally.prefix;
    Telemetry.Counter.add tel.tel_enum tally.enum;
    Telemetry.Counter.add tel.tel_sweep tally.sweep
  in
  Fun.protect ~finally:publish (fun () -> f tally)

type t = {
  (* Values of aggregate instance [agg_id] for each probing row. *)
  eval_agg : agg_id:int -> rows:Tuple.t array -> rands:(int -> int) array -> Value.t array;
  (* Apply one All-target effect clause, from each contributor row to every
     unit its predicate selects, into the combination accumulator. *)
  apply_aoe :
    pred:Predicate.t ->
    updates:(int * Expr.t) list ->
    contributors:Tuple.t array ->
    contributor_rands:(int -> int) array ->
    acc:Combine.Acc.t ->
    unit;
  (* Open a tick over the unit array.  [delta] describes what changed
     since the previous [prepare]'s unit array; [None] (or a structural
     delta) forces a cold rebuild of every cached structure.  [cols] is
     the column store of the units, read unchecked by index builds; the
     indexed evaluator builds one when it is omitted, the naive one
     ignores it. *)
  prepare : ?delta:Delta.t -> ?cols:Colstore.t -> Tuple.t array -> unit;
}

let dummy_rand (_ : int) = 0

(* ------------------------------------------------------------------ *)
(* Naive evaluator *)

(* One fresh O(n) scan of [units] per probing row: the naive evaluator's
   answer, and the indexed one's for a [Naive_only] instance. *)
let naive_batch (ec : counters) ~(tel : agg_tel) ~(agg : Aggregate.t) ~(units : Tuple.t array)
    ~(rows : Tuple.t array) ~(rands : (int -> int) array) : Value.t array =
  Telemetry.Counter.add ec.naive_scans (Array.length rows);
  Telemetry.Counter.add tel.tel_rows (Array.length rows * Array.length units);
  Array.mapi
    (fun i row ->
      Aggregate.eval_naive ~units ~ctx:{ Expr.u = row; e = None; rand = rands.(i) } agg)
    rows

(* One area clause applied by brute force: every contributor tests every
   unit against the predicate.  The naive evaluator's [apply_aoe], and the
   indexed one's fallback for clauses its planner cannot index. *)
let naive_aoe (ec : counters) ~(units : Tuple.t array) ~pred ~updates
    ~(contributors : Tuple.t array) ~(contributor_rands : (int -> int) array) ~acc : unit =
  Telemetry.Counter.add ec.naive_scans (Array.length contributors);
  Array.iteri
    (fun i contributor ->
      let rand = contributor_rands.(i) in
      Array.iteri
        (fun pos target ->
          let ctx = { Expr.u = contributor; e = Some target; rand } in
          if Predicate.holds ctx pred then
            List.iter
              (fun (attr, expr) ->
                Combine.Acc.add_attr acc ~base:target ~pos attr (Expr.eval ctx expr))
              updates)
        units)
    contributors

let naive ~(tel : Telemetry.Registry.t) ~(aggregates : Aggregate.t array) : t =
  let ec = counters tel and tels = agg_tels tel aggregates in
  let units = ref [||] in
  {
    eval_agg =
      (fun ~agg_id ~rows ~rands ->
        let tel = tels.(agg_id) in
        Telemetry.Counter.incr tel.tel_batches;
        naive_batch ec ~tel ~agg:aggregates.(agg_id) ~units:!units ~rows ~rands);
    apply_aoe =
      (fun ~pred ~updates ~contributors ~contributor_rands ~acc ->
        naive_aoe ec ~units:!units ~pred ~updates ~contributors ~contributor_rands ~acc);
    prepare = (fun ?delta:_ ?cols:_ e -> units := e);
  }

(* ------------------------------------------------------------------ *)
(* Index groups: instances that can share trees *)

(* Instances share a group when they partition the data the same way, box
   the same continuous attributes, and pre-filter the same data subset.
   Per-prober parts (bound expressions, categorical requirements, probe
   residuals) stay per instance. *)
type group = {
  group_id : int;
  cat_attrs : int list; (* sorted partition-key attributes *)
  box_attrs : int list; (* tree dimensions, ascending *)
  data_filter : Predicate.t;
  mutable stats_exprs : Expr.t list; (* deduped union of member statistics *)
  mutable n_stats : int;
  (* Per-group cache reuse, for EXPLAIN; [None] for the placeholder and
     the area-effect groups, which are never cached. *)
  g_reuses : Telemetry.counter option;
}

(* Group-scoped reuse counters: [group.<id>.reuses] counts the entry plus
   every per-partition structure the cross-tick cache carried over for
   that group, so EXPLAIN can show cache behaviour per access path. *)
let group_reuse_counter (tel : Telemetry.Registry.t) (group_id : int) : Telemetry.counter =
  Telemetry.Registry.counter tel (Printf.sprintf "group.%d.reuses" group_id)

(* A member's view of its group: where its statistics landed. *)
type membership = {
  group : group;
  stat_map : int array; (* instance statistic slot -> group column *)
}

let group_signature (access : Agg_plan.access) =
  let cat_attrs =
    List.sort_uniq compare
      (List.map fst access.Agg_plan.cat_eqs @ List.map fst access.Agg_plan.cat_nes)
  in
  let box_attrs = List.map (fun (b : Agg_plan.box_dim) -> b.Agg_plan.attr) access.Agg_plan.boxes in
  (cat_attrs, box_attrs, access.Agg_plan.data_filter)

(* Add an instance's statistics into a group, deduplicating structurally
   equal expressions so e.g. the shared count column is stored once. *)
let join_group (g : group) (stats_exprs : Expr.t list) : membership =
  let map =
    List.map
      (fun expr ->
        let rec find i = function
          | [] -> None
          | x :: rest -> if x = expr then Some i else find (i + 1) rest
        in
        match find 0 g.stats_exprs with
        | Some i -> i
        | None ->
          g.stats_exprs <- g.stats_exprs @ [ expr ];
          g.n_stats <- g.n_stats + 1;
          g.n_stats - 1)
      stats_exprs
  in
  { group = g; stat_map = Array.of_list map }

(* ------------------------------------------------------------------ *)
(* Built indexes: one per group per tick, partitions lazy *)

type div_struct =
  | Div_total of float array (* no box dims: the partition's statistic sum *)
  | Div_range of Range_tree.t (* 1 or >= 3 dims *)
  | Div_cascade of Cascade_tree.t (* the 2-d fast path *)

type sub_index = {
  members : int array; (* data ids, ascending *)
  (* Per (x, y) coordinate pair: the members' coordinates and their order
     along each axis, gathered and sorted once and read by every tree and
     sweep over that pair.  Not an index build of its own: its time counts
     toward the build time, never toward the build or reuse counts. *)
  mutable geoms : ((int * int) * Geometry.t) list;
  mutable divisible : div_struct option;
  mutable enum_tree : Range_tree.t option; (* reports positions in [members] *)
  mutable kds : ((int * int) * Kd_tree.t) list; (* per (ex, ey) coordinate pair *)
}

type built_index = {
  mutable data : Tuple.t array;
  (* [epoch] versions the entry against the owning context's tick counter:
     a cache hit is only valid when the epochs agree, which makes it
     impossible for a retried or rolled-back tick to probe structures the
     per-tick validation pass has not seen (they read as misses and are
     rebuilt).  Entries revalidated across ticks are re-stamped and their
     [data] swapped to the new unit array; the trees themselves bake
     coordinates and statistics at build time, so they stay valid exactly
     when their input attributes are untouched on their members. *)
  mutable epoch : int;
  group : group;
  cat : sub_index Cat_index.t;
  (* The column store of [data]: sub-structure builds read coordinates and
     statistics from its typed columns.  Swapped alongside [data] on
     revalidation. *)
  mutable cols : Colstore.t;
}

(* Write [Expr.eval_float e] over each member's row into
   [out.(k * stride + off)], [k] the member's position.  A bare attribute
   the column store holds as a numeric column is copied straight from
   it ([Expr.eval_float] of [EAttr j] is [Value.to_float row.(j)], which
   the column reproduces exactly); anything else evaluates the expression
   against the boxed row.  Builds gather once into arrays sized by the
   partition instead of calling an accessor per visit. *)
let gather (bi : built_index) (e : Expr.t) (members : int array) (out : float array) ~stride ~off
    : unit =
  let n = Array.length members in
  let boxed () =
    for k = 0 to n - 1 do
      out.((k * stride) + off) <-
        Expr.eval_float { Expr.u = [||]; e = Some bi.data.(members.(k)); rand = dummy_rand } e
    done
  in
  match e with
  | Expr.EAttr j when j < Schema.arity (Colstore.schema bi.cols) -> begin
    match Colstore.col bi.cols j with
    | Colstore.Floats a ->
      for k = 0 to n - 1 do
        out.((k * stride) + off) <- a.(members.(k))
      done
    | Colstore.Ints a ->
      for k = 0 to n - 1 do
        out.((k * stride) + off) <- float_of_int a.(members.(k))
      done
    | Colstore.Bools _ | Colstore.Boxed _ -> boxed ()
  end
  | _ -> boxed ()

let gather_column (bi : built_index) (e : Expr.t) (members : int array) : float array =
  let out = Array.make (Array.length members) 0. in
  gather bi e members out ~stride:1 ~off:0;
  out

(* Build time since [t0], in the ledger's nanoseconds.  Geometries add
   theirs without counting as builds. *)
let add_build_time (ec : counters) (t0 : int64) : unit =
  Telemetry.Counter.add ec.build_ns (Int64.to_int (Int64.sub (Timer.now_ns ()) t0))

let count_build (ec : counters) (t0 : int64) : unit =
  Telemetry.Counter.incr ec.index_builds;
  add_build_time ec t0

let build_index ?(epoch = 0) (ec : counters) ~(group : group) ~(data : Tuple.t array)
    ~(cols : Colstore.t) : built_index =
  Fault_inject.hit "index.build";
  let t0 = Timer.now_ns () in
  let n = Array.length data in
  let pass id =
    let ctx = { Expr.u = [||]; e = Some data.(id); rand = dummy_rand } in
    Predicate.holds ctx group.data_filter
  in
  let ids = Array.of_list (List.filter pass (List.init n (fun i -> i))) in
  let readers =
    List.map
      (fun a ->
        match Colstore.int_reader cols a with
        | Some r -> r
        | None -> fun id -> Value.to_int (Tuple.get data.(id) a))
      group.cat_attrs
  in
  let keys id = List.map (fun r -> r id) readers in
  let cat =
    Cat_index.create ~keys ~ids ~builder:(fun members ->
        { members; geoms = []; divisible = None; enum_tree = None; kds = [] })
  in
  count_build ec t0;
  { data; epoch; group; cat; cols }

(* The [ensure_*] functions return a partition's sub-structure, building
   and storing it in [sub] on first use. *)
let ensure_geometry ec (bi : built_index) ~(ex : int) ~(ey : int)
    (sub : sub_index) : Geometry.t =
  match List.assoc_opt (ex, ey) sub.geoms with
  | Some g -> g
  | None ->
    let t0 = Timer.now_ns () in
    let coord attr = gather_column bi (Expr.EAttr attr) sub.members in
    let g = Geometry.make ~x:(coord ex) ~y:(coord ey) in
    sub.geoms <- ((ex, ey), g) :: sub.geoms;
    add_build_time ec t0;
    g

let ensure_divisible ec (bi : built_index) (sub : sub_index) : div_struct =
  match sub.divisible with
  | Some d -> d
  | None ->
    (* fetched before the clock starts: the geometry times itself *)
    let geometry =
      match bi.group.box_attrs with
      | [ ax; ay ] -> Some (ensure_geometry ec bi ~ex:ax ~ey:ay sub)
      | _ -> None
    in
    let t0 = Timer.now_ns () in
    let m = bi.group.n_stats in
    let members = sub.members in
    let n = Array.length members in
    let stats = Array.make (n * m) 0. in
    List.iteri (fun j e -> gather bi e members stats ~stride:m ~off:j) bi.group.stats_exprs;
    let d =
      match (bi.group.box_attrs, geometry) with
      | [], _ ->
        let total = Array.make m 0. in
        for k = 0 to n - 1 do
          for j = 0 to m - 1 do
            total.(j) <- total.(j) +. stats.((k * m) + j)
          done
        done;
        Div_total total
      | _, Some g -> Div_cascade (Cascade_tree.build g ~stats ~m)
      | attrs, None ->
        let coord attr = gather_column bi (Expr.EAttr attr) members in
        Div_range (Range_tree.build ~dims:(List.map coord attrs) ~stats:(Some stats) ~m n)
    in
    sub.divisible <- Some d;
    count_build ec t0;
    d

let ensure_enum_tree ec (bi : built_index) (sub : sub_index) : Range_tree.t =
  match sub.enum_tree with
  | Some t -> t
  | None ->
    let t0 = Timer.now_ns () in
    let n = Array.length sub.members in
    let dims =
      match bi.group.box_attrs with
      | [] -> [ Array.make n 0. ] (* degenerate: everything in one slab *)
      | attrs -> List.map (fun a -> gather_column bi (Expr.EAttr a) sub.members) attrs
    in
    let t = Range_tree.build ~dims ~stats:None ~m:0 n in
    sub.enum_tree <- Some t;
    count_build ec t0;
    t

let ensure_kd ec (bi : built_index) ~(ex : int) ~(ey : int) (sub : sub_index) : Kd_tree.t =
  match List.assoc_opt (ex, ey) sub.kds with
  | Some t -> t
  | None ->
    let g = ensure_geometry ec bi ~ex ~ey sub in
    let t0 = Timer.now_ns () in
    let t = Kd_tree.build g sub.members in
    sub.kds <- ((ex, ey), t) :: sub.kds;
    count_build ec t0;
    t

(* ------------------------------------------------------------------ *)
(* Compiled probes.

   A batch probes one access path once per prober row, so the path is
   specialised once per batch and then run without interpretation:
   requirement values are read straight from the row, bounds come from
   float closures, the accepted partitions are memoised per distinct
   requirement vector, and statistics accumulate into buffers the batch
   reuses.  Every value is the one [Expr] evaluation would produce. *)

exception Not_float

(* A bound expression specialised to floats: the arithmetic of unit slots
   and constants that bounds are made of.  [Slot] and [Code] give
   [Expr.eval_float]'s result whenever every unit slot they read holds a
   [Value.Float], and raise [Not_float] otherwise; the caller then falls
   back to [Expr.eval_float], which also reproduces int arithmetic and
   errors.  [Int_const] is float code only beside a float operand: [Value]
   arithmetic widens mixed operands but keeps two ints int. *)
type fcode =
  | Num of float
  | Int_const of int
  | Slot of int
  | Code of (Tuple.t -> float)

let[@inline] run_fcode c (row : Tuple.t) =
  match c with
  | Num f -> f
  | Int_const k -> float_of_int k
  | Slot i ->
    if i < Array.length row then
      match Array.unsafe_get row i with
      | Value.Float f -> f
      | Value.Int _ | Value.Bool _ | Value.Vec _ -> raise_notrace Not_float
    else raise_notrace Not_float
  | Code f -> f row

let rec fcode (e : Expr.t) : fcode option =
  match e with
  | Expr.Const (Value.Float f) -> Some (Num f)
  | Expr.Const (Value.Int k) -> Some (Int_const k)
  | Expr.UAttr i -> Some (Slot i)
  | Expr.Binop (op, a, b) -> begin
    match (fcode a, fcode b) with
    | None, _ | _, None | Some (Int_const _), Some (Int_const _) -> None
    | Some x, Some y -> (
      match op with
      | Expr.Add -> Some (Code (fun row -> run_fcode x row +. run_fcode y row))
      | Expr.Sub -> Some (Code (fun row -> run_fcode x row -. run_fcode y row))
      | Expr.Mul -> Some (Code (fun row -> run_fcode x row *. run_fcode y row))
      | Expr.Div -> Some (Code (fun row -> run_fcode x row /. run_fcode y row))
      | Expr.Mod -> None)
  end
  | _ -> None (* anything else always takes the [Expr] path *)

(* A bound over the prober: its row and random stream, which only the
   [Expr] fallback can need. *)
let compile_float (e : Expr.t) : Tuple.t -> (int -> int) -> float =
  let slow row rand = Expr.eval_float { Expr.u = row; e = None; rand } e in
  match fcode e with
  | None -> slow
  | Some (Num f) -> fun _ _ -> f
  | Some (Int_const k) ->
    let f = float_of_int k in
    fun _ _ -> f
  | Some c -> fun row rand -> ( try run_fcode c row with Not_float -> slow row rand)

(* A categorical requirement: an int slot or constant, read directly. *)
let compile_int (e : Expr.t) : Tuple.t -> (int -> int) -> int =
  let slow row rand = Expr.eval_int { Expr.u = row; e = None; rand } e in
  match e with
  | Expr.Const (Value.Int k) -> fun _ _ -> k
  | Expr.UAttr i ->
    fun row rand ->
      if i < Array.length row then
        match Array.unsafe_get row i with
        | Value.Int k -> k
        | Value.Float _ | Value.Bool _ | Value.Vec _ -> slow row rand
      else slow row rand
  | _ -> slow

module Requirements = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) = Array.length a = Array.length b && Array.for_all2 Int.equal a b
  let hash (a : t) = Hashtbl.hash a
end)

type probe = {
  req_attrs : int array; (* partition attribute of each requirement *)
  n_eqs : int; (* requirements [0, n_eqs) are equalities, the rest disequalities *)
  reqs : (Tuple.t -> (int -> int) -> int) array;
  req : int array; (* the current prober's requirement values *)
  memo : sub_index list Requirements.t; (* requirement values -> accepted partitions *)
  bounds : (int * bool * (Tuple.t -> (int -> int) -> float)) array; (* dim, lower?, bound *)
  box : Interval.box; (* the current prober's box *)
}

let compile_probe (access : Agg_plan.access) : probe =
  let reqs = access.Agg_plan.cat_eqs @ access.Agg_plan.cat_nes in
  let bound d lower = function
    | None -> []
    | Some (bd : Predicate.bound) -> [ (d, lower, compile_float bd.Predicate.value) ]
  in
  let strict = function
    | None -> false
    | Some (bd : Predicate.bound) -> not bd.Predicate.inclusive
  in
  let boxes = access.Agg_plan.boxes in
  {
    req_attrs = Array.of_list (List.map fst reqs);
    n_eqs = List.length access.Agg_plan.cat_eqs;
    reqs = Array.of_list (List.map (fun (_, rhs) -> compile_int rhs) reqs);
    req = Array.make (List.length reqs) 0;
    memo = Requirements.create 8;
    bounds =
      Array.of_list
        (List.concat
           (List.mapi
              (fun d (b : Agg_plan.box_dim) -> bound d true b.Agg_plan.lo @ bound d false b.Agg_plan.hi)
              boxes));
    box =
      Interval.box
        (List.map
           (fun (b : Agg_plan.box_dim) ->
             Interval.make ~lo_strict:(strict b.Agg_plan.lo) ~hi_strict:(strict b.Agg_plan.hi) ())
           boxes);
  }

(* The partitions [row] may read.  The same requirement values always
   accept the same partitions in the same order, so each distinct vector
   is resolved against the partitioning once per batch. *)
let probe_parts (p : probe) (bi : built_index) (row : Tuple.t) (rand : int -> int) : sub_index list
    =
  for i = 0 to Array.length p.reqs - 1 do
    p.req.(i) <- p.reqs.(i) row rand
  done;
  match Requirements.find p.memo p.req with
  | parts -> parts
  | exception Not_found ->
    let accept key =
      let kv = List.combine bi.group.cat_attrs key in
      let rec ok i =
        i >= Array.length p.req
        || (List.assoc p.req_attrs.(i) kv = p.req.(i)) = (i < p.n_eqs) && ok (i + 1)
      in
      ok 0
    in
    let parts = Cat_index.find_matching bi.cat ~accept in
    Requirements.add p.memo (Array.copy p.req) parts;
    parts

(* Overwrite the probe's box with [row]'s bounds. *)
let fill_box (p : probe) (row : Tuple.t) (rand : int -> int) : unit =
  for i = 0 to Array.length p.bounds - 1 do
    let d, lower, bound = p.bounds.(i) in
    if lower then p.box.Interval.lows.(d) <- bound row rand
    else p.box.Interval.highs.(d) <- bound row rand
  done

(* The enumeration tree of a box-less group has one degenerate dimension
   holding every point. *)
let whole_slab = Interval.box [ Interval.everything ]

(* ------------------------------------------------------------------ *)
(* Batch evaluation of one aggregate against one built index *)

let finish_components ~(agg : Aggregate.t) ~(row : Tuple.t) ~(rand : int -> int)
    (per_component : Value.t option list) : Value.t =
  let ctx = { Expr.u = row; e = None; rand } in
  let on_empty () =
    match agg.Aggregate.default with
    | Some d -> Expr.eval ctx d
    | None ->
      raise
        (Aggregate.Aggregate_error
           (Fmt.str "aggregate %s is empty and declares no default" agg.Aggregate.name))
  in
  match per_component with
  | [ Some v ] -> v
  | [ None ] -> on_empty ()
  | [ Some a; Some b ] -> Value.make_vec a b
  | [ _; _ ] -> on_empty ()
  | _ ->
    raise (Aggregate.Aggregate_error (Fmt.str "aggregate %s has invalid arity" agg.Aggregate.name))

let rec eval_indexed_batch ec (tally : tally) ~(strategy : Agg_plan.strategy)
    ~(agg : Aggregate.t) ~(membership : membership) ~(bi : built_index)
    ~(rows : Tuple.t array) ~(rands : (int -> int) array) : Value.t array =
  match strategy with
  | Agg_plan.Uniform | Agg_plan.Naive_only _ ->
    invalid_arg "eval_indexed_batch: not an indexed strategy"
  | Agg_plan.Indexed { access; components; stats_exprs = _; sweep; enumerate } ->
    let probe = compile_probe access in
    let n_stats = bi.group.n_stats in
    let total = Array.make n_stats 0. and scratch = Array.make n_stats 0. in
    (* A lone extremal component over a constant window is answered for
       every row up front, by one sweep per partition. *)
    let swept =
      match (sweep, components) with
      | Some info, [ Agg_plan.C_extremal { kind } ] ->
        Some (sweep_batch ec tally ~probe ~bi ~info ~kind ~rows ~rands)
      | _ -> None
    in
    (* per divisible component, its own statistics out of the group's columns *)
    let mine =
      List.map
        (function
          | Agg_plan.C_divisible { stat_count; _ } -> Array.make stat_count 0.
          | Agg_plan.C_extremal _ | Agg_plan.C_nearest _ -> [||])
        components
    in
    Array.mapi
      (fun i row ->
        let rand = rands.(i) in
        let parts =
          match swept with
          | Some (_, _, row_parts) -> row_parts.(i)
          | None -> probe_parts probe bi row rand
        in
        fill_box probe row rand;
        let box = probe.box in
        let per_component =
          List.map2
            (fun comp mine ->
              match comp with
              | Agg_plan.C_divisible { kind; stat_offset; stat_count } ->
                if enumerate then
                  eval_enum_component ec tally ~bi ~access ~row ~rand ~parts ~box kind
                else begin
                  (* each partition is summed on its own, then added in *)
                  Array.fill total 0 n_stats 0.;
                  List.iter
                    (fun sub ->
                      let d = ensure_divisible ec bi sub in
                      tally.probes <- tally.probes + 1;
                      match d with
                      | Div_total t ->
                        for j = 0 to n_stats - 1 do
                          total.(j) <- total.(j) +. t.(j)
                        done
                      | Div_range t -> Range_tree.accumulate t box ~scratch total
                      | Div_cascade t -> Cascade_tree.accumulate t box ~scratch total)
                    parts;
                  tally.prefix <- tally.prefix + 1;
                  for j = 0 to stat_count - 1 do
                    mine.(j) <- total.(membership.stat_map.(stat_offset + j))
                  done;
                  Aggregate.finish_divisible kind mine
                end
              | Agg_plan.C_extremal { kind } -> begin
                match swept with
                | Some (best_id, best_value, _) ->
                  tally.sweep <- tally.sweep + 1;
                  if best_id.(i) < 0 then None
                  else finish_extremal ~bi ~row ~rand kind best_value.(i) best_id.(i)
                | None -> eval_enum_component ec tally ~bi ~access ~row ~rand ~parts ~box kind
              end
              | Agg_plan.C_nearest { kind } ->
                eval_nearest ec tally ~bi ~access ~box ~row ~rand ~parts kind)
            components mine
        in
        finish_components ~agg ~row ~rand per_component)
      rows

(* The constant-window extremal path: one sweep per partition over the
   rows that accept it, each row keeping its best (value, data id) across
   partitions, ties toward the smaller id as the naive scan breaks them.
   Per row: the best data id (-1: none), its value, and the accepted
   partitions. *)
and sweep_batch ec (tally : tally) ~(probe : probe) ~(bi : built_index)
    ~(info : Agg_plan.sweep_info) ~(kind : Aggregate.kind) ~(rows : Tuple.t array)
    ~(rands : (int -> int) array) : int array * float array * sub_index list array =
  let maximize =
    match kind with
    | Aggregate.Max_agg _ | Aggregate.Arg_max _ -> true
    | _ -> false
  in
  let objective =
    match kind with
    | Aggregate.Min_agg e | Aggregate.Max_agg e -> e
    | Aggregate.Arg_min { objective; _ } | Aggregate.Arg_max { objective; _ } -> objective
    | _ -> assert false
  in
  let n_rows = Array.length rows in
  let row_parts = Array.mapi (fun i row -> probe_parts probe bi row rands.(i)) rows in
  let best_id = Array.make n_rows (-1) and best_value = Array.make n_rows 0. in
  List.iter
    (fun key ->
      match Cat_index.find bi.cat key with
      | None -> ()
      | Some sub ->
        let members = sub.members in
        let g = ensure_geometry ec bi ~ex:info.Agg_plan.x_data ~ey:info.Agg_plan.y_data sub in
        let value = gather_column bi objective members in
        let nq =
          Array.fold_left (fun n parts -> if List.memq sub parts then n + 1 else n) 0 row_parts
        in
        let qrow = Array.make nq 0 and q = ref 0 in
        Array.iteri
          (fun i parts ->
            if List.memq sub parts then begin
              qrow.(!q) <- i;
              incr q
            end)
          row_parts;
        let center attr = Array.map (fun i -> Value.to_float (Tuple.get rows.(i) attr)) qrow in
        let qx = center info.Agg_plan.x_center and qy = center info.Agg_plan.y_center in
        tally.probes <- tally.probes + nq;
        let best = Array.make nq (-1) in
        Sweepline.run
          (if maximize then Sweepline.Max else Sweepline.Min)
          g ~value ~qx ~qy ~rx:info.Agg_plan.rx ~ry:info.Agg_plan.ry best;
        Array.iteri
          (fun q k ->
            if k >= 0 then begin
              let i = qrow.(q) and id = members.(k) and v = value.(k) in
              let b = best_id.(i) and bv = best_value.(i) in
              let better =
                if maximize then v > bv || (v = bv && id < b) else v < bv || (v = bv && id < b)
              in
              if b < 0 || better then begin
                best_id.(i) <- id;
                best_value.(i) <- v
              end
            end)
          best)
    (Cat_index.partition_keys bi.cat);
  (best_id, best_value, row_parts)

(* Nearest neighbour per accepted partition's kD-tree; the partitions'
   answers fold toward the smaller (distance, id). *)
and eval_nearest ec (tally : tally) ~(bi : built_index)
    ~(access : Agg_plan.access) ~(box : Interval.box) ~(row : Tuple.t) ~(rand : int -> int)
    ~(parts : sub_index list) (kind : Aggregate.kind) : Value.t option =
  match kind with
  | Aggregate.Nearest { ex = Expr.EAttr exa; ey = Expr.EAttr eya; ux; uy; result } -> begin
    let ctx = { Expr.u = row; e = None; rand } in
    let qx = Expr.eval_float ctx ux and qy = Expr.eval_float ctx uy in
    let filter =
      match (access.Agg_plan.boxes, access.Agg_plan.probe_residual) with
      | [], [] -> None (* every point of an accepted partition qualifies *)
      | boxes, residual ->
        Some
          (fun id ->
            let e = bi.data.(id) in
            let rec in_box d = function
              | [] -> true
              | (b : Agg_plan.box_dim) :: rest ->
                Interval.box_mem box d (Value.to_float (Tuple.get e b.Agg_plan.attr))
                && in_box (d + 1) rest
            in
            in_box 0 boxes && Predicate.holds { Expr.u = row; e = Some e; rand } residual)
    in
    let best =
      List.fold_left
        (fun best sub ->
          let kd = ensure_kd ec bi ~ex:exa ~ey:eya sub in
          tally.probes <- tally.probes + 1;
          match Kd_tree.nearest ?filter kd ~qx ~qy with
          | None -> best
          | Some (id, d2) -> begin
            match best with
            | Some (bd2, bid) when bd2 < d2 || (bd2 = d2 && bid < id) -> best
            | _ -> Some (d2, id)
          end)
        None parts
    in
    match best with
    | None -> None
    | Some (_, id) -> Some (Expr.eval { Expr.u = row; e = Some bi.data.(id); rand } result)
  end
  | _ -> assert false

(* Enumeration path: report the box contents, filter residuals, and fall
   back to the one-component naive evaluation over the candidates. *)
and eval_enum_component ec (tally : tally) ~(bi : built_index)
    ~(access : Agg_plan.access) ~(row : Tuple.t) ~(rand : int -> int) ~(parts : sub_index list)
    ~(box : Interval.box) (kind : Aggregate.kind) : Value.t option =
  let candidates = Varray.create 0 in
  let box = if bi.group.box_attrs = [] then whole_slab else box in
  List.iter
    (fun sub ->
      let tree = ensure_enum_tree ec bi sub in
      tally.probes <- tally.probes + 1;
      Range_tree.query_enum tree box (fun k -> Varray.push candidates sub.members.(k)))
    parts;
  let ids = Varray.to_array candidates in
  Array.sort Int.compare ids (* restore data order so ties match the naive scan *);
  tally.enum <- tally.enum + 1;
  tally.rows <- tally.rows + Array.length ids;
  let cand_rows = Array.map (fun id -> bi.data.(id)) ids in
  Aggregate.eval_kind_naive ~units:cand_rows
    ~ctx:{ Expr.u = row; e = None; rand }
    ~where_:access.Agg_plan.probe_residual kind

and finish_extremal ~(bi : built_index) ~(row : Tuple.t) ~(rand : int -> int)
    (kind : Aggregate.kind) (value : float) (id : int) : Value.t option =
  match kind with
  | Aggregate.Min_agg _ | Aggregate.Max_agg _ -> Some (Value.Float value)
  | Aggregate.Arg_min { result; _ } | Aggregate.Arg_max { result; _ } ->
    Some (Expr.eval { Expr.u = row; e = Some bi.data.(id); rand } result)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Uniform evaluation: compute once, share across the batch. *)

let eval_uniform ec ~(tel : agg_tel) ~(agg : Aggregate.t) ~(units : Tuple.t array)
    ~(rows : Tuple.t array) ~(rands : (int -> int) array) : Value.t array =
  Telemetry.Counter.incr ec.uniform_hits;
  Telemetry.Counter.incr tel.tel_uniform;
  let ctx = { Expr.u = [||]; e = None; rand = dummy_rand } in
  let per_kind =
    List.map
      (fun kind -> Aggregate.eval_kind_naive ~units ~ctx ~where_:agg.Aggregate.where_ kind)
      agg.Aggregate.kinds
  in
  Array.mapi (fun i row -> finish_components ~agg ~row ~rand:rands.(i) per_kind) rows

(* ------------------------------------------------------------------ *)
(* The indexed evaluator *)

(* Construction state of an [indexed] evaluator: the instance -> group
   assignment and the per-tick index cache. *)
type indexed_ctx = {
  ctx_schema : Schema.t;
  strategies : Agg_plan.strategy array;
  memberships : membership option array;
  ctx_units : Tuple.t array ref;
  ctx_cols : Colstore.t ref; (* the column store of [ctx_units] *)
  cache : (int, built_index) Hashtbl.t; (* group id -> built index, epoch-stamped *)
  mutable epoch : int; (* bumped once per [prepare] *)
}

let make_indexed_ctx ?(share = true) ~(tel : Telemetry.Registry.t) ~(schema : Schema.t)
    ~(aggregates : Aggregate.t array) () : indexed_ctx =
  let strategies = Array.map (Agg_plan.analyze schema) aggregates in
  (* Assign every Indexed instance to a group; with sharing disabled, each
     instance gets a private group. *)
  let groups : group Varray.t =
    Varray.create
      { group_id = -1; cat_attrs = []; box_attrs = []; data_filter = []; stats_exprs = [];
        n_stats = 0; g_reuses = None }
  in
  let memberships : membership option array =
    Array.map
      (fun strategy ->
        match strategy with
        | Agg_plan.Indexed { access; stats_exprs; _ } ->
          let cat_attrs, box_attrs, data_filter = group_signature access in
          let existing =
            if share then begin
              let found = ref None in
              Varray.iter
                (fun g ->
                  if !found = None && g.cat_attrs = cat_attrs && g.box_attrs = box_attrs
                     && g.data_filter = data_filter
                  then found := Some g)
                groups;
              !found
            end
            else None
          in
          let g =
            match existing with
            | Some g -> g
            | None ->
              let gid = Varray.length groups in
              let g =
                { group_id = gid; cat_attrs; box_attrs; data_filter;
                  stats_exprs = []; n_stats = 0; g_reuses = Some (group_reuse_counter tel gid) }
              in
              Varray.push groups g;
              g
          in
          Some (join_group g stats_exprs)
        | Agg_plan.Uniform | Agg_plan.Naive_only _ -> None)
      strategies
  in
  {
    ctx_schema = schema;
    strategies;
    memberships;
    ctx_units = ref [||];
    ctx_cols = ref (Colstore.of_tuples schema [||]);
    cache = Hashtbl.create 32;
    epoch = 0;
  }

(* ------------------------------------------------------------------ *)
(* Cross-tick cache validation.

   A cached group index was built over last tick's unit array; the delta
   summary says what the intervening mutation phases changed.  Reuse is
   decided structure by structure:

   - the categorical partitioning (and the data-filter pass behind it)
     survives when the partition-key attributes and every attribute the
     data filter reads are globally clean — then the same ids land in the
     same partitions, and only [data] needs swapping to the new array;
   - a per-partition sub-structure survives when its input attributes are
     globally clean, or when none of the partition's members is a dirty
     unit (its inputs may be dirty elsewhere, but not here).  A partition's
     geometry follows the same rule over its two coordinates: kept, it
     would hand a rebuilt tree last tick's positions;
   - everything else is dropped and rebuilt lazily, on first probe.

   Structural deltas (death, resurrection, reordering) invalidate
   everything: data ids are positional. *)

let pred_e_attrs (p : Predicate.t) : int list =
  List.concat_map Expr.e_slots (Predicate.conjuncts p)

let any_dirty (d : Delta.t) (attrs : int list) : bool = List.exists (Delta.dirty_attr d) attrs

(* Try to carry [bi] into the new tick described by [delta]; true on
   success (entry re-stamped, sub-structures pruned), false when the whole
   entry must be dropped. *)
let revalidate_index (ec : counters) (ctx : indexed_ctx) ~(delta : Delta.t)
    ~(units : Tuple.t array) (bi : built_index) : bool =
  if
    Array.length bi.data <> Array.length units
    || any_dirty delta bi.group.cat_attrs
    || any_dirty delta (pred_e_attrs bi.group.data_filter)
  then false
  else begin
    bi.data <- units;
    bi.cols <- !(ctx.ctx_cols);
    bi.epoch <- ctx.epoch;
    Telemetry.Counter.incr ec.index_reuses;
    Option.iter Telemetry.Counter.incr bi.group.g_reuses;
    let no_dirty_units = Delta.dirty_key_count delta = 0 in
    let div_clean =
      not
        (any_dirty delta bi.group.box_attrs
        || List.exists (fun e -> any_dirty delta (Expr.e_slots e)) bi.group.stats_exprs)
    in
    let enum_clean = not (any_dirty delta bi.group.box_attrs) in
    Cat_index.iter_built
      (fun _key sub ->
        let partition_clean =
          no_dirty_units
          || not (Array.exists (Delta.dirty_pos delta) sub.members)
        in
        let keep kept =
          if kept then begin
            Telemetry.Counter.incr ec.index_reuses;
            Option.iter Telemetry.Counter.incr bi.group.g_reuses
          end
        in
        (match sub.divisible with
        | None -> ()
        | Some _ ->
          if div_clean || partition_clean then keep true else sub.divisible <- None);
        (match sub.enum_tree with
        | None -> ()
        | Some _ ->
          if enum_clean || partition_clean then keep true else sub.enum_tree <- None);
        let coords_clean (ex, ey) =
          partition_clean || not (Delta.dirty_attr delta ex || Delta.dirty_attr delta ey)
        in
        sub.geoms <- List.filter (fun (pair, _) -> coords_clean pair) sub.geoms;
        sub.kds <-
          List.filter
            (fun (pair, _) ->
              let kept = coords_clean pair in
              keep kept;
              kept)
            sub.kds)
      bi.cat;
    true
  end

(* Open a tick on a context: bump the epoch, publish the unit
   array, and either revalidate the cache against the delta or drop it
   cold.  Structures that survive keep their epoch current; everything
   else reads as a miss. *)
let open_tick (ctx : indexed_ctx) (ec : counters) ?(delta : Delta.t option)
    ?(cols : Colstore.t option) (units : Tuple.t array) : unit =
  ctx.ctx_units := units;
  ctx.ctx_cols :=
    (match cols with Some cs -> cs | None -> Colstore.of_tuples ctx.ctx_schema units);
  ctx.epoch <- ctx.epoch + 1;
  match delta with
  | None -> Hashtbl.reset ctx.cache
  | Some d when Delta.structural d -> Hashtbl.reset ctx.cache
  | Some d ->
    let stale =
      Hashtbl.fold
        (fun gid bi acc ->
          if revalidate_index ec ctx ~delta:d ~units bi then acc else gid :: acc)
        ctx.cache []
    in
    List.iter (Hashtbl.remove ctx.cache) stale

(* Look a membership's group index up in the cache, building it on a miss.
   Entries from an earlier epoch are misses: a quarantine retry or a
   degraded re-run must never probe a structure [open_tick] has not
   revalidated for the current unit array. *)
let group_index (ctx : indexed_ctx) (ec : counters) (m : membership) : built_index =
  match Hashtbl.find_opt ctx.cache m.group.group_id with
  | Some bi when bi.epoch = ctx.epoch -> bi
  | Some _ | None ->
    let bi =
      build_index ~epoch:ctx.epoch ec ~group:m.group ~data:!(ctx.ctx_units) ~cols:!(ctx.ctx_cols)
    in
    Hashtbl.replace ctx.cache m.group.group_id bi;
    bi

(* The indexed evaluator over a fresh context.  Structures are built lazily,
   on first probe, and kept in the cross-tick cache. *)
let indexed ?(share = true) ~(tel : Telemetry.Registry.t) ~(schema : Schema.t)
    ~(aggregates : Aggregate.t array) () : t =
  let ctx = make_indexed_ctx ~share ~tel ~schema ~aggregates () in
  let ec = counters tel in
  let units = ctx.ctx_units in
  let tels = agg_tels tel aggregates in
  (* The synthetic AoE aggregates are call-local and unnumbered; they share
     one instance-counter set, and their fresh groups count no reuses. *)
  let aoe_tel = agg_tel tel "aoe" in
  let eval_agg ~agg_id ~rows ~rands =
    (* The injection point of the indexed machinery: absent from the naive
       evaluator, so a [Degrade] retry chain always terminates clean. *)
    Fault_inject.hit "eval.member";
    let agg = aggregates.(agg_id) in
    let tel = tels.(agg_id) in
    Telemetry.Counter.incr tel.tel_batches;
    match ctx.strategies.(agg_id) with
    | Agg_plan.Uniform -> eval_uniform ec ~tel ~agg ~units:!units ~rows ~rands
    | Agg_plan.Naive_only _ -> naive_batch ec ~tel ~agg ~units:!units ~rows ~rands
    | Agg_plan.Indexed _ as strategy ->
      let membership = Option.get ctx.memberships.(agg_id) in
      let bi = group_index ctx ec membership in
      tallied ec tel (fun tally ->
          eval_indexed_batch ec tally ~strategy ~agg ~membership ~bi ~rows ~rands)
  in
  (* Area-of-effect combination (Section 5.4): swap the roles of u and e so
     contributors become the data set and affected units the probers, then
     reuse the aggregate machinery per updated attribute. *)
  let apply_aoe ~pred ~updates ~contributors ~contributor_rands ~acc =
    let rec swap (e : Expr.t) : Expr.t =
      match e with
      | Expr.UAttr i -> Expr.EAttr i
      | Expr.EAttr i -> Expr.UAttr i
      | Expr.Const _ -> e
      | Expr.Binop (op, a, b) -> Expr.Binop (op, swap a, swap b)
      | Expr.Cmp (op, a, b) -> Expr.Cmp (op, swap a, swap b)
      | Expr.And (a, b) -> Expr.And (swap a, swap b)
      | Expr.Or (a, b) -> Expr.Or (swap a, swap b)
      | Expr.Not a -> Expr.Not (swap a)
      | Expr.Neg a -> Expr.Neg (swap a)
      | Expr.VecOf (a, b) -> Expr.VecOf (swap a, swap b)
      | Expr.VecX a -> Expr.VecX (swap a)
      | Expr.VecY a -> Expr.VecY (swap a)
      | Expr.Abs a -> Expr.Abs (swap a)
      | Expr.Sqrt a -> Expr.Sqrt (swap a)
      | Expr.MinOf (a, b) -> Expr.MinOf (swap a, swap b)
      | Expr.MaxOf (a, b) -> Expr.MaxOf (swap a, swap b)
      | Expr.Random a -> Expr.Random (swap a)
    in
    let swapped_pred = Predicate.of_conjuncts (List.map swap (Predicate.conjuncts pred)) in
    let naive_fallback () =
      naive_aoe ec ~units:!units ~pred ~updates ~contributors ~contributor_rands ~acc
    in
    (* Indexable only when no update or conjunct needs the affected unit's
       random stream or mixes roles the planner cannot express. *)
    let updates_indexable =
      List.for_all (fun (_, e) -> (not (Expr.mentions_e e)) && not (Expr.mentions_random e)) updates
    in
    if (not updates_indexable) || List.exists Expr.mentions_random (Predicate.conjuncts pred) then
      naive_fallback ()
    else begin
      (* One synthetic aggregate per updated attribute. *)
      let synthetic (attr, expr) =
        let kind =
          match Schema.tag_at schema attr with
          | Schema.Sum -> Some (Aggregate.Sum (swap expr))
          | Schema.Max -> Some (Aggregate.Max_agg (swap expr))
          | Schema.Min -> Some (Aggregate.Min_agg (swap expr))
          (* priority-set contributions are vec-valued; no index yet *)
          | Schema.Pmax | Schema.Const -> None
        in
        Option.map
          (fun kind ->
            (* Count alongside, to distinguish "no contributors" from a
               legitimate zero sum. *)
            Aggregate.make ~name:"__aoe"
              ~kinds:[ kind; Aggregate.Count ]
              ~where_:swapped_pred
              ~default:(Expr.VecOf (Expr.Const (Value.Float nan), Expr.Const (Value.Float 0.)))
              ())
          kind
      in
      let plans =
        List.map
          (fun (attr, expr) ->
            match synthetic (attr, expr) with
            | None -> None
            | Some agg -> begin
              match Agg_plan.analyze schema agg with
              | Agg_plan.Naive_only _ -> None
              | strategy -> Some (attr, agg, strategy)
            end)
          updates
      in
      if List.exists Option.is_none plans then naive_fallback ()
      else begin
        let probers = !units in
        let prands = Array.map (fun _ -> dummy_rand) probers in
        (* The contributors are working rows (schema slots, then bind
           registers); their index builds read the schema slots' columns. *)
        let contributor_store =
          lazy
            (let arity = Schema.arity schema in
             Colstore.of_tuples schema (Array.map (fun r -> Array.sub r 0 arity) contributors))
        in
        List.iter
          (fun plan ->
            let attr, agg, strategy = Option.get plan in
            let contribute vals =
              Array.iteri
                (fun i v ->
                  let vec = Value.to_vec v in
                  if vec.Sgl_util.Vec2.y > 0. then
                    Combine.Acc.add_attr acc ~base:probers.(i) ~pos:i attr
                      (Value.Float vec.Sgl_util.Vec2.x))
                vals
            in
            match strategy with
            | Agg_plan.Naive_only _ -> assert false
            | Agg_plan.Uniform ->
              contribute
                (eval_uniform ec ~tel:aoe_tel ~agg ~units:contributors ~rows:probers
                   ~rands:prands)
            | Agg_plan.Indexed { access; stats_exprs; _ } ->
              (* a fresh single-instance group over the contributor set *)
              let cat_attrs, box_attrs, data_filter = group_signature access in
              let g =
                { group_id = -1; cat_attrs; box_attrs; data_filter; stats_exprs = []; n_stats = 0;
                  g_reuses = None }
              in
              let membership = join_group g stats_exprs in
              let bi =
                build_index ec ~group:g ~data:contributors ~cols:(Lazy.force contributor_store)
              in
              contribute
                (tallied ec aoe_tel (fun tally ->
                     eval_indexed_batch ec tally ~strategy ~agg ~membership ~bi ~rows:probers
                       ~rands:prands)))
          plans
      end
    end
  in
  { eval_agg; apply_aoe; prepare = (fun ?delta ?cols units -> open_tick ctx ec ?delta ?cols units) }

(* ------------------------------------------------------------------ *)
(* EXPLAIN: the compiled per-instance plan annotated with live counters.

   The group assignment in [make_indexed_ctx] is deterministic, so
   rebuilding a context here recovers exactly the instance -> group
   mapping the running evaluator used, and registration-by-name makes
   [agg_tel]/[group_reuse_counter] return the very handles the evaluator
   has been bumping in the same registry.  The report therefore shows the *chosen* access path
   next to how it actually answered: prefix-aggregate lookups vs.
   enumerations vs. sweeps vs. uniform sharing, rows touched, and what
   the cross-tick cache reused per group. *)

let pp_attr_list ppf attrs = Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) attrs

let explain ?(share = true) ~(tel : Telemetry.Registry.t) ~(schema : Schema.t)
    ~(aggregates : Aggregate.t array) () : string =
  let ctx = make_indexed_ctx ~share ~tel ~schema ~aggregates () in
  let ec = counters tel and tels = agg_tels tel aggregates in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Fmt.pf ppf "EXPLAIN: %d aggregate instance(s), index sharing %s@."
    (Array.length aggregates)
    (if share then "on" else "off");
  Array.iteri
    (fun i (agg : Aggregate.t) ->
      let tel = tels.(i) in
      let v = Telemetry.Counter.value in
      (match ctx.strategies.(i) with
      | Agg_plan.Uniform ->
        Fmt.pf ppf "  [%d] %s: uniform (answer once per batch, share across probers)@." i
          agg.Aggregate.name
      | Agg_plan.Naive_only reason ->
        Fmt.pf ppf "  [%d] %s: naive scan (%s)@." i agg.Aggregate.name reason
      | Agg_plan.Indexed { components; sweep; enumerate; _ } ->
        let group =
          match ctx.memberships.(i) with
          | Some m -> m.group
          | None -> assert false
        in
        let comp_name = function
          | Agg_plan.C_divisible _ ->
            if enumerate then "divisible(enumerate)" else "divisible(prefix)"
          | Agg_plan.C_extremal _ -> (
            match sweep with
            | Some _ -> "extremal(sweep)"
            | None -> "extremal(enumerate)")
          | Agg_plan.C_nearest _ -> "nearest(kd)"
        in
        Fmt.pf ppf "  [%d] %s: indexed via group %d [%a], cat=%a box=%a@." i agg.Aggregate.name
          group.group_id
          Fmt.(list ~sep:(any " + ") string)
          (List.map comp_name components) pp_attr_list group.cat_attrs pp_attr_list
          group.box_attrs);
      Fmt.pf ppf
        "        live: batches=%d probes=%d rows_scanned=%d prefix=%d enum=%d sweep=%d uniform=%d@."
        (v tel.tel_batches) (v tel.tel_probes) (v tel.tel_rows) (v tel.tel_prefix)
        (v tel.tel_enum) (v tel.tel_sweep) (v tel.tel_uniform))
    aggregates;
  let groups =
    let seen : (int, group) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun (m_opt : membership option) ->
        match m_opt with
        | Some m when not (Hashtbl.mem seen m.group.group_id) ->
          Hashtbl.add seen m.group.group_id m.group
        | _ -> ())
      ctx.memberships;
    List.sort
      (fun a b -> compare a.group_id b.group_id)
      (Hashtbl.fold (fun _ g acc -> g :: acc) seen [])
  in
  if groups <> [] then begin
    Fmt.pf ppf "  index groups:@.";
    List.iter
      (fun g ->
        let members =
          Array.fold_left
            (fun n (m_opt : membership option) ->
              match m_opt with
              | Some m when m.group.group_id = g.group_id -> n + 1
              | _ -> n)
            0 ctx.memberships
        in
        Fmt.pf ppf "    group %d: cat=%a box=%a members=%d stat_columns=%d cache_reuses=%d@."
          g.group_id pp_attr_list g.cat_attrs pp_attr_list g.box_attrs members g.n_stats
          (Option.fold ~none:0 ~some:Telemetry.Counter.value g.g_reuses))
      groups
  end;
  let v = Telemetry.Counter.value in
  Fmt.pf ppf "  totals: index_builds=%d (%.3fs) index_reuses=%d index_probes=%d naive_scans=%d@."
    (v ec.index_builds)
    (float_of_int (v ec.build_ns) /. 1e9)
    (v ec.index_reuses) (v ec.index_probes) (v ec.naive_scans);
  Format.pp_print_flush ppf ();
  Buffer.contents buf
