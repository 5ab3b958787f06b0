(* The fused loop IR: imperative loop programs lowered from optimized
   plans, compiled once per simulation into closure-composed kernels — the
   engine's only row executor.

   Read literally, a [Plan.t] is tree-at-a-time: each node loops over the
   live selection and every [Select] partitions it.  The loop IR keeps the
   batch boundaries the pluggable evaluator needs — aggregate binds and
   area-of-effect combination — but fuses all straight-line work (register
   binds, self/key effect emissions) into single passes, and [Compile]
   turns each pass into one composed closure specialized at startup.

   Bit-identity with the reference interpreter ([Interp]) is a hard
   requirement (the conformance harness diffs unit states after 50 ticks),
   so every closure mirrors [Expr.eval] operation-for-operation: same
   error messages, same short-circuiting, same tie-breaking in min/max, and
   constant folding only for [Random]-free subtrees whose value cannot
   depend on the row — with a run-time fallback when folding itself
   raises, so errors surface where the interpreter would raise them. *)

open Sgl_relalg
open Sgl_lang

type step =
  | Bind_col of int * Expr.t
  | Emit of Core_ir.effect_clause

type t =
  | Halt
  | Pass of step list * t
  | Agg_fill of { slot : int; agg_id : int; next : t }
  | Aoe of Core_ir.effect_clause * t
  | Partition of Expr.t * t * t
  | Fanout of t list

(* ------------------------------------------------------------------ *)
(* Inspection *)

let guarded_clauses (p : t) : ((bool * Expr.t) list * Core_ir.effect_clause) list =
  let out = ref [] in
  let rec go guards = function
    | Halt -> ()
    | Pass (steps, k) ->
      List.iter
        (function
          | Emit c -> out := (List.rev guards, c) :: !out
          | Bind_col _ -> ())
        steps;
      go guards k
    | Agg_fill { next; _ } -> go guards next
    | Aoe (c, k) ->
      out := (List.rev guards, c) :: !out;
      go guards k
    | Partition (c, a, b) ->
      go ((true, c) :: guards) a;
      go ((false, c) :: guards) b
    | Fanout ps -> List.iter (go guards) ps
  in
  go [] p;
  List.rev !out

type stats = {
  passes : int;
  fused_steps : int;
  agg_fills : int;
  partitions : int;
  aoes : int;
}

let stats (p : t) : stats =
  let s = ref { passes = 0; fused_steps = 0; agg_fills = 0; partitions = 0; aoes = 0 } in
  let rec go = function
    | Halt -> ()
    | Pass (steps, k) ->
      s := { !s with passes = !s.passes + 1; fused_steps = !s.fused_steps + List.length steps };
      go k
    | Agg_fill { next; _ } ->
      s := { !s with agg_fills = !s.agg_fills + 1 };
      go next
    | Aoe (_, k) ->
      s := { !s with aoes = !s.aoes + 1 };
      go k
    | Partition (_, a, b) ->
      s := { !s with partitions = !s.partitions + 1 };
      go a;
      go b
    | Fanout ps -> List.iter go ps
  in
  go p;
  !s

let pp_step ppf = function
  | Bind_col (slot, e) -> Fmt.pf ppf "r%d := %a" slot Expr.pp e
  | Emit c -> begin
    match c.Core_ir.target with
    | Core_ir.Self -> Fmt.pf ppf "emit self"
    | Core_ir.Key e -> Fmt.pf ppf "emit key(%a)" Expr.pp e
    | Core_ir.All _ -> Fmt.pf ppf "emit all(?)"
  end

let rec pp ppf = function
  | Halt -> Fmt.pf ppf "halt"
  | Pass (steps, k) ->
    Fmt.pf ppf "@[<v 2>pass {%a}@]@,%a" Fmt.(list ~sep:(any "; ") pp_step) steps pp k
  | Agg_fill { slot; agg_id; next } -> Fmt.pf ppf "r%d := agg:%d@,%a" slot agg_id pp next
  | Aoe (_, k) -> Fmt.pf ppf "aoe@,%a" pp k
  | Partition (c, a, b) ->
    Fmt.pf ppf "@[<v 2>partition %a@,then: %a@,else: %a@]" Expr.pp c pp a pp b
  | Fanout ps -> Fmt.pf ppf "@[<v 2>fanout@,%a@]" Fmt.(list ~sep:cut pp) ps

(* ------------------------------------------------------------------ *)
(* Lowering *)

module Lower = struct
  (* Prepend steps to a program, merging into an immediately following
     pass so adjacent straight-line work fuses into one loop. *)
  let pass (steps : step list) (next : t) : t =
    match (steps, next) with
    | [], k -> k
    | steps, Pass (more, k) -> Pass (steps @ more, k)
    | steps, k -> Pass (steps, k)

  (* One [Act]: self/key clauses become fused [Emit] steps; area clauses
     become batch [Aoe] ops.  Splitting a clause list this way reorders
     only the order in which contributions reach the ⊕-accumulator, which
     is commutative — V003 checks the clause multiset survives. *)
  let act (clauses : Core_ir.effect_clause list) : t =
    let emits, aoes =
      List.partition
        (fun (c : Core_ir.effect_clause) ->
          match c.Core_ir.target with
          | Core_ir.Self | Core_ir.Key _ -> true
          | Core_ir.All _ -> false)
        clauses
    in
    let tail = List.fold_right (fun c k -> Aoe (c, k)) aoes Halt in
    pass (List.map (fun c -> Emit c) emits) tail

  (* [Both] arms run over the same selection; arms that are pure passes
     (no batch boundary, no partition) fuse into a single loop.  Per-row
     order across fused arms differs from per-set order across sequential
     arms, but register writes are row-local, random draws are pure
     per-row functions, and emissions meet a commutative ⊕ — so the fused
     pass computes the same effect bag. *)
  let fanout (progs : t list) : t =
    let progs = List.filter (fun p -> p <> Halt) progs in
    let rec merge = function
      | Pass (s1, Halt) :: Pass (s2, Halt) :: rest -> merge (Pass (s1 @ s2, Halt) :: rest)
      | p :: rest -> p :: merge rest
      | [] -> []
    in
    match merge progs with
    | [] -> Halt
    | [ p ] -> p
    | ps -> Fanout ps

  let rec lower (p : Plan.t) : t =
    match p with
    | Plan.Nop -> Halt
    | Plan.Bind (slot, Plan.Bind_expr e, k) -> pass [ Bind_col (slot, e) ] (lower k)
    | Plan.Bind (slot, Plan.Bind_agg agg_id, k) -> Agg_fill { slot; agg_id; next = lower k }
    | Plan.Select (c, a, b) -> Partition (c, lower a, lower b)
    | Plan.Both plans -> fanout (List.map lower plans)
    | Plan.Act clauses -> act clauses
end

(* ------------------------------------------------------------------ *)
(* Compilation: closure composition with constant folding *)

(* Bind_col / Agg_fill write targets, for the columnar-safety check: the
   kernels may only read attributes straight from the columnar store when
   no step overwrites a schema slot of the working rows (registers live at
   slots >= arity, so in practice this always holds for lowered plans). *)
let rec write_slots (p : t) : int list =
  match p with
  | Halt -> []
  | Pass (steps, k) ->
    List.filter_map (function Bind_col (s, _) -> Some s | Emit _ -> None) steps @ write_slots k
  | Agg_fill { slot; next; _ } -> slot :: write_slots next
  | Aoe (_, k) -> write_slots k
  | Partition (_, a, b) -> write_slots a @ write_slots b
  | Fanout ps -> List.concat_map write_slots ps

(* Every scalar bind in the program, in program order. *)
let rec bind_steps (p : t) : (int * Expr.t) list =
  match p with
  | Halt -> []
  | Pass (steps, k) ->
    List.filter_map (function Bind_col (s, e) -> Some (s, e) | Emit _ -> None) steps
    @ bind_steps k
  | Agg_fill { next; _ } -> bind_steps next
  | Aoe (_, k) -> bind_steps k
  | Partition (_, a, b) -> bind_steps a @ bind_steps b
  | Fanout ps -> List.concat_map bind_steps ps

module Compile = struct
  type env = {
    evaluator : Eval.t;
    find_key : int -> Tuple.t option;
    acc : Combine.Acc.t;
    cols : Colstore.t; (* the tick's column store of the unit array *)
    ids : int array;
        (* unit id (row id in [cols]) of each kernel row, parallel to [rows] *)
  }

  type kernel = env -> rows:Tuple.t array -> rands:(int -> int) array -> unit

  (* A compiled expression: either a value known at compile time, or a
     closure over (row, env tuple, random stream) — the same context
     [Expr.eval] threads, minus the per-call record allocation. *)
  type comp =
    | Known of Value.t
    | Dyn of (Tuple.t -> Tuple.t option -> (int -> int) -> Value.t)

  let dyn = function
    | Known v -> fun _ _ _ -> v
    | Dyn f -> f

  let eval_error fmt = Fmt.kstr (fun s -> raise (Expr.Eval_error s)) fmt

  (* Fold a node whose children are all Known by running its closure with
     dummy context (Known children ignore their arguments).  If the fold
     raises — e.g. [abs] of a vector constant — keep the closure so the
     error is raised at run time, exactly where the interpreter raises. *)
  let no_rand (_ : int) = 0

  let fold_node (run : Tuple.t -> Tuple.t option -> (int -> int) -> Value.t) : comp =
    match run [||] None no_rand with
    | v -> Known v
    | exception _ -> Dyn run

  let fold2 ca cb run =
    match (ca, cb) with
    | Known _, Known _ -> fold_node run
    | _ -> Dyn run

  let fold1 ca run =
    match ca with
    | Known _ -> fold_node run
    | Dyn _ -> Dyn run

  (* [fold] is an external constant-folding oracle (interval facts from
     the analysis layer): when it pins [expr] to a single value the node
     compiles to [Known] outright, including over unit-slot reads the
     structural folder below must treat as dynamic.  The oracle is
     value-level only — it never touches effect-clause structure — so
     lowering validation (V003) is unaffected.  Skipping a [Random] call
     is sound here because the per-row streams are pure in the draw
     index. *)
  let rec compile_expr ?(fold = fun (_ : Expr.t) -> None) (expr : Expr.t) : comp =
    let compile_expr e = compile_expr ~fold e in
    match fold expr with
    | Some v -> Known v
    | None -> begin
      match expr with
      | Expr.Const v -> Known v
      | Expr.UAttr i ->
      Dyn
        (fun u _ _ ->
          if i >= Array.length u then eval_error "unit slot %d out of range" i;
          u.(i))
    | Expr.EAttr i ->
      Dyn
        (fun _ e _ ->
          match e with
          | None -> eval_error "e.* reference outside an aggregate or effect body"
          | Some e ->
            if i >= Array.length e then eval_error "env attribute %d out of range" i;
            e.(i))
    | Expr.Binop (op, a, b) ->
      let ca = compile_expr a and cb = compile_expr b in
      let fa = dyn ca and fb = dyn cb in
      fold2 ca cb (fun u e r -> Expr.apply_binop op (fa u e r) (fb u e r))
    | Expr.Cmp (op, a, b) ->
      let ca = compile_expr a and cb = compile_expr b in
      let fa = dyn ca and fb = dyn cb in
      fold2 ca cb (fun u e r -> Value.Bool (Expr.apply_cmp op (fa u e r) (fb u e r)))
    | Expr.And (a, b) ->
      let ca = compile_expr a and cb = compile_expr b in
      let fa = dyn ca and fb = dyn cb in
      fold2 ca cb (fun u e r -> Value.Bool (Value.to_bool (fa u e r) && Value.to_bool (fb u e r)))
    | Expr.Or (a, b) ->
      let ca = compile_expr a and cb = compile_expr b in
      let fa = dyn ca and fb = dyn cb in
      fold2 ca cb (fun u e r -> Value.Bool (Value.to_bool (fa u e r) || Value.to_bool (fb u e r)))
    | Expr.Not a ->
      let ca = compile_expr a in
      let fa = dyn ca in
      fold1 ca (fun u e r -> Value.Bool (not (Value.to_bool (fa u e r))))
    | Expr.Neg a ->
      let ca = compile_expr a in
      let fa = dyn ca in
      fold1 ca (fun u e r -> Value.neg (fa u e r))
    | Expr.VecOf (a, b) ->
      let ca = compile_expr a and cb = compile_expr b in
      let fa = dyn ca and fb = dyn cb in
      fold2 ca cb (fun u e r -> Value.make_vec (fa u e r) (fb u e r))
    | Expr.VecX a ->
      let ca = compile_expr a in
      let fa = dyn ca in
      fold1 ca (fun u e r -> Value.vec_x (fa u e r))
    | Expr.VecY a ->
      let ca = compile_expr a in
      let fa = dyn ca in
      fold1 ca (fun u e r -> Value.vec_y (fa u e r))
    | Expr.Abs a ->
      let ca = compile_expr a in
      let fa = dyn ca in
      fold1 ca (fun u e r ->
          match fa u e r with
          | Value.Int i -> Value.Int (abs i)
          | Value.Float f -> Value.Float (Float.abs f)
          | v -> eval_error "abs of non-number %a" Value.pp v)
    | Expr.Sqrt a ->
      let ca = compile_expr a in
      let fa = dyn ca in
      fold1 ca (fun u e r -> Value.Float (sqrt (Value.to_float (fa u e r))))
    | Expr.MinOf (a, b) ->
      let ca = compile_expr a and cb = compile_expr b in
      let fa = dyn ca and fb = dyn cb in
      fold2 ca cb (fun u e r ->
          let va = fa u e r and vb = fb u e r in
          if Value.compare_num va vb <= 0 then va else vb)
    | Expr.MaxOf (a, b) ->
      let ca = compile_expr a and cb = compile_expr b in
      let fa = dyn ca and fb = dyn cb in
      fold2 ca cb (fun u e r ->
          let va = fa u e r and vb = fb u e r in
          if Value.compare_num va vb >= 0 then va else vb)
      | Expr.Random a ->
        (* Never folds structurally: the draw depends on the row's random
           stream.  (The [fold] oracle above may still discharge it when
           the interval pins the draw, e.g. [random(1)].) *)
        let fa = dyn (compile_expr a) in
        Dyn (fun u e r -> Value.Int (r (Value.to_int (fa u e r))))
    end

  (* ---------------------------------------------------------------- *)
  (* Columnar specialization of scalar binds.

     [float_plan schema e] is [Some mk] when [e] is guaranteed to evaluate
     to [Value.Float] through operations whose interpreter semantics on
     float operands are the plain float primitives — then [mk cols] yields
     an unboxed [int -> float] over row ids (or [None] when a referenced
     column is not physically float-typed, e.g. after a mixed-tag
     promotion).  The operation set is deliberately strict so the column
     path is bit-identical to [Expr.eval]:

     - [UAttr j] for schema slots backed by a [Floats] column reads the
       exact stored float ([Value.to_float] of a [Float] is the identity);
     - [+ - * /] on two float operands are [+. -. *. /.] ([Value.add] &c.
       widen through [to_float]; floats never hit the int or vec cases,
       and float division has no zero check);
     - [Neg]/[Abs]/[Sqrt] on a float are [-.], [Float.abs], [sqrt];
     - [MinOf]/[MaxOf] pick an operand by [Float.compare] (exactly
       [Value.compare_num] on floats, NaNs included).

     Everything else — int arithmetic (stays [Int]), [Mod], [Random],
     comparisons, vec ops, [EAttr], register reads — falls back to the
     boxed closure. *)
  let rec float_plan (schema : Schema.t) (e : Expr.t) :
      (Colstore.t -> (int -> float) option) option =
    let un a op =
      match float_plan schema a with
      | None -> None
      | Some pa ->
        Some
          (fun cs ->
            match pa cs with Some fa -> Some (fun id -> op (fa id)) | None -> None)
    in
    let bin a b op =
      match (float_plan schema a, float_plan schema b) with
      | Some pa, Some pb ->
        Some
          (fun cs ->
            match (pa cs, pb cs) with
            | Some fa, Some fb -> Some (fun id -> op (fa id) (fb id))
            | _ -> None)
      | _ -> None
    in
    match e with
    | Expr.Const (Value.Float f) -> Some (fun _ -> Some (fun _ -> f))
    | Expr.UAttr j when j < Schema.arity schema ->
      Some
        (fun cs ->
          match Colstore.col cs j with
          | Colstore.Floats a -> Some (fun id -> a.(id))
          | _ -> None)
    | Expr.Binop (Expr.Add, a, b) -> bin a b ( +. )
    | Expr.Binop (Expr.Sub, a, b) -> bin a b ( -. )
    | Expr.Binop (Expr.Mul, a, b) -> bin a b ( *. )
    | Expr.Binop (Expr.Div, a, b) -> bin a b ( /. )
    | Expr.Neg a -> un a (fun x -> -.x)
    | Expr.Abs a -> un a Float.abs
    | Expr.Sqrt a -> un a sqrt
    | Expr.MinOf (a, b) -> bin a b (fun x y -> if Float.compare x y <= 0 then x else y)
    | Expr.MaxOf (a, b) -> bin a b (fun x y -> if Float.compare x y >= 0 then x else y)
    | _ -> None

  (* ---------------------------------------------------------------- *)
  (* Steps and programs *)

  (* One step as a per-row closure, resolved against the env once per
     kernel invocation (the env carries the tick's column store, which
     changes between invocations).  The trailing [int] is the kernel-row
     index, used to map into [env.ids] for column loads. *)
  let compile_step (schema : Schema.t) ~(columnar : bool) ~fold (step : step) :
      env -> Tuple.t -> (int -> int) -> int -> unit =
    match step with
    | Bind_col (slot, e) ->
      let f = dyn (compile_expr ~fold e) in
      let generic : env -> Tuple.t -> (int -> int) -> int -> unit =
        fun _env -> fun row rand _i -> row.(slot) <- f row None rand
      in
      if not columnar then generic
      else begin
        match float_plan schema e with
        | None -> generic
        | Some mk -> (
          fun env ->
            match mk env.cols with
            | None -> generic env
            | Some g ->
              let ids = env.ids in
              fun row _rand i -> row.(slot) <- Value.Float (g ids.(i)))
      end
    | Emit c ->
      let ups =
        Array.of_list
          (List.map (fun (attr, e) -> (attr, dyn (compile_expr ~fold e))) c.Core_ir.updates)
      in
      let emit env (row : Tuple.t) rand (target : Tuple.t) =
        let key = Tuple.key schema target in
        let e = Some target in
        Array.iter
          (fun (attr, f) -> Combine.Acc.add_attr env.acc ~base:target ~key attr (f row e rand))
          ups
      in
      begin
        match c.Core_ir.target with
        | Core_ir.Self -> fun env -> fun row rand _i -> emit env row rand row
        | Core_ir.Key key_expr ->
          let kf = dyn (compile_expr ~fold key_expr) in
          fun env ->
            fun row rand _i ->
              begin
                match env.find_key (Value.to_int (kf row None rand)) with
                | None -> ()
                | Some target -> emit env row rand target
              end
        | Core_ir.All _ -> invalid_arg "Loop_ir.Compile: area clause in a fused pass"
      end

  let compose fs =
    match fs with
    | [] -> fun _ _ _ -> ()
    | [ f ] -> f
    | f :: rest ->
      List.fold_left
        (fun g f row rand i ->
          g row rand i;
          f row rand i)
        f rest

  type state = { env : env; rows : Tuple.t array; rands : (int -> int) array }

  (* A compiled program runs over an explicit selection of row indexes.
     Callers guarantee the selection is non-empty: empty sub-programs are
     skipped (in particular, no aggregate batch is ever evaluated over
     zero rows). *)
  let rec compile_prog (schema : Schema.t) ~(columnar : bool) ~fold (p : t) :
      state -> int array -> unit =
    let compile_prog schema = compile_prog schema ~columnar ~fold in
    match p with
    | Halt -> fun _ _ -> ()
    | Pass (steps, k) ->
      let mks = List.map (compile_step schema ~columnar ~fold) steps in
      let kk = compile_prog schema k in
      fun st sel ->
        (* resolve the steps against this invocation's env (column
           store, accumulator), then run the fused loop *)
        let f = compose (List.map (fun mk -> mk st.env) mks) in
        Array.iter (fun i -> f st.rows.(i) st.rands.(i) i) sel;
        kk st sel
    | Agg_fill { slot; agg_id; next } ->
      let kk = compile_prog schema next in
      fun st sel ->
        let batch_rows = Array.map (fun i -> st.rows.(i)) sel in
        let batch_rands = Array.map (fun i -> st.rands.(i)) sel in
        let eval () =
          st.env.evaluator.Eval.eval_agg ~agg_id ~rows:batch_rows ~rands:batch_rands
        in
        let values =
          if Sgl_util.Telemetry.Span.enabled () then
            Sgl_util.Telemetry.Span.with_ ~cat:"op" (Printf.sprintf "agg:%d" agg_id) eval
          else eval ()
        in
        Array.iteri (fun j i -> st.rows.(i).(slot) <- values.(j)) sel;
        kk st sel
    | Aoe (c, k) ->
      let pred =
        match c.Core_ir.target with
        | Core_ir.All pred -> pred
        | Core_ir.Self | Core_ir.Key _ ->
          invalid_arg "Loop_ir.Compile: non-area clause in an Aoe op"
      in
      let updates = c.Core_ir.updates in
      let kk = compile_prog schema k in
      fun st sel ->
        let contributors = Array.map (fun i -> st.rows.(i)) sel in
        let contributor_rands = Array.map (fun i -> st.rands.(i)) sel in
        st.env.evaluator.Eval.apply_aoe ~pred ~updates ~contributors ~contributor_rands
          ~acc:st.env.acc;
        kk st sel
    | Partition (c, a, b) ->
      let cf = dyn (compile_expr ~fold c) in
      let ka = compile_prog schema a and kb = compile_prog schema b in
      fun st sel ->
        let n = Array.length sel in
        let yes = Array.make n 0 and no = Array.make n 0 in
        let ny = ref 0 and nn = ref 0 in
        Array.iter
          (fun i ->
            if Value.to_bool (cf st.rows.(i) None st.rands.(i)) then begin
              yes.(!ny) <- i;
              incr ny
            end
            else begin
              no.(!nn) <- i;
              incr nn
            end)
          sel;
        if !ny > 0 then ka st (Array.sub yes 0 !ny);
        if !nn > 0 then kb st (Array.sub no 0 !nn)
    | Fanout ps ->
      let ks = List.map (compile_prog schema) ps in
      fun st sel -> List.iter (fun k -> k st sel) ks

  (* Column loads are sound only while working-row schema slots still
     mirror the store — i.e. no step in the program overwrites a slot
     below the arity.  Lowered plans only bind registers (slots >= arity),
     so this is a safety net, not a working restriction. *)
  let columnar_ok ~(schema : Schema.t) (p : t) : bool =
    List.for_all (fun s -> s >= Schema.arity schema) (write_slots p)

  let boxed_binds ~(schema : Schema.t) (p : t) : (int * Expr.t) list =
    let safe = columnar_ok ~schema p in
    List.filter (fun (_, e) -> (not safe) || Option.is_none (float_plan schema e)) (bind_steps p)

  let compile ?(fold = fun (_ : Expr.t) -> None) ~(schema : Schema.t) (p : t) : kernel =
    let run = compile_prog schema ~columnar:(columnar_ok ~schema p) ~fold p in
    fun env ~rows ~rands ->
      if Array.length rows > 0 then
        run { env; rows; rands } (Array.init (Array.length rows) (fun i -> i))
end
