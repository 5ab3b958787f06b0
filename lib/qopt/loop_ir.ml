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
   so the kernels evaluate every expression with [Expr.eval] itself, over
   trees [Expr.fold] constant-folded once at compile time: one scalar
   semantics, with no second evaluator to keep in step. *)

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
(* Compilation: closure composition over constant-folded expressions *)

module Compile = struct
  type env = {
    evaluator : Eval.t;
    units : Tuple.t array;
    find_key : int -> int;
    acc : Combine.Acc.t;
  }

  type kernel = env -> members:int array -> rows:Tuple.t array -> rands:(int -> int) array -> unit

  (* One step as a per-row closure over the row's unit position and its
     evaluation context, built once per row per pass ([ctx.u] is the
     working row, so a bind is visible to every later step of the pass). *)
  let compile_step ~fold (step : step) : env -> int -> Expr.ctx -> unit =
    match step with
    | Bind_col (slot, e) ->
      let e = fold e in
      fun _env _pos ctx -> ctx.Expr.u.(slot) <- Expr.eval ctx e
    | Emit c ->
      let ups = List.map (fun (attr, e) -> (attr, fold e)) c.Core_ir.updates in
      let emit env (ctx : Expr.ctx) (target : Tuple.t) pos =
        let ctx = { ctx with Expr.e = Some target } in
        List.iter
          (fun (attr, e) -> Combine.Acc.add_attr env.acc ~base:target ~pos attr (Expr.eval ctx e))
          ups
      in
      begin
        match c.Core_ir.target with
        | Core_ir.Self -> fun env pos ctx -> emit env ctx ctx.Expr.u pos
        | Core_ir.Key key_expr ->
          let key_expr = fold key_expr in
          fun env _pos ctx ->
            let target = env.find_key (Expr.eval_int ctx key_expr) in
            if target >= 0 then emit env ctx env.units.(target) target
        | Core_ir.All _ -> invalid_arg "Loop_ir.Compile: area clause in a fused pass"
      end

  type state = {
    env : env;
    members : int array; (* row index -> the unit's position in [env.units] *)
    rows : Tuple.t array;
    rands : (int -> int) array;
  }

  let row_ctx (st : state) i = { Expr.u = st.rows.(i); e = None; rand = st.rands.(i) }

  (* A compiled program runs over an explicit selection of row indexes.
     Callers guarantee the selection is non-empty: empty sub-programs are
     skipped (in particular, no aggregate batch is ever evaluated over
     zero rows). *)
  let rec compile_prog ~fold (p : t) : state -> int array -> unit =
    let compile_prog = compile_prog ~fold in
    match p with
    | Halt -> fun _ _ -> ()
    | Pass (steps, k) ->
      let fs = List.map (compile_step ~fold) steps in
      let kk = compile_prog k in
      fun st sel ->
        Array.iter
          (fun i ->
            let ctx = row_ctx st i and pos = st.members.(i) in
            List.iter (fun f -> f st.env pos ctx) fs)
          sel;
        kk st sel
    | Agg_fill { slot; agg_id; next } ->
      let kk = compile_prog next in
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
      let kk = compile_prog k in
      fun st sel ->
        let contributors = Array.map (fun i -> st.rows.(i)) sel in
        let contributor_rands = Array.map (fun i -> st.rands.(i)) sel in
        st.env.evaluator.Eval.apply_aoe ~pred ~updates ~contributors ~contributor_rands
          ~acc:st.env.acc;
        kk st sel
    | Partition (c, a, b) ->
      let c = fold c in
      let ka = compile_prog a and kb = compile_prog b in
      fun st sel ->
        let n = Array.length sel in
        let yes = Array.make n 0 and no = Array.make n 0 in
        let ny = ref 0 and nn = ref 0 in
        Array.iter
          (fun i ->
            if Expr.eval_bool (row_ctx st i) c then begin
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
      let ks = List.map compile_prog ps in
      fun st sel -> List.iter (fun k -> k st sel) ks

  let compile ?oracle (p : t) : kernel =
    let run = compile_prog ~fold:(Expr.fold ?oracle) p in
    fun env ~members ~rows ~rands ->
      if Array.length rows > 0 then
        run { env; members; rows; rands } (Array.init (Array.length rows) (fun i -> i))
end
