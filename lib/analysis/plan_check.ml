(* Plan translation validation (rules V001, V002, V003).

   The optimizer's rewrites (lazy aggregate placement, dead-column
   elimination, constant pruning — Section 5.2) are validated per script
   rather than trusted, in the spirit of bag-semantics compilers that
   check optimizer output against the unrewritten query:

   - V001 (shape): the optimized plan must be executable — every register
     read is bound by an enclosing [Bind] or is a schema attribute, binds
     land above the schema arity, aggregate instance ids are in range,
     selection conditions range over the probing unit only, and every
     emitted effect targets an in-range, non-const attribute.
   - V002 (⊕-equivalence): the multiset of guarded effects is preserved.
     Rewrites move binds, never acts, so each [Act] must appear in both
     plans under the same set of (polarity, condition) guards — modulo
     constant guards, which pruning legally discharges: a tautological
     guard disappears, an unsatisfiable one deletes the act it guards.
     Because effects combine through the associative-commutative ⊕,
     guarded-act multiset equality implies tick-outcome equality; clause
     equality also pins the written attributes, hence the ⊕ tags
     ("tag-preserving"). *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt

module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* V001: executable shape *)

let validate_shape ~(schema : Schema.t) ~(aggs : Aggregate.t array) ~(script : string)
    ?(pos = Ast.no_pos) (p : Plan.t) : Diagnostic.t list =
  let arity = Schema.arity schema in
  let out = ref [] in
  let emit fmt = Fmt.kstr (fun m -> out := Rules.diag ~pos ~context:script ~rule:"V001" "%s" m :: !out) fmt in
  let check_expr ~bound ~what e =
    List.iter
      (fun s ->
        if s >= arity && not (IntSet.mem s bound) then
          emit "%s reads register r%d before any bind defines it" what s)
      (Expr.u_slots e);
    List.iter
      (fun s ->
        if s < 0 || s >= arity then emit "%s references out-of-schema environment slot e%d" what s)
      (Expr.e_slots e)
  in
  let rec go bound = function
    | Plan.Nop -> ()
    | Plan.Bind (slot, binder, k) ->
      if slot < arity then emit "bind writes schema slot r%d (arity %d)" slot arity;
      (match binder with
      | Plan.Bind_expr e -> check_expr ~bound ~what:"bind expression" e
      | Plan.Bind_agg i ->
        if i < 0 || i >= Array.length aggs then
          emit "bind references unknown aggregate instance #%d" i
        else
          List.iter
            (fun s ->
              if s >= arity && not (IntSet.mem s bound) then
                emit "aggregate instance #%d reads register r%d before any bind defines it" i s)
            (Plan.agg_instance_slots aggs.(i)));
      go (IntSet.add slot bound) k
    | Plan.Select (c, a, b) ->
      check_expr ~bound ~what:"selection condition" c;
      if Expr.mentions_e c then emit "selection condition ranges over the environment tuple e";
      go bound a;
      go bound b
    | Plan.Both plans -> List.iter (go bound) plans
    | Plan.Act clauses ->
      List.iter
        (fun (cl : Core_ir.effect_clause) ->
          (match cl.Core_ir.target with
          | Core_ir.Self -> ()
          | Core_ir.Key e ->
            check_expr ~bound ~what:"key target" e;
            if Expr.mentions_e e then emit "key target ranges over the environment tuple e"
          | Core_ir.All p ->
            List.iter (check_expr ~bound ~what:"all-target condition") (Predicate.conjuncts p));
          List.iter
            (fun (attr, e) ->
              if attr < 0 || attr >= arity then emit "effect targets out-of-schema attribute #%d" attr
              else if Schema.tag_at schema attr = Schema.Const then
                emit "effect targets const-tagged attribute %S" (Schema.name_at schema attr);
              check_expr ~bound ~what:"effect contribution" e)
            cl.Core_ir.updates)
        clauses
  in
  go IntSet.empty p;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* V002: guarded-effect ⊕-equivalence *)

(* Normalize one guarded act: drop guards that pruning legally discharges
   (a constant-true condition taken on its true branch, constant-false on
   its false branch, and any condition [prove] decides — the same facts
   [Rewrite.simplify ~prove] prunes with), return [None] for acts behind
   an unsatisfiable guard (pruning deletes them), and set-normalize what
   remains — sinking never duplicates a guard, but nested duplicates
   compare equal either way. *)
let normalize_guarded ?(prove = fun (_ : Expr.t) -> None)
    ((guards, clauses) : Plan.guard list * Core_ir.effect_clause list) :
    ((bool * Expr.t) list * Core_ir.effect_clause list) option =
  let rec walk acc = function
    | [] -> Some acc
    | (polarity, Expr.Const (Value.Bool b)) :: rest ->
      if b = polarity then walk acc rest (* tautological guard: discharged *)
      else None (* unreachable act: pruned *)
    | ((polarity, g) as guard) :: rest -> begin
      match prove g with
      | Some b -> if b = polarity then walk acc rest else None
      | None -> walk (guard :: acc) rest
    end
  in
  Option.map (fun gs -> (List.sort_uniq compare gs, clauses)) (walk [] guards)

let guarded_effects ?prove (p : Plan.t) :
    ((bool * Expr.t) list * Core_ir.effect_clause list) list =
  List.sort compare (List.filter_map (normalize_guarded ?prove) (Plan.guarded_acts p))

let validate_rewrite ~(script : string) ?(pos = Ast.no_pos) ?prove ~(original : Plan.t)
    ~(optimized : Plan.t) () : Diagnostic.t list =
  let before = guarded_effects ?prove original and after = guarded_effects ?prove optimized in
  if before = after then []
  else begin
    let count = List.length in
    [
      Rules.diag ~pos ~context:script ~rule:"V002"
        "rewrite changed the guarded effect structure: %d reachable act(s) before, %d \
         after — the optimized plan is not ⊕-equivalent to the translation"
        (count before) (count after);
    ]
  end

(* ------------------------------------------------------------------ *)
(* V003: lowering ⊕-equivalence *)

(* [Loop_ir.Lower] splits every [Act]'s clause list —
   self/key clauses fuse into passes, area clauses become batch ops — so
   the comparison runs at *clause* granularity: each (guard set, clause)
   pair of the plan must survive into the loop program and vice versa.
   Clause-multiset equality under ⊕-commutativity implies the compiled
   kernel contributes exactly the plan's effects. *)
let clause_effects ?prove (gas : (Plan.guard list * Core_ir.effect_clause list) list) :
    ((bool * Expr.t) list * Core_ir.effect_clause) list =
  List.sort compare
    (List.concat_map
       (fun ga ->
         match normalize_guarded ?prove ga with
         | None -> []
         | Some (gs, clauses) -> List.map (fun c -> (gs, c)) clauses)
       gas)

let validate_lowering ~(script : string) ?(pos = Ast.no_pos) ?prove (optimized : Plan.t) :
    Diagnostic.t list =
  let lowered = Loop_ir.Lower.lower optimized in
  let want = clause_effects ?prove (Plan.guarded_acts optimized) in
  let got =
    clause_effects ?prove (List.map (fun (g, c) -> (g, [ c ])) (Loop_ir.guarded_clauses lowered))
  in
  if want = got then []
  else
    [
      Rules.diag ~pos ~context:script ~rule:"V003"
        "lowering changed the guarded effect structure: %d clause(s) in the plan, %d in the \
         loop program — the fused kernel is not ⊕-equivalent to its source plan"
        (List.length want) (List.length got);
    ]

(* ------------------------------------------------------------------ *)
(* Whole-program validation *)

let validate_program ?(optimize = true) ?(pos_of : string -> Ast.pos = fun _ -> Ast.no_pos)
    ?(prove : string -> Expr.t -> bool option = fun _ _ -> None) (prog : Core_ir.program) :
    Diagnostic.t list =
  let schema = prog.Core_ir.schema in
  let aggs = prog.Core_ir.aggregates in
  List.concat_map
    (fun (s : Core_ir.script) ->
      let name = s.Core_ir.name in
      let pos = pos_of name in
      let prove = prove name in
      let original = Plan.of_core schema s.Core_ir.body in
      let optimized = if optimize then Rewrite.optimize ~prove ~aggs original else original in
      validate_shape ~schema ~aggs ~script:name ~pos optimized
      @ validate_rewrite ~script:name ~pos ~prove ~original ~optimized ()
      @ validate_lowering ~script:name ~pos ~prove optimized)
    prog.Core_ir.scripts
