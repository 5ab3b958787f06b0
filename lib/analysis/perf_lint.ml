(* Performance lints (rules P001-P005).

   The aggregate-level rules are tied to [Agg_plan.analyze] — the same
   classification the indexed evaluator uses — so a lint fires exactly
   when the executor will pay the cost it describes:

   - P001: the instance fell back to [Naive_only] — an O(n) scan per
     probe, O(n²) per tick over the group;
   - P002: an indexable instance kept a probe residual, so the index
     narrows the candidate set but every candidate is filtered per probe;
   - P003: an extremal (min/max/argmin/argmax) component whose window is
     not a constant symmetric box — no sweep-line, the range-tree box is
     walked per probe.

   The AST-level rules catch script text the optimizer will silently
   discard:

   - P004: a let binding never read in its continuation;
   - P005: an if-condition that folds to a constant (literals, consts and
     pure builtins only), leaving one arm dead. *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt

(* ------------------------------------------------------------------ *)
(* Aggregate strategy lints (P001-P003) over the closed program *)

let check_aggregates ?(pos_of : string -> Ast.pos = fun _ -> Ast.no_pos)
    (prog : Core_ir.program) : Diagnostic.t list =
  let schema = prog.Core_ir.schema in
  let out = ref [] in
  Array.iteri
    (fun i (agg : Aggregate.t) ->
      let name = agg.Aggregate.name in
      let pos = pos_of name in
      let emit rule fmt =
        Fmt.kstr (fun m -> out := Rules.diag ~pos ~context:name ~rule "%s" m :: !out) fmt
      in
      match Agg_plan.analyze schema agg with
      | Agg_plan.Uniform -> ()
      | Agg_plan.Naive_only reason ->
        emit "P001" "aggregate instance #%d falls back to an O(n) scan per probe: %s" i reason
      | Agg_plan.Indexed { components; sweep; enumerate; access; _ } ->
        if enumerate then
          emit "P002"
            "aggregate instance #%d keeps %d probe-dependent residual conjunct(s): the \
             index enumerates its box and filters per probe (%s)"
            i
            (List.length access.Agg_plan.probe_residual)
            (Agg_plan.describe schema (Agg_plan.analyze schema agg))
        else if
          sweep = None
          && List.exists
               (function
                 | Agg_plan.C_extremal _ -> true
                 | Agg_plan.C_divisible _ | Agg_plan.C_nearest _ -> false)
               components
        then
          emit "P003"
            "aggregate instance #%d has a %s component without a constant symmetric \
             window: no sweep-line, the range-tree box is walked per probe"
            i
            (String.concat "/"
               (List.filter_map
                  (function
                    | Agg_plan.C_extremal { kind } -> Some (Aggregate.kind_name kind)
                    | Agg_plan.C_divisible _ | Agg_plan.C_nearest _ -> None)
                  components)))
    prog.Core_ir.aggregates;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* AST lints (P004, P005) over the surface program *)

(* Free occurrence of a variable in a term.  The typechecker rejects
   rebinding, so no shadowing discipline is needed on well-typed input. *)
let rec term_mentions (v : string) (t : Ast.term) : bool =
  match t with
  | Ast.T_int _ | Ast.T_float _ | Ast.T_bool _ -> false
  | Ast.T_var (n, _) -> n = v
  | Ast.T_dot (b, _, _) -> term_mentions v b
  | Ast.T_binop (_, a, b) | Ast.T_cmp (_, a, b) | Ast.T_and (a, b) | Ast.T_or (a, b)
  | Ast.T_vec (a, b) ->
    term_mentions v a || term_mentions v b
  | Ast.T_not a | Ast.T_neg a -> term_mentions v a
  | Ast.T_call (_, args, _) -> List.exists (term_mentions v) args

let rec action_mentions (v : string) (a : Ast.action) : bool =
  match a with
  | Ast.A_skip -> false
  | Ast.A_let (_, t, k) -> term_mentions v t || action_mentions v k
  | Ast.A_seq (a, b) -> action_mentions v a || action_mentions v b
  | Ast.A_if (c, a, b) -> term_mentions v c || action_mentions v a || action_mentions v b
  | Ast.A_perform (_, args, _) -> List.exists (term_mentions v) args

(* Pure builtins fold; [random] does not, and any unit/environment access
   or user declaration call keeps the term live. *)
let foldable_builtins = [ "abs"; "sqrt"; "min"; "max"; "norm"; "dist" ]

let rec foldable ~(consts : string -> bool) (t : Ast.term) : bool =
  match t with
  | Ast.T_int _ | Ast.T_float _ | Ast.T_bool _ -> true
  | Ast.T_var (n, _) -> consts n
  | Ast.T_dot (b, _, _) -> foldable ~consts b (* vec component of a foldable vec *)
  | Ast.T_binop (_, a, b) | Ast.T_cmp (_, a, b) | Ast.T_and (a, b) | Ast.T_or (a, b)
  | Ast.T_vec (a, b) ->
    foldable ~consts a && foldable ~consts b
  | Ast.T_not a | Ast.T_neg a -> foldable ~consts a
  | Ast.T_call (n, args, _) ->
    List.mem n foldable_builtins && List.for_all (foldable ~consts) args

let check_ast ?(consts : (string * Value.t) list = []) (prog : Ast.program) : Diagnostic.t list
    =
  let const_names = Hashtbl.create 16 in
  List.iter (fun (n, _) -> Hashtbl.replace const_names n ()) consts;
  List.iter
    (function
      | Ast.D_const (n, _) -> Hashtbl.replace const_names n ()
      | Ast.D_aggregate _ | Ast.D_action _ | Ast.D_script _ -> ())
    prog;
  let is_const n = Hashtbl.mem const_names n in
  let out = ref [] in
  let check_body ~context body =
    let rec go = function
      | Ast.A_skip -> ()
      | Ast.A_let (v, rhs, k) ->
        if not (action_mentions v k) then begin
          let pos =
            match Ast.pos_of_term rhs with
            | p when p = Ast.no_pos -> Ast.pos_of_action k
            | p -> p
          in
          out :=
            Rules.diag ~pos ~context ~rule:"P004"
              "let binding %S is never read; the optimizer drops it as a dead column" v
            :: !out
        end;
        go k
      | Ast.A_seq (a, b) ->
        go a;
        go b
      | Ast.A_if (c, a, b) ->
        if foldable ~consts:is_const c then begin
          let pos =
            match Ast.pos_of_term c with
            | p when p = Ast.no_pos -> Ast.pos_of_action a
            | p -> p
          in
          out :=
            Rules.diag ~pos ~context ~rule:"P005"
              "condition %S folds to a constant: one branch is dead"
              (Pretty.term_to_string c)
            :: !out
        end;
        go a;
        go b
      | Ast.A_perform _ -> ()
    in
    go body
  in
  List.iter
    (function
      | Ast.D_script { name; body; _ } -> check_body ~context:name body
      | Ast.D_const _ | Ast.D_aggregate _ | Ast.D_action _ -> ())
    prog;
  List.rev !out
