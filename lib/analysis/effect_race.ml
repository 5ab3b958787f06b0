(* Effect-commutativity race detection (rules R001-R004).

   The engine's determinism argument (Section 4.2 / 5.1) is: every effect
   contribution combines through the per-attribute ⊕, which is associative
   and commutative, so the tick's outcome is independent of evaluation
   order.
   That argument has a static precondition nothing enforced until now —
   scripts must only write attributes that *have* a ⊕ (non-const tags),
   and reads must not assume same-tick visibility of effects.  This pass
   computes per-script read/write attribute sets over the closed core IR
   and flags the violations:

   - R001: an effect updates a const-tagged attribute.  Const is exactly
     "no combination rule": the resolver rejects this for SGL source, but
     programs assembled through the library API reach the executor
     unchecked.
   - R002: a const-tagged attribute is writable from multiple units — a
     key/all target (any unit can hit any row) or several distinct write
     sites.  The surviving value would depend on evaluation order (group
     order, kernel fusion); this is the write-write race the ⊕ tags exist
     to prevent.
   - R003: a script reads an effect attribute some script writes in the
     same tick.  Decision-phase reads observe the pre-tick snapshot, so
     the value is well-defined but one tick stale — a correctness hazard
     game designers trip over.
   - R004: an effect attribute is written but never read — neither by any
     script nor by the post-processing/movement read set.  The
     contribution is computed, combined, and discarded every tick. *)

open Sgl_relalg
open Sgl_lang

type target_kind = K_self | K_key | K_all

let target_kind_name = function
  | K_self -> "self"
  | K_key -> "key"
  | K_all -> "all"

type write = {
  attr : int;
  target : target_kind;
}

type summary = {
  script : string;
  reads : int list; (* schema attributes read (via u or e), sorted *)
  writes : write list; (* effect-clause updates, in body order *)
}

(* Schema attributes an expression reads: u-slots below the schema arity
   (higher slots are let registers) plus every e-slot. *)
let expr_reads ~(arity : int) (e : Expr.t) : int list =
  List.filter (fun s -> s < arity) (Expr.u_slots e) @ Expr.e_slots e

let agg_reads ~arity (agg : Aggregate.t) : int list =
  let kind_exprs = function
    | Aggregate.Count -> []
    | Aggregate.Sum e | Aggregate.Avg e | Aggregate.Std_dev e | Aggregate.Min_agg e
    | Aggregate.Max_agg e ->
      [ e ]
    | Aggregate.Arg_min { objective; result } | Aggregate.Arg_max { objective; result } ->
      [ objective; result ]
    | Aggregate.Nearest { ex; ey; ux; uy; result } -> [ ex; ey; ux; uy; result ]
  in
  let exprs =
    List.concat_map kind_exprs agg.Aggregate.kinds
    @ Predicate.conjuncts agg.Aggregate.where_
    @ Option.to_list agg.Aggregate.default
  in
  List.concat_map (expr_reads ~arity) exprs

let summarize_script (prog : Core_ir.program) (s : Core_ir.script) : summary =
  let arity = Schema.arity prog.Core_ir.schema in
  let reads = ref [] and writes = ref [] in
  let read e = reads := expr_reads ~arity e @ !reads in
  let rec go = function
    | Core_ir.Skip -> ()
    | Core_ir.Let (e, k) ->
      read e;
      go k
    | Core_ir.Let_agg (i, k) ->
      if i >= 0 && i < Array.length prog.Core_ir.aggregates then
        reads := agg_reads ~arity prog.Core_ir.aggregates.(i) @ !reads;
      go k
    | Core_ir.Seq (a, b) ->
      go a;
      go b
    | Core_ir.If (c, a, b) ->
      read c;
      go a;
      go b
    | Core_ir.Effects clauses ->
      List.iter
        (fun (c : Core_ir.effect_clause) ->
          let target =
            match c.Core_ir.target with
            | Core_ir.Self -> K_self
            | Core_ir.Key e ->
              read e;
              K_key
            | Core_ir.All p ->
              List.iter read (Predicate.conjuncts p);
              K_all
          in
          List.iter
            (fun (attr, e) ->
              read e;
              writes := { attr; target } :: !writes)
            c.Core_ir.updates)
        clauses
  in
  go s.Core_ir.body;
  {
    script = s.Core_ir.name;
    reads = List.sort_uniq compare !reads;
    writes = List.rev !writes;
  }

let summarize (prog : Core_ir.program) : summary list =
  List.map (summarize_script prog) prog.Core_ir.scripts

(* ------------------------------------------------------------------ *)
(* Rules *)

(* [pos_of name] recovers the source position of a declaration when the
   program came from SGL text; API-assembled programs analyze at
   [Ast.no_pos]. *)
let check ?(post_reads : int list = []) ?(pos_of : string -> Ast.pos = fun _ -> Ast.no_pos)
    (prog : Core_ir.program) : Diagnostic.t list =
  let schema = prog.Core_ir.schema in
  let summaries = summarize prog in
  let out = ref [] in
  let emit d = out := d :: !out in
  let name_of a = Schema.name_at schema a in
  (* R001 + R002: const-tagged write sites. *)
  let const_sites = Hashtbl.create 8 in
  List.iter
    (fun s ->
      List.iter
        (fun w ->
          if Schema.tag_at schema w.attr = Schema.Const then begin
            Hashtbl.replace const_sites w.attr
              ((s.script, w.target) :: Option.value ~default:[] (Hashtbl.find_opt const_sites w.attr));
            emit
              (Rules.diag ~pos:(pos_of s.script) ~context:s.script ~rule:"R001"
                 "effect writes const-tagged attribute %S (target %s): const has no \
                  combination rule, the contribution cannot merge through ⊕"
                 (name_of w.attr) (target_kind_name w.target))
          end)
        s.writes)
    summaries;
  Hashtbl.iter
    (fun attr sites ->
      let sites = List.rev sites in
      let multi_unit = List.exists (fun (_, t) -> t <> K_self) sites in
      if multi_unit || List.length sites > 1 then begin
        let script, _ = List.hd sites in
        emit
          (Rules.diag ~pos:(pos_of script) ~context:script ~rule:"R002"
             "const-tagged attribute %S is writable from multiple units (%s): without a \
              commutative ⊕ the surviving value depends on evaluation order"
             (name_of attr)
             (String.concat ", "
                (List.map (fun (s, t) -> Fmt.str "%s/%s" s (target_kind_name t)) sites)))
      end)
    const_sites;
  (* R003: same-tick reads of pending effects. *)
  let written_by attr =
    List.filter_map
      (fun s -> if List.exists (fun w -> w.attr = attr) s.writes then Some s.script else None)
      summaries
  in
  let effect_attrs = Schema.effect_indices schema in
  List.iter
    (fun s ->
      List.iter
        (fun attr ->
          if List.mem attr s.reads then begin
            match written_by attr with
            | [] -> ()
            | writers ->
              emit
                (Rules.diag ~pos:(pos_of s.script) ~context:s.script ~rule:"R003"
                   "script reads effect attribute %S which is written in the same tick \
                    (by %s); the read observes the pre-tick value"
                   (name_of attr) (String.concat ", " writers))
          end)
        effect_attrs)
    summaries;
  (* R004: effect writes nobody consumes. *)
  let all_reads =
    List.sort_uniq compare (post_reads @ List.concat_map (fun s -> s.reads) summaries)
  in
  let dead = Hashtbl.create 8 in
  List.iter
    (fun s ->
      List.iter
        (fun w ->
          if
            Schema.tag_at schema w.attr <> Schema.Const
            && (not (List.mem w.attr all_reads))
            && not (Hashtbl.mem dead (s.script, w.attr))
          then begin
            Hashtbl.replace dead (s.script, w.attr) ();
            emit
              (Rules.diag ~pos:(pos_of s.script) ~context:s.script ~rule:"R004"
                 "effect on %S is dead: no script reads it and the post-processing \
                  query ignores it"
                 (name_of w.attr))
          end)
        s.writes)
    summaries;
  List.rev !out
