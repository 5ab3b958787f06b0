(* The read-only query port: one SGL aggregate body, compiled through the
   ordinary pipeline and evaluated against a committed tick snapshot.

   The query text is the body of an aggregate declaration — e.g.
   "count(*) where e.health > 0" or "avg(e.posx) where e.player = 0" —
   wrapped into a one-aggregate, one-script program so the existing
   lexer/parser/typechecker/resolver validate it against the live schema.
   Evaluation runs the naive reference evaluator over the snapshot's unit
   array: a committed tick's array is never mutated afterwards (the next
   tick works on copies and swaps), so the server thread can scan it
   without locks while the tick loop runs.

   Isolation argument: the evaluator only reads tuples; the probe context
   carries a constant-zero rand, and queries mentioning random() are
   rejected up front, so a query can neither perturb simulation state nor
   advance any PRNG — obs-on and obs-off runs stay bit-identical. *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt
open Sgl_util

type snapshot = {
  q_tick : int;
  q_units : Tuple.t array; (* the committed unit array, never mutated *)
}

(* Wrapper names must avoid the "__" prefix (reserved by the
   typechecker); the program is compiled standalone, so they can only
   collide with names inside the query body itself. *)
let wrap (body : string) : string =
  Printf.sprintf
    "aggregate ObsQuery(u) {\n%s\n}\nscript obs_query(u) {\n  let obs_q = ObsQuery(u);\n  skip;\n}\n"
    body

let kind_exprs (k : Aggregate.kind) : Expr.t list =
  match k with
  | Aggregate.Count -> []
  | Sum e | Avg e | Std_dev e | Min_agg e | Max_agg e -> [ e ]
  | Arg_min { objective; result } | Arg_max { objective; result } -> [ objective; result ]
  | Nearest { ex; ey; ux; uy; result } -> [ ex; ey; ux; uy; result ]

let agg_exprs (a : Aggregate.t) : Expr.t list =
  List.concat_map kind_exprs a.Aggregate.kinds
  @ Predicate.conjuncts a.Aggregate.where_
  @ Option.to_list a.Aggregate.default

let correlated (a : Aggregate.t) : bool = List.exists Expr.mentions_u (agg_exprs a)
let draws_random (a : Aggregate.t) : bool = List.exists Expr.mentions_random (agg_exprs a)

let value_json (v : Value.t) : string =
  match v with
  | Value.Int n -> string_of_int n
  | Value.Float f -> Telemetry.json_float f
  | Value.Bool b -> string_of_bool b
  | Value.Vec { Vec2.x; y } ->
    Printf.sprintf "{\"x\": %s, \"y\": %s}" (Telemetry.json_float x) (Telemetry.json_float y)

let run ~(schema : Schema.t) ~(snapshot : snapshot) ?(key : int option) (body : string) :
    (string, string) result =
  match Compile.compile ~schema (wrap body) with
  | exception Compile.Compile_error e -> Error (Compile.error_to_string e)
  | prog -> begin
    match prog.Core_ir.aggregates with
    | [| agg |] ->
      if draws_random agg then Error "random() is not allowed in a read-only query"
      else if Array.length snapshot.q_units = 0 then Error "no committed tick snapshot yet"
      else begin
        let is_correlated = correlated agg in
        let probe =
          if not is_correlated then Ok snapshot.q_units.(0)
          else
            match key with
            | None -> Error "query references u.*: pass &key=<unit key> to pick the probe unit"
            | Some k -> begin
              let slot = Schema.find schema "key" in
              match
                Array.find_opt
                  (fun u -> Value.equal (Tuple.get u slot) (Value.Int k))
                  snapshot.q_units
              with
              | Some u -> Ok u
              | None -> Error (Printf.sprintf "no unit with key %d in the snapshot" k)
            end
        in
        match probe with
        | Error e -> Error e
        | Ok probe -> begin
          let ev = Eval.naive ~schema ~aggregates:[| agg |] in
          ev.Eval.prepare snapshot.q_units;
          match ev.Eval.eval_agg ~agg_id:0 ~rows:[| probe |] ~rands:[| (fun _ -> 0) |] with
          | exception Aggregate.Aggregate_error e -> Error e
          | exception Expr.Eval_error e -> Error e
          | exception Value.Type_error e -> Error e
          | values ->
            Ok
              (Printf.sprintf
                 "{\"tick\": %d, \"units\": %d, \"query\": %s, \"correlated\": %b, \"value\": %s}\n"
                 snapshot.q_tick (Array.length snapshot.q_units) (Telemetry.json_string body)
                 is_correlated (value_json values.(0)))
        end
      end
    | _ -> Error "expected exactly one aggregate expression"
  end
