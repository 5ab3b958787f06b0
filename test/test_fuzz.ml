(* Whole-pipeline fuzzing: generate random well-typed SGL programs, then
   check that

   1. the typechecker accepts them and the pretty-printer round-trips,
   2. the reference interpreter, the naive set-at-a-time executor, the
      indexed executor (shared and unshared trees), and the unoptimized
      plans all compute the *same* effects on random integer-lattice
      armies.

   The generators deliberately produce every language feature: all
   aggregate kinds, defaults, u-dependent residuals (forcing enumeration),
   constant and per-unit ranges (sweep vs fallback), self / key / all
   effect targets, e-dependent area updates (forcing the naive AoE path),
   Random in effects, nested conditionals, and helper-script performs. *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt
open Sgl_util

let schema () = Test_lang.schema ()

(* ------------------------------------------------------------------ *)
(* Generators *)

open QCheck.Gen

let pos = Ast.no_pos

(* a numeric term over the unit record and the bound variables *)
let rec gen_num_term (vars : string list) depth : Ast.term t =
  if depth = 0 then
    oneof
      [
        map (fun i -> Ast.T_int i) (int_range (-5) 5);
        map (fun f -> Ast.T_float (float_of_int f)) (int_range (-5) 5);
        oneofl
          [
            Ast.T_dot (Ast.T_var ("u", pos), "posx", pos);
            Ast.T_dot (Ast.T_var ("u", pos), "posy", pos);
            Ast.T_dot (Ast.T_var ("u", pos), "health", pos);
            Ast.T_dot (Ast.T_var ("u", pos), "morale", pos);
          ];
      ]
  else
    frequency
      [
        (2, gen_num_term vars 0);
        ( 2,
          let* op = oneofl [ Expr.Add; Expr.Sub; Expr.Mul ] in
          let* a = gen_num_term vars (depth - 1) in
          let* b = gen_num_term vars (depth - 1) in
          return (Ast.T_binop (op, a, b)) );
        ( 1,
          let* a = gen_num_term vars (depth - 1) in
          return (Ast.T_call ("abs", [ a ], pos)) );
        ( 1,
          let* a = gen_num_term vars (depth - 1) in
          let* b = gen_num_term vars (depth - 1) in
          return (Ast.T_call ("max", [ a; b ], pos)) );
        ( 1,
          match List.filter (fun v -> String.length v > 4 && String.sub v 0 4 = "num_") vars with
          | [] -> gen_num_term vars 0
          | nums -> map (fun v -> Ast.T_var (v, pos)) (oneofl nums) );
      ]

let gen_condition (vars : string list) depth : Ast.term t =
  let* op = oneofl [ Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Eq; Expr.Ne ] in
  let* a = gen_num_term vars depth in
  let* b = gen_num_term vars depth in
  return (Ast.T_cmp (op, a, b))

(* conjuncts over (u, e) for aggregate bodies: boxes, categorical tests,
   data filters, and u-dependent residuals *)
let gen_agg_where : Ast.term option t =
  let e field = Ast.T_dot (Ast.T_var ("e", pos), field, pos) in
  let u field = Ast.T_dot (Ast.T_var ("u", pos), field, pos) in
  let box range =
    Ast.T_and
      ( Ast.T_and
          ( Ast.T_cmp (Expr.Ge, e "posx", Ast.T_binop (Expr.Sub, u "posx", range)),
            Ast.T_cmp (Expr.Le, e "posx", Ast.T_binop (Expr.Add, u "posx", range)) ),
        Ast.T_and
          ( Ast.T_cmp (Expr.Ge, e "posy", Ast.T_binop (Expr.Sub, u "posy", range)),
            Ast.T_cmp (Expr.Le, e "posy", Ast.T_binop (Expr.Add, u "posy", range)) ) )
  in
  let* conjuncts =
    flatten_l
      [
        (* box: none / constant range (sweep-able) / per-unit range *)
        oneofl
          [ []; [ box (Ast.T_float 8.) ]; [ box (Ast.T_float 15.) ]; [ box (u "range") ] ];
        (* categorical *)
        oneofl
          [
            [];
            [ Ast.T_cmp (Expr.Ne, e "player", u "player") ];
            [ Ast.T_cmp (Expr.Eq, e "player", u "player") ];
            [ Ast.T_cmp (Expr.Eq, e "morale", Ast.T_int 1) ];
          ];
        (* data filter (e only) *)
        oneofl [ []; [ Ast.T_cmp (Expr.Gt, e "health", Ast.T_int 40) ] ];
        (* u-dependent residual: forces the enumeration path *)
        oneofl [ []; []; [ Ast.T_cmp (Expr.Gt, e "health", u "health") ] ];
      ]
  in
  match List.concat conjuncts with
  | [] -> return None
  | c :: rest -> return (Some (List.fold_left (fun acc x -> Ast.T_and (acc, x)) c rest))

type agg_sig = { aname : string; result : [ `Num | `Vec ] }

let gen_aggregate (i : int) : (Ast.decl * agg_sig) t =
  let e field = Ast.T_dot (Ast.T_var ("e", pos), field, pos) in
  let u field = Ast.T_dot (Ast.T_var ("u", pos), field, pos) in
  let name = Printf.sprintf "Agg%d" i in
  let* where_ = gen_agg_where in
  let* choice = int_range 0 7 in
  let components, default, result =
    match choice with
    | 0 -> ([ Ast.G_count ], None, `Num)
    | 1 -> ([ Ast.G_sum (e "health") ], None, `Num)
    | 2 -> ([ Ast.G_avg (e "posx") ], Some (u "posx"), `Num)
    | 3 -> ([ Ast.G_stddev (e "posy") ], Some (Ast.T_float 0.), `Num)
    | 4 -> ([ Ast.G_min (e "health") ], Some (Ast.T_int 0), `Num)
    | 5 -> ([ Ast.G_argmin (e "health", e "key") ], Some (Ast.T_int (-1)), `Num)
    | 6 ->
      ( [ Ast.G_nearest (e "posx", e "posy", u "posx", u "posy", e "key") ],
        Some (Ast.T_int (-1)),
        `Num )
    | _ ->
      ( [ Ast.G_avg (e "posx"); Ast.G_avg (e "posy") ],
        Some (Ast.T_vec (u "posx", u "posy")),
        `Vec )
  in
  return
    ( Ast.D_aggregate { name; params = [ "u" ]; components; where_; default; pos },
      { aname = name; result } )

(* Action declarations exercising all three effect targets. *)
let gen_action (i : int) : (Ast.decl * [ `Plain | `Keyed ]) t =
  let e field = Ast.T_dot (Ast.T_var ("e", pos), field, pos) in
  let u field = Ast.T_dot (Ast.T_var ("u", pos), field, pos) in
  let name = Printf.sprintf "Act%d" i in
  let* choice = int_range 0 4 in
  let decl, kind =
    match choice with
    | 0 ->
      (* move by a u-derived vector *)
      ( Ast.D_action
          {
            name;
            params = [ "u" ];
            clauses =
              [
                {
                  Ast.target = Ast.E_self;
                  updates =
                    [
                      ("movevect_x", Ast.T_binop (Expr.Sub, u "posx", Ast.T_int 1));
                      ("movevect_y", Ast.T_int 1);
                    ];
                };
              ];
            pos;
          },
        `Plain )
    | 1 ->
      (* randomized strike on a chosen key, damage reads the target *)
      ( Ast.D_action
          {
            name;
            params = [ "u"; "k" ];
            clauses =
              [
                {
                  Ast.target = Ast.E_key (Ast.T_var ("k", pos));
                  updates =
                    [
                      ( "damage",
                        Ast.T_binop
                          ( Expr.Add,
                            Ast.T_binop
                              (Expr.Mod, Ast.T_call ("random", [ Ast.T_int 1 ], pos), Ast.T_int 5),
                            e "morale" ) );
                    ];
                };
                { Ast.target = Ast.E_self; updates = [ ("weaponused", Ast.T_int 1) ] };
              ];
            pos;
          },
        `Keyed )
    | 2 ->
      (* indexable aura: constant contribution, sum + max attrs *)
      ( Ast.D_action
          {
            name;
            params = [ "u" ];
            clauses =
              [
                {
                  Ast.target =
                    Ast.E_all
                      (Ast.T_and
                         ( Ast.T_cmp (Expr.Eq, e "player", u "player"),
                           Ast.T_and
                             ( Ast.T_and
                                 ( Ast.T_cmp
                                     (Expr.Ge, e "posx", Ast.T_binop (Expr.Sub, u "posx", Ast.T_float 6.)),
                                   Ast.T_cmp
                                     (Expr.Le, e "posx", Ast.T_binop (Expr.Add, u "posx", Ast.T_float 6.)) ),
                               Ast.T_and
                                 ( Ast.T_cmp
                                     (Expr.Ge, e "posy", Ast.T_binop (Expr.Sub, u "posy", Ast.T_float 6.)),
                                   Ast.T_cmp
                                     (Expr.Le, e "posy", Ast.T_binop (Expr.Add, u "posy", Ast.T_float 6.)) ) ) ));
                  updates = [ ("inaura", Ast.T_int 7); ("damage", Ast.T_int 2) ];
                };
              ];
            pos;
          },
        `Plain )
    | 3 ->
      (* e-dependent area update: must take the pairwise fallback *)
      ( Ast.D_action
          {
            name;
            params = [ "u" ];
            clauses =
              [
                {
                  Ast.target = Ast.E_all (Ast.T_cmp (Expr.Ne, e "player", u "player"));
                  updates = [ ("damage", Ast.T_binop (Expr.Mod, e "key", Ast.T_int 3)) ];
                };
              ];
            pos;
          },
        `Plain )
    | _ ->
      (* u-derived self effect with randomness *)
      ( Ast.D_action
          {
            name;
            params = [ "u" ];
            clauses =
              [
                {
                  Ast.target = Ast.E_self;
                  updates =
                    [
                      ( "inaura",
                        Ast.T_binop
                          (Expr.Mod, Ast.T_call ("random", [ Ast.T_int 2 ], pos), Ast.T_int 4) );
                    ];
                };
              ];
            pos;
          },
        `Plain )
  in
  return (decl, kind)

(* Script bodies: lets binding aggregates and numeric terms, conditionals
   (possibly with aggregate calls in the condition, exercising Normalize),
   sequences and performs. *)
let gen_script ~(aggs : agg_sig list) ~(actions : (string * [ `Plain | `Keyed ]) list) :
    Ast.action t =
  let rec go vars depth =
    let leafs =
      let perform =
        let* name, kind = oneofl actions in
        match kind with
        | `Plain -> return (Ast.A_perform (name, [ Ast.T_var ("u", pos) ], pos))
        | `Keyed ->
          let keys =
            List.filter (fun v -> String.length v > 4 && String.sub v 0 4 = "num_") vars
          in
          let* key_term =
            if keys = [] then return (Ast.T_int 0) else map (fun v -> Ast.T_var (v, pos)) (oneofl keys)
          in
          return (Ast.A_perform (name, [ Ast.T_var ("u", pos); key_term ], pos))
      in
      [ (3, perform); (1, return Ast.A_skip) ]
    in
    if depth = 0 then frequency leafs
    else
      frequency
        (leafs
        @ [
            ( 3,
              (* let over an aggregate (num or vec) *)
              let* a = oneofl aggs in
              let v =
                (match a.result with `Num -> "num_" | `Vec -> "vec_") ^ a.aname
                ^ string_of_int depth
              in
              if List.mem v vars then frequency leafs
              else begin
                let* body = go (v :: vars) (depth - 1) in
                return
                  (Ast.A_let (v, Ast.T_call (a.aname, [ Ast.T_var ("u", pos) ], pos), body))
              end );
            ( 2,
              let num_aggs = List.filter (fun a -> a.result = `Num) aggs in
              let agg_cond =
                (* aggregate call in the condition: Normalize hoists *)
                let* a = oneofl num_aggs in
                let* threshold = int_range 0 5 in
                return
                  (Ast.T_cmp
                     ( Expr.Gt,
                       Ast.T_call (a.aname, [ Ast.T_var ("u", pos) ], pos),
                       Ast.T_int threshold ))
              in
              let* cond =
                frequency
                  ((3, gen_condition vars 1) :: (if num_aggs = [] then [] else [ (1, agg_cond) ]))
              in
              let* then_a = go vars (depth - 1) in
              let* else_a = go vars (depth - 1) in
              return (Ast.A_if (cond, then_a, else_a)) );
            ( 1,
              let* a = go vars (depth - 1) in
              let* b = go vars (depth - 1) in
              return (Ast.A_seq (a, b)) );
          ])
  in
  go [] 3

let gen_program : Ast.program t =
  let* n_aggs = int_range 1 4 in
  let* aggs = flatten_l (List.init n_aggs gen_aggregate) in
  let* n_actions = int_range 1 3 in
  let* actions = flatten_l (List.init n_actions gen_action) in
  let agg_sigs = List.map snd aggs in
  let action_sigs =
    List.map (fun (d, kind) -> (Ast.decl_name d, kind)) actions
  in
  let* body = gen_script ~aggs:agg_sigs ~actions:action_sigs in
  return
    (List.map fst aggs @ List.map fst actions
    @ [ Ast.D_script { name = "main"; params = [ "u" ]; body; pos } ])

let arb_program =
  QCheck.make ~print:(fun p -> Pretty.program_to_string p) gen_program

(* ------------------------------------------------------------------ *)
(* Properties *)

let no_rand_key ~key i = Prng.script_random (Prng.create 123) ~tick:0 ~key i

let pipeline_accepts =
  QCheck.Test.make ~name:"fuzz: generated programs typecheck and round-trip" ~count:60
    arb_program
    (fun prog ->
      let s = schema () in
      Typecheck.check ~schema:s prog;
      (* concrete-syntax round trip *)
      let printed = Pretty.program_to_string prog in
      let reparsed = Parser.parse_string printed in
      Pretty.strip_program (Pretty.canon_program reparsed)
      = Pretty.strip_program (Pretty.canon_program prog))

let four_way_equivalence =
  QCheck.Test.make ~name:"fuzz: interp = naive = indexed = unshared = unoptimized" ~count:40
    (QCheck.pair arb_program (QCheck.int_range 0 1000))
    (fun (ast, seed) ->
      let s = schema () in
      let prog = Compile.compile_ast ~schema:s ast in
      let units = Test_qopt.random_units s ~n:35 ~seed:(seed + 1) in
      let prng = Prng.create (seed + 5000) in
      let rand_for_key ~key i = Prng.script_random prng ~tick:0 ~key i in
      let rand_for u i = rand_for_key ~key:(Tuple.key s u) i in
      let reference =
        Test_qopt.normalize_effects s
          (Combine.combine
             (Interp.run_script ~prog
                ~script:(Option.get (Core_ir.find_script prog "main"))
                ~units ~rand_for))
      in
      let exec ~optimize ev =
        let compiled = Exec.compile ~optimize prog in
        let groups =
          [ { Exec.script = "main"; members = Array.init (Array.length units) (fun i -> i) } ]
        in
        Test_qopt.normalize_effects s
          (Combine.Acc.to_relation
             (Exec.run_tick compiled ~evaluator:ev ~units ~groups ~rand_for:rand_for_key))
      in
      let naive = exec ~optimize:true (Eval.naive ~schema:s ~aggregates:prog.Core_ir.aggregates) in
      let indexed =
        exec ~optimize:true (Eval.indexed ~schema:s ~aggregates:prog.Core_ir.aggregates ())
      in
      let unshared =
        exec ~optimize:true
          (Eval.indexed ~share:false ~schema:s ~aggregates:prog.Core_ir.aggregates ())
      in
      let unoptimized =
        exec ~optimize:false (Eval.indexed ~schema:s ~aggregates:prog.Core_ir.aggregates ())
      in
      Relation.equal_as_multiset reference naive
      && Relation.equal_as_multiset reference indexed
      && Relation.equal_as_multiset reference unshared
      && Relation.equal_as_multiset reference unoptimized)

(* Full-simulation differential fuzzing: random scripts driven for 20
   ticks under [Naive] and under [Indexed] from the same seed must leave
   identical unit states.  Random movement, deaths and key-targeted
   effects all flow through the index cache; on failure QCheck prints the
   generated script. *)
let indexed_sim_equivalence =
  QCheck.Test.make ~name:"fuzz: 20-tick simulation, naive = indexed" ~count:25
    (QCheck.pair arb_program (QCheck.int_range 0 1000))
    (fun (ast, seed) ->
      let s = schema () in
      let prog = Compile.compile_ast ~schema:s ast in
      let units = Test_qopt.random_units s ~n:30 ~seed:(seed + 1) in
      let config =
        {
          Sgl_engine.Simulation.prog;
          script_of = (fun _ -> Some "main");
          postprocess =
            Sgl_engine.Postprocess.make ~schema:s ~updates:[]
              ~remove_when:(Expr.Const (Value.Bool false));
          movement =
            Some
              {
                Sgl_engine.Movement.posx = Schema.find s "posx";
                posy = Schema.find s "posy";
                mvx = Schema.find s "movevect_x";
                mvy = Schema.find s "movevect_y";
                speed = 3.;
                speed_attr = None;
                width = 64;
                height = 64;
              };
          death = Sgl_engine.Simulation.Remove;
          seed = seed + 9000;
          optimize = true;
        }
      in
      let final evaluator =
        let sim = Sgl_engine.Simulation.create config ~evaluator ~units in
        Sgl_engine.Simulation.run sim ~ticks:20;
        let out = Array.map Tuple.copy (Sgl_engine.Simulation.units sim) in
        Array.sort (fun a b -> compare (Tuple.key s a) (Tuple.key s b)) out;
        out
      in
      let naive = final Sgl_engine.Simulation.Naive in
      let indexed = final Sgl_engine.Simulation.Indexed in
      compare naive indexed = 0)

let _ = no_rand_key

let suite =
  [
    ( "fuzz.pipeline",
      [ QCheck_alcotest.to_alcotest pipeline_accepts;
        QCheck_alcotest.to_alcotest four_way_equivalence;
        QCheck_alcotest.to_alcotest indexed_sim_equivalence ] );
  ]
