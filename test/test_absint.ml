(* Abstract interpretation: domain laws, the qcheck soundness law tying
   concrete evaluation to the inferred intervals, the optimizer oracles
   (prove/fold) together with translation validation, and the
   incremental column digests the commit journal rides on (CRC
   combination law + differential pin). *)

open Sgl_relalg
open Sgl_lang
open Sgl_qopt
open Sgl_analysis
open Sgl_battle

let battle_schema () = Unit_types.schema ()

(* ------------------------------------------------------------------ *)
(* Domain basics *)

let domain_basics () =
  let open Absint in
  let d = join (of_value (Value.Int 1)) (of_value (Value.Int 5)) in
  Alcotest.(check bool) "3 in [1,5]" true (mem (Value.Int 3) d);
  Alcotest.(check bool) "0 not in [1,5]" false (mem (Value.Int 0) d);
  Alcotest.(check bool) "float 3. not in the int join" false (mem (Value.Float 3.) d);
  Alcotest.(check bool) "[1,5] has no singleton" true (singleton d = None);
  (match singleton (of_value (Value.Float 2.5)) with
  | Some (Value.Float f) -> Alcotest.(check (float 0.)) "float singleton" 2.5 f
  | _ -> Alcotest.fail "of_value (Float 2.5) should be a singleton");
  Alcotest.(check bool) "bot is bot" true (is_bot bot);
  Alcotest.(check bool) "nothing in bot" false (mem (Value.Int 0) bot);
  Alcotest.(check bool) "everything in top" true
    (List.for_all
       (fun v -> mem v top)
       [ Value.Int 42; Value.Float nan; Value.Bool false; Value.Vec (Sgl_util.Vec2.make 1. 2.) ]);
  match num_bounds d with
  | Some (lo, hi) ->
    Alcotest.(check (float 0.)) "num lo" 1. lo;
    Alcotest.(check (float 0.)) "num hi" 5. hi
  | None -> Alcotest.fail "[1,5] has numeric bounds"

(* [Value.div] scales a vector by the reciprocal: 9. *. (1. /. 7.) and
   9. /. 7. differ in the last place, and the inferred interval must hold
   the value evaluation gives. *)
let vec_div_rounding () =
  let f x = Expr.Const (Value.Float x) in
  let e = Expr.Binop (Expr.Div, Expr.VecOf (f 9., f (-4.)), f 7.) in
  let d, _ = Absint.eval { Absint.u = (fun _ -> Absint.top); e = None } e in
  let v = Expr.eval { Expr.u = [||]; e = None; rand = (fun _ -> 0) } e in
  Alcotest.(check bool) "9/7 scaled by the reciprocal is in the interval" true (Absint.mem v d)

(* ------------------------------------------------------------------ *)
(* Soundness law: wherever concrete evaluation succeeds its value is a
   member of the abstract result, and an abstract "no error" verdict
   means concrete evaluation cannot raise.  Exercised over random
   expressions (type-sloppy on purpose: ill-typed subterms must be
   anticipated by the may-raise flag) against stores drawn from the
   abstract store's intervals. *)

(* Slot intervals the generator draws stores from. *)
let abstract_store =
  let open Absint in
  [|
    join (of_value (Value.Int (-10))) (of_value (Value.Int 10));
    join (of_value (Value.Float (-4.))) (of_value (Value.Float 4.));
    join (of_value (Value.Bool false)) (of_value (Value.Bool true));
    join (of_value (Value.Int 0)) (of_value (Value.Int 20));
  |]

let gen_store =
  let open QCheck.Gen in
  map
    (fun (((i0, f1), b2), i3) ->
      [| Value.Int i0; Value.Float f1; Value.Bool b2; Value.Int i3 |])
    (pair (pair (pair (int_range (-10) 10) (float_range (-4.) 4.)) bool) (int_range 0 20))

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Expr.Const (Value.Int i)) (int_range (-20) 20);
        map (fun f -> Expr.Const (Value.Float f)) (float_range (-8.) 8.);
        map (fun b -> Expr.Const (Value.Bool b)) bool;
        map (fun i -> Expr.UAttr i) (int_range 0 3);
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (2, leaf);
               ( 3,
                 map2
                   (fun op (a, b) -> Expr.Binop (op, a, b))
                   (oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod ])
                   (pair sub sub) );
               ( 2,
                 map2
                   (fun op (a, b) -> Expr.Cmp (op, a, b))
                   (oneofl [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ])
                   (pair sub sub) );
               (1, map2 (fun a b -> Expr.And (a, b)) sub sub);
               (1, map2 (fun a b -> Expr.Or (a, b)) sub sub);
               (1, map (fun a -> Expr.Not a) sub);
               (1, map (fun a -> Expr.Neg a) sub);
               (1, map (fun a -> Expr.Abs a) sub);
               (1, map (fun a -> Expr.Sqrt a) sub);
               (1, map2 (fun a b -> Expr.MinOf (a, b)) sub sub);
               (1, map2 (fun a b -> Expr.MaxOf (a, b)) sub sub);
               (1, map2 (fun a b -> Expr.VecOf (a, b)) sub sub);
               (1, map (fun a -> Expr.VecX a) sub);
               (1, map (fun a -> Expr.VecY a) sub);
               (1, map (fun a -> Expr.Random a) sub);
             ]))

let eval_soundness =
  QCheck.Test.make ~name:"absint: concrete evaluation lands in the inferred interval"
    ~count:2000
    (QCheck.make
       ~print:(fun (e, u) ->
         Fmt.str "%a over [%a]" Expr.pp e Fmt.(array ~sep:(any "; ") Value.pp) u)
       QCheck.Gen.(pair gen_expr gen_store))
    (fun (e, u) ->
      let actx =
        {
          Absint.u =
            (fun i -> if i >= 0 && i < Array.length abstract_store then abstract_store.(i) else Absint.top);
          e = None;
        }
      in
      let d, may_err = Absint.eval actx e in
      let concrete =
        try Some (Expr.eval { Expr.u; e = None; rand = (fun i -> (i * 2654435761) land 0xFFFFF) } e)
        with _ -> None
      in
      match concrete with
      | Some v -> Absint.mem v d
      | None -> may_err)

(* ------------------------------------------------------------------ *)
(* The optimizer oracles: prove discharges interval-decided guards and
   the guard-discharging rewrite still passes translation validation
   with the same prover; fold pins interval singletons to constants. *)

let oracle_source =
  {|
action Advance(u) {
  on self { movevect_x <- 1.0; movevect_y <- 0.0; }
}

action Retreat(u) {
  on self { movevect_x <- 0.0 - 1.0; movevect_y <- 0.0; }
}

script cautious(u) {
  let roll = random(1) mod 20;
  if roll >= 0 then {
    perform Advance(u);
  } else {
    perform Retreat(u);
  }
}
|}

let oracle_prove_fold () =
  let schema = battle_schema () in
  let prog = Compile.compile ~consts:Scripts.constants ~schema oracle_source in
  let oracle = Absint.make_oracle ~trust_ranges:true prog in
  (* prove: roll is bound at the first register slot; [0,19] >= 0 *)
  let guard = Expr.Cmp (Expr.Ge, Expr.UAttr (Schema.arity schema), Expr.Const (Value.Int 0)) in
  Alcotest.(check bool) "prove decides the subsumed guard" true
    (oracle.Absint.prove "cautious" guard = Some true);
  Alcotest.(check bool) "prove stays silent on undecided guards" true
    (oracle.Absint.prove "cautious"
       (Expr.Cmp (Expr.Ge, Expr.UAttr (Schema.arity schema), Expr.Const (Value.Int 10)))
    = None);
  (* fold: a mod-1 draw has the singleton interval [0,0] *)
  (match
     oracle.Absint.fold "cautious"
       (Expr.Binop (Expr.Mod, Expr.Random (Expr.Const (Value.Int 1)), Expr.Const (Value.Int 1)))
   with
  | Some (Value.Int 0) -> ()
  | _ -> Alcotest.fail "fold should pin (random(1) mod 1) to 0");
  (* the prover-driven rewrite prunes the guard the structural folder
     cannot, and validates against the original with the same prover *)
  let unopt = Exec.compile ~optimize:false prog in
  let plan =
    match Exec.find_plan unopt "cautious" with
    | Some p -> p
    | None -> Alcotest.fail "no plan for cautious"
  in
  let plain = Rewrite.no_stats () in
  ignore (Rewrite.optimize ~stats:plain ~aggs:prog.Core_ir.aggregates plan);
  Alcotest.(check int) "structural folding alone cannot prune the guard" 0 plain.Rewrite.pruned;
  let stats = Rewrite.no_stats () in
  let opt =
    Rewrite.optimize ~stats ~prove:(oracle.Absint.prove "cautious") ~aggs:prog.Core_ir.aggregates
      plan
  in
  Alcotest.(check bool) "the prover pruned it" true (stats.Rewrite.pruned > 0);
  Alcotest.(check (list string)) "V002 silent with the same prover" []
    (List.map
       (fun (d : Diagnostic.t) -> d.Diagnostic.rule)
       (Plan_check.validate_rewrite ~script:"cautious" ~prove:(oracle.Absint.prove "cautious")
          ~original:plan ~optimized:opt ()));
  (* whole-program validation with the prover threaded through *)
  Alcotest.(check (list string)) "validate_program clean with prover" []
    (List.map
       (fun (d : Diagnostic.t) -> d.Diagnostic.rule)
       (Plan_check.validate_program ~prove:oracle.Absint.prove prog))

(* The untrusting oracle (engine side) must not believe declared ranges:
   schema slots are top, so a guard over an attribute stays undecided. *)
let oracle_untrusted () =
  let schema = battle_schema () in
  let prog = Compile.compile ~consts:Scripts.constants ~schema oracle_source in
  let oracle = Absint.make_oracle prog in
  let health = Schema.find schema "health" in
  Alcotest.(check bool) "untrusted oracle leaves attribute guards open" true
    (oracle.Absint.prove "cautious"
       (Expr.Cmp (Expr.Ge, Expr.UAttr health, Expr.Const (Value.Int 0)))
    = None);
  (* store-independent facts still fold *)
  Alcotest.(check bool) "store-independent singletons still fold" true
    (oracle.Absint.fold "cautious"
       (Expr.Binop (Expr.Mod, Expr.Random (Expr.Const (Value.Int 1)), Expr.Const (Value.Int 1)))
    = Some (Value.Int 0))

(* ------------------------------------------------------------------ *)
(* CRC combination: the identity the columnar digest leans on. *)

let crc_combine () =
  let module C = Sgl_util.Crc32 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Fmt.str "combine %S %S" a b)
        (C.string (a ^ b))
        (C.combine (C.string a) (C.string b) ~len_b:(String.length b)))
    [
      ("", "");
      ("a", "");
      ("", "b");
      ("hello, ", "world");
      (String.make 1000 'x', "tail\x00\xff\x7f");
    ]

let crc_combine_law =
  let module C = Sgl_util.Crc32 in
  QCheck.Test.make ~name:"crc32: combine (crc a) (crc b) = crc (a ^ b)" ~count:500
    QCheck.(pair string string)
    (fun (a, b) ->
      C.combine (C.string a) (C.string b) ~len_b:(String.length b) = C.string (a ^ b))

(* The check value every CRC-32/ISO-HDLC implementation publishes. *)
let crc_known_answer () =
  let module C = Sgl_util.Crc32 in
  Alcotest.(check string) "crc32 \"123456789\"" "cbf43926" (C.to_hex (C.string "123456789"));
  Alcotest.(check string) "update_bytes from the middle" "cbf43926"
    (C.to_hex (C.update_bytes C.empty (Bytes.of_string "xx123456789yy") ~pos:2 ~len:9))

(* Bit-at-a-time CRC-32 straight from the polynomial: no table, so it
   shares nothing with the word-at-a-time implementation under test. *)
let crc_reference (crc : int) (s : string) ~(pos : int) ~(len : int) : int =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let crc_slices_law =
  let module C = Sgl_util.Crc32 in
  QCheck.Test.make ~name:"crc32: word-at-a-time update = bytewise reference at every pos/len"
    ~count:150
    QCheck.(pair (string_of_size Gen.(int_range 0 72)) (int_bound 0xFFFFFFF))
    (fun (s, seed) ->
      let crc = (seed * 2654435761) land 0xFFFFFFFF in
      let n = String.length s in
      let ok = ref (C.string s = crc_reference 0 s ~pos:0 ~len:n) in
      for pos = 0 to n do
        for len = 0 to min 40 (n - pos) do
          let want = crc_reference crc s ~pos ~len in
          if C.update crc s ~pos ~len <> want
             || C.update_bytes crc (Bytes.of_string s) ~pos ~len <> want
          then ok := false
        done
      done;
      !ok)

(* The fixed-width feeds fold exactly the bytes a little-endian writer
   emits for the value. *)
let crc_fixed_width_law =
  let module C = Sgl_util.Crc32 in
  let le64 (v : int64) =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    Bytes.to_string b
  in
  let bytes_of crc s = crc_reference crc s ~pos:0 ~len:(String.length s) in
  let prefixed prefix words =
    String.concat "" (List.map (fun w -> String.make 1 (Char.chr prefix) ^ le64 w) words)
  in
  let gen_int = QCheck.Gen.(oneof [ int; oneofl [ min_int; max_int; 0; -1; 1 lsl 32 ] ]) in
  let gen_float =
    QCheck.Gen.(oneof [ float; oneofl [ nan; -0.; infinity; neg_infinity; Float.min_float ] ])
  in
  QCheck.Test.make ~name:"crc32: fixed-width feeds = bytewise reference over their bytes"
    ~count:300
    QCheck.(
      make
        Gen.(
          quad (int_bound 0xFFFFFFF) (int_bound 255)
            (array_size (int_range 0 12) gen_int)
            (array_size (int_range 0 12) gen_float)))
    (fun (crc, prefix, ints, floats) ->
      let int_words = List.map Int64.of_int (Array.to_list ints) in
      let float_words = List.map Int64.bits_of_float (Array.to_list floats) in
      C.update_byte crc prefix = bytes_of crc (String.make 1 (Char.chr prefix))
      && Array.for_all (fun i -> C.update_int crc i = bytes_of crc (le64 (Int64.of_int i))) ints
      && Array.for_all
           (fun f -> C.update_float crc f = bytes_of crc (le64 (Int64.bits_of_float f)))
           floats
      && C.update_prefixed_ints crc ~prefix ints = bytes_of crc (prefixed prefix int_words)
      && C.update_prefixed_floats crc ~prefix floats = bytes_of crc (prefixed prefix float_words))

(* ------------------------------------------------------------------ *)
(* Incremental column digests: recomputing only the dirty columns must
   always land on the full digest. *)

let mk_unit i =
  [|
    Value.Int i;
    Value.Float (float_of_int i *. 0.5);
    Value.Bool (i mod 2 = 0);
    Value.Vec (Sgl_util.Vec2.make (float_of_int i) 1.0);
  |]

let digest_incremental () =
  let module Codec = Sgl_persist.Codec in
  let units = Array.init 64 mk_unit in
  let cache = Codec.units_digest_cache units in
  Alcotest.(check int) "cache denotes the full digest" (Codec.units_digest units)
    (Codec.digest_of_cache cache);
  Array.iteri
    (fun i u ->
      u.(0) <- Value.Int (i * 7);
      if i mod 3 = 0 then u.(2) <- Value.Bool false)
    units;
  let incr = Codec.units_digest_incremental cache ~dirty:[ 0; 2 ] units in
  Alcotest.(check int) "incremental = full after dirty-column writes" (Codec.units_digest units)
    (Codec.digest_of_cache incr);
  (* a clean column really is skipped: digests react to dirty marks *)
  let stale = Codec.units_digest_incremental cache ~dirty:[ 2 ] units in
  Alcotest.(check bool) "missing a dirty mark is visible" true
    (Codec.digest_of_cache stale <> Codec.units_digest units);
  (* population changes fall back to a full recompute *)
  let fewer = Array.sub units 0 40 in
  let shrunk = Codec.units_digest_incremental incr ~dirty:[] fewer in
  Alcotest.(check int) "shrunk population falls back to full" (Codec.units_digest fewer)
    (Codec.digest_of_cache shrunk)

let digest_incremental_law =
  let module Codec = Sgl_persist.Codec in
  QCheck.Test.make ~name:"codec: incremental column digest = full digest" ~count:300
    QCheck.(triple (int_range 1 80) (small_list (int_range 0 3)) small_int)
    (fun (n, dirty, seed) ->
      let units = Array.init n (fun i -> mk_unit (i + seed)) in
      let cache = Codec.units_digest_cache units in
      Array.iteri
        (fun i u ->
          List.iter (fun j -> u.(j) <- Value.Int (((i + 1) * (j + 3) * (seed + 11)) land 0xFFFF)) dirty)
        units;
      let incr = Codec.units_digest_incremental cache ~dirty units in
      Codec.digest_of_cache incr = Codec.units_digest units)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "absint",
      [
        Alcotest.test_case "domain basics" `Quick domain_basics;
        QCheck_alcotest.to_alcotest eval_soundness;
        Alcotest.test_case "vector division rounds like evaluation" `Quick vec_div_rounding;
        Alcotest.test_case "oracle prove/fold with validation" `Quick oracle_prove_fold;
        Alcotest.test_case "untrusting oracle ignores declared ranges" `Quick oracle_untrusted;
        Alcotest.test_case "crc32 combine identity" `Quick crc_combine;
        QCheck_alcotest.to_alcotest crc_combine_law;
        Alcotest.test_case "crc32 known answer" `Quick crc_known_answer;
        QCheck_alcotest.to_alcotest crc_slices_law;
        QCheck_alcotest.to_alcotest crc_fixed_width_law;
        Alcotest.test_case "incremental column digest" `Quick digest_incremental;
        QCheck_alcotest.to_alcotest digest_incremental_law;
      ] );
  ]
