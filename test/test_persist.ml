(* Durable simulation state: codec round-trips, checksum/corruption
   pinning, journal tearing, generation fallback, and the recovery
   differential — restore-at-tick-k then run to n must be bit-identical
   to an uninterrupted n-tick run for every evaluator, including under a
   Degrade retry and a quarantine taken before the checkpoint.

   The corruption tests damage real files on purpose: every one must be
   *detected* (Codec.Corrupt or generation fallback), never silently
   loaded.  The differentials reuse the shared helpers in
   [Test_engine]. *)

open Sgl_util
open Sgl_relalg
open Sgl_engine
open Sgl_battle
module Codec = Sgl_persist.Codec
module Checkpoint = Sgl_persist.Checkpoint
module Journal = Sgl_persist.Journal

let qtest = QCheck_alcotest.to_alcotest
let with_injection f = Fun.protect ~finally:Fault_inject.reset f

(* ------------------------------------------------------------------ *)
(* Scratch directories *)

let dir_counter = ref 0

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir (f : string -> 'a) : 'a =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sgl-persist-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let flip_byte (p : string) ~(at : int) : unit =
  let s = Bytes.of_string (read_file p) in
  Bytes.set s at (Char.chr (Char.code (Bytes.get s at) lxor 0x40));
  write_file p (Bytes.to_string s)

(* ------------------------------------------------------------------ *)
(* Codec round-trips *)

(* Every attribute type and every combination tag in one schema. *)
let rich_schema () =
  Schema.create
    [
      Schema.attr "key" Value.TInt;
      Schema.attr "posx" Value.TFloat;
      Schema.attr "alive" Value.TBool;
      Schema.attr "aim" Value.TVec;
      Schema.attr ~tag:Schema.Sum "heal" Value.TInt;
      Schema.attr ~tag:Schema.Max "spd" Value.TFloat;
      Schema.attr ~tag:Schema.Min "cold" Value.TFloat;
      Schema.attr ~tag:Schema.Pmax "setv" Value.TVec;
    ]

let mk_state ?(tick = 17) ?(seed = 5) ?(quarantined = []) ?(counters = [])
    ?(degradations = []) units =
  { Checkpoint.tick; seed; cache_epoch = tick; units; quarantined; counters; degradations }

(* [Checkpoint.save] of a state with the column store of its units. *)
let save ~dir ~(schema : Schema.t) (st : Checkpoint.state) : string =
  Checkpoint.save ~dir ~fsync:false ~schema
    ~store:(Colstore.of_tuples schema st.Checkpoint.units) st

let roundtrip ~(schema : Schema.t) (st : Checkpoint.state) : Checkpoint.state =
  with_dir (fun dir ->
      let path = save ~dir ~schema st in
      Checkpoint.load ~schema path)

let check_state_eq (a : Checkpoint.state) (b : Checkpoint.state) =
  Alcotest.(check int) "tick" a.Checkpoint.tick b.Checkpoint.tick;
  Alcotest.(check int) "seed" a.Checkpoint.seed b.Checkpoint.seed;
  Alcotest.(check int) "population"
    (Array.length a.Checkpoint.units)
    (Array.length b.Checkpoint.units);
  (* polymorphic compare is bit-faithful here ([compare nan nan = 0]),
     which is exactly the codec's contract *)
  if compare a.Checkpoint.units b.Checkpoint.units <> 0 then Alcotest.fail "units diverged";
  Alcotest.(check (list string)) "quarantined" a.Checkpoint.quarantined
    b.Checkpoint.quarantined;
  Alcotest.(check (list (pair string int))) "counters" a.Checkpoint.counters
    b.Checkpoint.counters;
  if compare a.Checkpoint.degradations b.Checkpoint.degradations <> 0 then
    Alcotest.fail "degradations diverged"

let sample_tuple ~key =
  [|
    Value.Int key;
    Value.Float 1.5;
    Value.Bool true;
    Value.Vec (Vec2.make 0.25 (-3.));
    Value.Int 7;
    Value.Float infinity;
    Value.Float neg_infinity;
    Value.Vec (Vec2.make neg_infinity 0.);
  |]

let roundtrip_pinned () =
  let schema = rich_schema () in
  (* empty relation *)
  check_state_eq (mk_state [||]) (roundtrip ~schema (mk_state [||]));
  (* single tuple exercising every type, with infinities *)
  let one = mk_state [| sample_tuple ~key:3 |] in
  check_state_eq one (roundtrip ~schema one);
  (* duplicate keys survive verbatim (the codec is positional) *)
  let dup = mk_state [| sample_tuple ~key:9; sample_tuple ~key:9; sample_tuple ~key:9 |] in
  check_state_eq dup (roundtrip ~schema dup);
  (* bookkeeping fields *)
  let full =
    mk_state ~tick:123 ~seed:77
      ~quarantined:[ "archer"; "healer" ]
      ~counters:[ ("deaths", 4); ("resurrections", 4) ]
      ~degradations:[ (9, "fused", "indexed"); (11, "indexed", "naive") ]
      [| sample_tuple ~key:0 |]
  in
  check_state_eq full (roundtrip ~schema full)

let gen_value (ty : Value.ty) : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  match ty with
  | Value.TInt -> map (fun i -> Value.Int i) int
  | Value.TFloat -> map (fun f -> Value.Float f) float
  | Value.TBool -> map (fun b -> Value.Bool b) bool
  | Value.TVec -> map2 (fun x y -> Value.Vec (Vec2.make x y)) float float

let gen_units (schema : Schema.t) : Tuple.t array QCheck.Gen.t =
  let open QCheck.Gen in
  let tys = List.map (fun (a : Schema.attr) -> a.Schema.ty) (Schema.attrs schema) in
  let tuple = map Array.of_list (flatten_l (List.map gen_value tys)) in
  array_size (int_bound 40) tuple

(* Satellite property: [restore (save state) = state] over randomized
   relations — empty arrays, duplicate keys (the key generator is
   unconstrained) and every attribute type. *)
let roundtrip_prop =
  let schema = rich_schema () in
  QCheck.Test.make ~count:30 ~name:"restore (save state) = state"
    (QCheck.make (gen_units schema))
    (fun units ->
      let st = mk_state units in
      let back = roundtrip ~schema st in
      compare st.Checkpoint.units back.Checkpoint.units = 0
      && st.Checkpoint.tick = back.Checkpoint.tick
      && st.Checkpoint.seed = back.Checkpoint.seed)

let units_digest () =
  let a = [| sample_tuple ~key:1; sample_tuple ~key:2 |] in
  let b = [| sample_tuple ~key:1; sample_tuple ~key:2 |] in
  Alcotest.(check int) "digest is a pure function of content" (Codec.units_digest a)
    (Codec.units_digest b);
  let c = [| sample_tuple ~key:2; sample_tuple ~key:1 |] in
  Alcotest.(check bool) "digest is order-sensitive" true
    (Codec.units_digest a <> Codec.units_digest c);
  Tuple.set b.(0) 4 (Value.Int 8);
  Alcotest.(check bool) "digest sees a one-slot change" true
    (Codec.units_digest a <> Codec.units_digest b)

(* ------------------------------------------------------------------ *)
(* Corruption pinning *)

let must_corrupt ~(msg : string) (f : unit -> 'a) : string =
  match f () with
  | _ -> Alcotest.failf "%s: corruption was not detected" msg
  | exception Codec.Corrupt m -> m

let with_saved (f : schema:Schema.t -> path:string -> 'a) : 'a =
  let schema = rich_schema () in
  with_dir (fun dir ->
      let st = mk_state [| sample_tuple ~key:0; sample_tuple ~key:1 |] in
      let path = save ~dir ~schema st in
      f ~schema ~path)

(* A crafted file with valid CRCs claims 10M units over a one-byte boxed
   column.  It must read as corrupt before anything is allocated for the
   claim: an array of that size alone is 10M words of major heap. *)
let oversized_column_claim () =
  let schema = Schema.create [ Schema.attr "key" Value.TInt ] in
  let n = 10_000_000 in
  let b = Buffer.create 256 in
  let section tag fill =
    let w = Codec.W.create () in
    fill w;
    Codec.write_section b ~tag (Codec.W.contents w)
  in
  Codec.write_header b ~magic:"SGLCKPT\x01" ~version:2;
  section "META" (fun w ->
      List.iter (Codec.W.int w) [ 1; 0; 0 ];
      Codec.W.u32 w n);
  section "SCHM" (fun w -> Codec.W.schema w schema);
  section "COLU" (fun w ->
      Codec.W.u32 w n;
      Codec.W.u16 w 1;
      Codec.W.u8 w 3 (* boxed *);
      Codec.W.u8 w 0);
  section "QUAR" (fun w -> Codec.W.u16 w 0);
  section "CNTR" (fun w -> Codec.W.u16 w 0);
  section "DEGR" (fun w -> Codec.W.u32 w 0);
  Codec.write_section b ~tag:Codec.end_tag "";
  with_dir (fun dir ->
      let path = Checkpoint.path ~dir ~tick:1 in
      write_file path (Buffer.contents b);
      let before = (Gc.quick_stat ()).Gc.major_words in
      let _ : string = must_corrupt ~msg:"10M-unit claim" (fun () -> Checkpoint.load ~schema path) in
      let grown = (Gc.quick_stat ()).Gc.major_words -. before in
      if grown > 1e6 then Alcotest.failf "refusing the claim allocated %.0f major words" grown)

let truncation_detected () =
  with_saved (fun ~schema ~path ->
      let body = read_file path in
      let n = String.length body in
      List.iter
        (fun keep ->
          write_file path (String.sub body 0 keep);
          let _ : string =
            must_corrupt
              ~msg:(Printf.sprintf "truncated to %d bytes" keep)
              (fun () -> Checkpoint.load ~schema path)
          in
          ())
        [ 0; 7; 8; 11; 20; n / 2; n - 5; n - 1 ])

let flipped_bit_detected () =
  with_saved (fun ~schema ~path ->
      let body = read_file path in
      let n = String.length body in
      List.iter
        (fun at ->
          write_file path body;
          flip_byte path ~at;
          let _ : string =
            must_corrupt
              ~msg:(Printf.sprintf "bit flipped at offset %d" at)
              (fun () -> Checkpoint.load ~schema path)
          in
          ())
        [ 2; 20; n / 3; n / 2; 2 * n / 3; n - 6 ])

let unknown_version_detected () =
  with_saved (fun ~schema ~path ->
      let body = Bytes.of_string (read_file path) in
      (* the version u32 sits right after the 8-byte magic *)
      Bytes.set_int32_le body 8 99l;
      write_file path (Bytes.to_string body);
      let msg = must_corrupt ~msg:"version 99" (fun () -> Checkpoint.load ~schema path) in
      let mentions_version =
        let found = ref false in
        for i = 0 to String.length msg - 2 do
          if String.sub msg i 2 = "99" then found := true
        done;
        !found
      in
      Alcotest.(check bool) "error message names the version" true mentions_version)

let schema_mismatch_detected () =
  with_saved (fun ~schema:_ ~path ->
      let other =
        Schema.create [ Schema.attr "key" Value.TInt; Schema.attr "hp" Value.TInt ]
      in
      let _ : string =
        must_corrupt ~msg:"schema mismatch" (fun () -> Checkpoint.load ~schema:other path)
      in
      ())

(* ------------------------------------------------------------------ *)
(* Journal framing *)

let entry ~tick ~digest =
  {
    Journal.j_tick = tick;
    j_units = 10;
    j_digest = digest;
    j_deaths = tick;
    j_resurrections = 0;
    j_structural = tick mod 2 = 0;
    j_dirty_attrs = [ 1; 3 ];
    j_dirty_keys = 5;
  }

let journal_roundtrip () =
  with_dir (fun dir ->
      let w = Journal.create ~dir ~base:4 ~fsync:false in
      Journal.append w (entry ~tick:5 ~digest:0xABCD);
      Journal.append w (entry ~tick:6 ~digest:0x1234);
      Alcotest.(check bool) "bytes accounted" true (Journal.bytes_written w > 0);
      Journal.close w;
      Journal.close w (* idempotent *);
      let entries, torn = Journal.read ~dir ~base:4 in
      Alcotest.(check bool) "not torn" false torn;
      Alcotest.(check int) "two records" 2 (List.length entries);
      let e = List.nth entries 1 in
      Alcotest.(check int) "tick" 6 e.Journal.j_tick;
      Alcotest.(check int) "digest" 0x1234 e.Journal.j_digest;
      Alcotest.(check (list int)) "dirty attrs" [ 1; 3 ] e.Journal.j_dirty_attrs;
      Alcotest.(check bool) "structural" true e.Journal.j_structural;
      Alcotest.(check (option int)) "file name round-trips its base" (Some 4)
        (Journal.base_of_filename (Filename.basename (Journal.path ~dir ~base:4))))

let journal_torn_tail () =
  with_dir (fun dir ->
      let w = Journal.create ~dir ~base:0 ~fsync:false in
      Journal.append w (entry ~tick:1 ~digest:1);
      Journal.append w (entry ~tick:2 ~digest:2);
      Journal.append w (entry ~tick:3 ~digest:3);
      Journal.close w;
      let path = Journal.path ~dir ~base:0 in
      let body = read_file path in
      (* rip a few bytes off the last record, as a crash mid-append would *)
      write_file path (String.sub body 0 (String.length body - 3));
      let entries, torn = Journal.read ~dir ~base:0 in
      Alcotest.(check bool) "torn" true torn;
      Alcotest.(check (list int)) "valid prefix survives" [ 1; 2 ]
        (List.map (fun e -> e.Journal.j_tick) entries);
      (* a flipped byte inside a record also tears there instead of loading *)
      write_file path body;
      flip_byte path ~at:(String.length body - 10);
      let entries, torn = Journal.read ~dir ~base:0 in
      Alcotest.(check bool) "flip torn" true torn;
      Alcotest.(check bool) "flip drops the damaged suffix" true (List.length entries < 3))

let journal_missing_and_bad_header () =
  with_dir (fun dir ->
      let entries, torn = Journal.read ~dir ~base:9 in
      Alcotest.(check bool) "missing file reads empty" true (entries = [] && not torn);
      let w = Journal.create ~dir ~base:9 ~fsync:false in
      Journal.append w (entry ~tick:10 ~digest:1);
      Journal.close w;
      (* damage the header: unlike a torn tail this must raise *)
      flip_byte (Journal.path ~dir ~base:9) ~at:3;
      let _ : string =
        must_corrupt ~msg:"journal header" (fun () -> Journal.read ~dir ~base:9)
      in
      ())

(* ------------------------------------------------------------------ *)
(* Generation fallback and pruning *)

let generation_fallback () =
  let schema = rich_schema () in
  with_dir (fun dir ->
      let save tick =
        ignore
          (save ~dir ~schema (mk_state ~tick [| sample_tuple ~key:tick |]))
      in
      save 10;
      save 20;
      save 30;
      Alcotest.(check (list int)) "generations newest first" [ 30; 20; 10 ]
        (Checkpoint.generations ~dir);
      flip_byte (Checkpoint.path ~dir ~tick:30) ~at:40;
      (match Checkpoint.load_latest ~schema ~dir with
      | Error e -> Alcotest.failf "fallback failed: %s" e
      | Ok (st, skipped) ->
        Alcotest.(check int) "fell back one generation" 1 skipped;
        Alcotest.(check int) "loaded tick 20" 20 st.Checkpoint.tick);
      flip_byte (Checkpoint.path ~dir ~tick:20) ~at:41;
      (match Checkpoint.load_latest ~schema ~dir with
      | Error _ -> Alcotest.fail "generation 10 should still load"
      | Ok (st, skipped) ->
        Alcotest.(check int) "fell back two generations" 2 skipped;
        Alcotest.(check int) "loaded tick 10" 10 st.Checkpoint.tick);
      flip_byte (Checkpoint.path ~dir ~tick:10) ~at:42;
      match Checkpoint.load_latest ~schema ~dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "every generation is corrupt; load must fail")

let prune_generations () =
  let schema = rich_schema () in
  with_dir (fun dir ->
      List.iter
        (fun tick ->
          ignore
            (save ~dir ~schema (mk_state ~tick [| sample_tuple ~key:tick |]));
          Journal.close (Journal.create ~dir ~base:tick ~fsync:false))
        [ 5; 10; 15; 20 ];
      Checkpoint.prune ~dir ~keep:2;
      Alcotest.(check (list int)) "newest two generations kept" [ 20; 15 ]
        (Checkpoint.generations ~dir);
      Alcotest.(check bool) "old journals pruned with their generations" true
        ((not (Sys.file_exists (Journal.path ~dir ~base:5)))
        && (not (Sys.file_exists (Journal.path ~dir ~base:10)))
        && Sys.file_exists (Journal.path ~dir ~base:15)))

(* ------------------------------------------------------------------ *)
(* Recovery differentials: restore-at-k + run-to-n = uninterrupted n *)

let battle_scenario () = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 40) ()

(* One interruption shape applied between the "crash" and the restore. *)
type damage =
  | Clean (* the process died between appends: the journal tail is whole *)
  | Torn_journal (* died mid-append: bytes ripped off the newest journal *)
  | Corrupt_newest (* the newest checkpoint generation is bit-flipped *)

let damage_name = function
  | Clean -> "clean"
  | Torn_journal -> "torn journal"
  | Corrupt_newest -> "corrupt newest generation"

let apply_damage ~(dir : string) = function
  | Clean -> ()
  | Torn_journal ->
    let base = List.hd (Checkpoint.generations ~dir) in
    let path = Journal.path ~dir ~base in
    let body = read_file path in
    if String.length body > 24 then
      write_file path (String.sub body 0 (String.length body - 4))
  | Corrupt_newest ->
    let tick = List.hd (Checkpoint.generations ~dir) in
    flip_byte (Checkpoint.path ~dir ~tick) ~at:60

(* The tentpole determinism property.  An uninterrupted n-tick reference
   run; a "victim" run with persistence armed that is abandoned after k
   ticks (the journal writer is never closed — exactly what SIGKILL
   leaves); optional damage to the directory; then restore + run to n
   must be bit-identical to the reference, state and counters both. *)
let restore_differential ?fault_policy ?(damage = Clean) ?(every = 7) ~(k : int) ~(n : int)
    (evaluator : Simulation.evaluator_kind) : unit =
  let msg =
    Fmt.str "%s k=%d n=%d (%s)" (Simulation.evaluator_name evaluator) k n
      (damage_name damage)
  in
  with_dir @@ fun dir ->
  let sc = battle_scenario () in
  let cfg = Scenario.sim_config ~seed:13 sc in
  let reference = Simulation.create ?fault_policy cfg ~evaluator ~units:sc.Scenario.units in
  Simulation.run reference ~ticks:n;
  let victim = Simulation.create ?fault_policy cfg ~evaluator ~units:sc.Scenario.units in
  Simulation.checkpoint_every ~fsync:false victim ~dir ~every;
  Simulation.run victim ~ticks:k;
  (* abandoned here, writer still open — the crash *)
  apply_damage ~dir damage;
  match Simulation.restore ?fault_policy cfg ~evaluator ~dir with
  | Error e -> Alcotest.failf "%s: restore failed: %s" msg e
  | Ok (sim, info) ->
    (match damage with
    | Clean ->
      Alcotest.(check int) (msg ^ ": recovery reaches the crash tick") k
        (Simulation.tick_count sim)
    | Corrupt_newest ->
      Alcotest.(check int)
        (msg ^ ": fell back one generation")
        1 info.Simulation.generations_skipped;
      Alcotest.(check int) (msg ^ ": journal chain still reaches the crash tick") k
        (Simulation.tick_count sim)
    | Torn_journal ->
      (* the torn record is discarded; the tick it committed is re-run below *)
      Alcotest.(check bool) (msg ^ ": tear detected or nothing torn") true
        (info.Simulation.journal_torn || Simulation.tick_count sim = k));
    Alcotest.(check bool) (msg ^ ": restored at or before the crash tick") true
      (Simulation.tick_count sim <= k);
    Simulation.run sim ~ticks:(n - Simulation.tick_count sim);
    Test_engine.check_states ~msg (Test_engine.sorted_units reference)
      (Test_engine.sorted_units sim);
    let a = Simulation.report reference and b = Simulation.report sim in
    Alcotest.(check int) (msg ^ ": deaths") a.Simulation.deaths b.Simulation.deaths;
    Alcotest.(check int)
      (msg ^ ": resurrections")
      a.Simulation.resurrections b.Simulation.resurrections

let clean_recovery_all_evaluators () =
  List.iter
    (fun evaluator -> restore_differential ~k:13 ~n:30 evaluator)
    [ Simulation.Naive; Simulation.Indexed; Simulation.Fused ]

let torn_journal_recovery () =
  restore_differential ~damage:Torn_journal ~k:12 ~n:28 Simulation.Indexed

let corrupt_generation_recovery () =
  restore_differential ~damage:Corrupt_newest ~k:12 ~n:28 Simulation.Indexed;
  restore_differential ~damage:Corrupt_newest ~k:16 ~n:24 Simulation.Fused

(* Random crash points and checkpoint cadences, clean shape. *)
let recovery_fuzz =
  QCheck.Test.make ~count:8 ~name:"fuzz: random crash tick and cadence, indexed"
    QCheck.(pair (int_range 1 18) (int_range 1 9))
    (fun (k, every) ->
      restore_differential ~every ~k ~n:20 Simulation.Indexed;
      true)

(* A Degrade retry before the crash: the journaled ticks were committed
   by the demoted evaluator, and replay (healthy — no injection armed)
   must still reproduce them bit-for-bit, because the evaluators are
   pinned equal and so the digests match across the demotion. *)
let degrade_recovery () =
  with_injection @@ fun () ->
  with_dir @@ fun dir ->
  let sc = battle_scenario () in
  let cfg = Scenario.sim_config ~seed:13 sc in
  let a =
    Simulation.create ~fault_policy:Simulation.Degrade cfg ~evaluator:Simulation.Fused
      ~units:sc.Scenario.units
  in
  Simulation.checkpoint_every ~fsync:false a ~dir ~every:6;
  Simulation.run a ~ticks:8;
  Fault_inject.arm ~point:"exec.group" (Fault_inject.At_count 1);
  Simulation.step a (* tick 9 faults, demotes fused -> naive, retries *);
  Fault_inject.reset ();
  Simulation.run a ~ticks:11 (* to tick 20, on the demoted evaluator *);
  Alcotest.(check bool) "a degradation was recorded" true (Simulation.degradations a <> []);
  match
    Simulation.restore ~fault_policy:Simulation.Degrade cfg ~evaluator:Simulation.Fused ~dir
  with
  | Error e -> Alcotest.failf "restore after degrade failed: %s" e
  | Ok (b, _info) ->
    Alcotest.(check int) "recovered to the crash tick" 20 (Simulation.tick_count b);
    Test_engine.check_states ~msg:"degrade recovery" (Test_engine.sorted_units a)
      (Test_engine.sorted_units b);
    if compare (Simulation.degradations a) (Simulation.degradations b) <> 0 then
      Alcotest.fail "the demotion history did not survive recovery"

(* A quarantine taken before the checkpoint must survive restore: the
   excluded group stays excluded, so continuation stays bit-identical. *)
let quarantine_recovery () =
  with_injection @@ fun () ->
  with_dir @@ fun dir ->
  let sc = battle_scenario () in
  let cfg = Scenario.sim_config ~seed:13 sc in
  let a =
    Simulation.create ~fault_policy:Simulation.Quarantine_script cfg
      ~evaluator:Simulation.Indexed ~units:sc.Scenario.units
  in
  Simulation.checkpoint_every ~fsync:false a ~dir ~every:5;
  Fault_inject.arm ~point:"exec.group" (Fault_inject.At_count 2);
  Simulation.run a ~ticks:3;
  Fault_inject.reset ();
  Simulation.run a ~ticks:9 (* to tick 12; generations at 0, 5, 10 *);
  let quarantined = Simulation.quarantined_scripts a in
  Alcotest.(check bool) "a script group is quarantined" true (quarantined <> []);
  match
    Simulation.restore ~fault_policy:Simulation.Quarantine_script cfg
      ~evaluator:Simulation.Indexed ~dir
  with
  | Error e -> Alcotest.failf "restore after quarantine failed: %s" e
  | Ok (b, _info) ->
    Alcotest.(check int) "recovered to the crash tick" 12 (Simulation.tick_count b);
    Alcotest.(check (list string)) "quarantine set survives" quarantined
      (Simulation.quarantined_scripts b);
    Simulation.run a ~ticks:8;
    Simulation.run b ~ticks:8;
    Test_engine.check_states ~msg:"quarantined continuation"
      (Test_engine.sorted_units a) (Test_engine.sorted_units b)

(* ------------------------------------------------------------------ *)
(* Fault injection on the I/O paths themselves *)

let sim_with_persistence ?(every = 0) (dir : string) =
  let sc = battle_scenario () in
  let cfg = Scenario.sim_config ~seed:13 sc in
  let sim = Simulation.create cfg ~evaluator:Simulation.Indexed ~units:sc.Scenario.units in
  Simulation.checkpoint_every ~fsync:false sim ~dir ~every;
  (sim, cfg)

(* The simulation writes its checkpoints' unit columns from its committed
   column store.  The file must equal one written from a store built
   afresh from its rows — after a non-structural tick (a copy-on-write
   refresh) and after a structural one (deaths and resurrections). *)
let checkpoint_from_committed_store () =
  with_dir @@ fun dir ->
  with_dir @@ fun fresh_dir ->
  let sim, _ = sim_with_persistence dir in
  let schema = Simulation.schema sim in
  let deaths () = (Simulation.report sim).Simulation.deaths in
  let checked = ref [] in
  while List.length !checked < 2 && Simulation.tick_count sim < 60 do
    let d0 = deaths () in
    Simulation.step sim;
    let kind = if deaths () > d0 then "structural" else "non-structural" in
    if not (List.mem kind !checked) then begin
      checked := kind :: !checked;
      Simulation.checkpoint_now sim;
      let path = Checkpoint.path ~dir ~tick:(Simulation.tick_count sim) in
      let st = { (Checkpoint.load ~schema path) with Checkpoint.units = Simulation.units sim } in
      Alcotest.(check bool) (kind ^ " tick: same bytes") true
        (read_file path = read_file (save ~dir:fresh_dir ~schema st))
    end
  done;
  Alcotest.(check int) "both kinds of tick checked" 2 (List.length !checked)

let injected_journal_append () =
  with_injection @@ fun () ->
  with_dir @@ fun dir ->
  let sim, cfg = sim_with_persistence dir in
  Fault_inject.arm ~point:"io.journal.append" Fault_inject.Always;
  (match Simulation.step sim with
  | () -> Alcotest.fail "journal-append fault was swallowed"
  | exception Fault_inject.Injected { point; _ } ->
    Alcotest.(check string) "right point" "io.journal.append" point);
  Fault_inject.reset ();
  (* the unjournaled tick is lost, but the directory is still coherent:
     restore lands on the arming checkpoint *)
  match Simulation.restore cfg ~evaluator:Simulation.Indexed ~dir with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (b, info) ->
    Alcotest.(check int) "restored the arming generation" 0 (Simulation.tick_count b);
    Alcotest.(check int) "nothing replayed" 0 info.Simulation.replayed

let injected_checkpoint_write () =
  with_injection @@ fun () ->
  with_dir @@ fun dir ->
  let sim, cfg = sim_with_persistence dir in
  Simulation.run sim ~ticks:5;
  Fault_inject.arm ~point:"io.checkpoint.write" Fault_inject.Always;
  (match Simulation.checkpoint_now sim with
  | () -> Alcotest.fail "checkpoint-write fault was swallowed"
  | exception Fault_inject.Injected { point; _ } ->
    Alcotest.(check string) "right point" "io.checkpoint.write" point);
  Fault_inject.reset ();
  (* the failed generation left the previous one and its journal intact,
     and journaling continues *)
  Simulation.run sim ~ticks:2;
  Alcotest.(check (list int)) "only the arming generation exists" [ 0 ]
    (Checkpoint.generations ~dir);
  match Simulation.restore cfg ~evaluator:Simulation.Indexed ~dir with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (b, info) ->
    Alcotest.(check int) "full journal replay" 7 info.Simulation.replayed;
    Alcotest.(check int) "recovered to the crash tick" 7 (Simulation.tick_count b);
    Test_engine.check_states ~msg:"recovery after failed checkpoint"
      (Test_engine.sorted_units sim) (Test_engine.sorted_units b)

let injected_restore_read () =
  with_injection @@ fun () ->
  with_dir @@ fun dir ->
  let sim, cfg = sim_with_persistence ~every:4 dir in
  Simulation.run sim ~ticks:9 (* generations 0, 4, 8; keep 2 -> 8, 4 *);
  Simulation.detach_persistence sim;
  Fault_inject.arm ~point:"io.restore.read" (Fault_inject.At_count 1);
  match Simulation.restore cfg ~evaluator:Simulation.Indexed ~dir with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok (b, info) ->
    Alcotest.(check int) "unreadable newest generation skipped" 1
      info.Simulation.generations_skipped;
    Alcotest.(check int) "recovered to the crash tick" 9 (Simulation.tick_count b);
    Test_engine.check_states ~msg:"recovery past unreadable generation"
      (Test_engine.sorted_units sim) (Test_engine.sorted_units b)

let restore_errors () =
  with_dir @@ fun dir ->
  let sc = battle_scenario () in
  let cfg = Scenario.sim_config ~seed:13 sc in
  (* empty directory *)
  (match Simulation.restore cfg ~evaluator:Simulation.Indexed ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restore from an empty directory must fail");
  (* seed mismatch: the replay would not be the run that was journaled *)
  let sim = Simulation.create cfg ~evaluator:Simulation.Indexed ~units:sc.Scenario.units in
  Simulation.checkpoint_every ~fsync:false sim ~dir ~every:0;
  Simulation.run sim ~ticks:3;
  Simulation.detach_persistence sim;
  match
    Simulation.restore (Scenario.sim_config ~seed:14 sc) ~evaluator:Simulation.Indexed ~dir
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restore with a mismatched seed must fail"

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "persist.codec",
      [
        Alcotest.test_case "pinned round-trips (empty/single/dup-key/all types)" `Quick
          roundtrip_pinned;
        qtest roundtrip_prop;
        Alcotest.test_case "units_digest is content-faithful" `Quick units_digest;
      ] );
    ( "persist.corruption",
      [
        Alcotest.test_case "truncation at any prefix is detected" `Quick truncation_detected;
        Alcotest.test_case "a flipped bit fails its section CRC" `Quick flipped_bit_detected;
        Alcotest.test_case "an oversized column claim fails before allocating" `Quick
          oversized_column_claim;
        Alcotest.test_case "unknown header version is rejected" `Quick
          unknown_version_detected;
        Alcotest.test_case "schema mismatch is rejected" `Quick schema_mismatch_detected;
      ] );
    ( "persist.journal",
      [
        Alcotest.test_case "append/read round-trip" `Quick journal_roundtrip;
        Alcotest.test_case "torn tail returns the valid prefix" `Quick journal_torn_tail;
        Alcotest.test_case "missing file reads empty; bad header raises" `Quick
          journal_missing_and_bad_header;
      ] );
    ( "persist.generations",
      [
        Alcotest.test_case "load_latest falls back past corrupt generations" `Quick
          generation_fallback;
        Alcotest.test_case "prune keeps the newest K with their journals" `Quick
          prune_generations;
      ] );
    ( "persist.recovery",
      [
        Alcotest.test_case "restore-at-k = uninterrupted (naive/indexed/fused)"
          `Slow clean_recovery_all_evaluators;
        Alcotest.test_case "torn journal tail: recovery discards and re-runs" `Quick
          torn_journal_recovery;
        Alcotest.test_case "corrupt newest generation: fallback + chain replay" `Slow
          corrupt_generation_recovery;
        qtest recovery_fuzz;
        Alcotest.test_case "degrade retry before the crash replays bit-identically" `Quick
          degrade_recovery;
        Alcotest.test_case "quarantine set survives restore" `Quick quarantine_recovery;
        Alcotest.test_case "checkpoints write the committed column store" `Quick
          checkpoint_from_committed_store;
      ] );
    ( "persist.faults",
      [
        Alcotest.test_case "io.journal.append propagates; directory stays coherent" `Quick
          injected_journal_append;
        Alcotest.test_case "io.checkpoint.write leaves the old generation usable" `Quick
          injected_checkpoint_write;
        Alcotest.test_case "io.restore.read falls back a generation" `Quick
          injected_restore_read;
        Alcotest.test_case "empty directory and seed mismatch are errors" `Quick
          restore_errors;
      ] );
  ]
