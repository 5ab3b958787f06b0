(* The observability layer: flight-recorder ring semantics, the
   CRC-framed dump/load cycle (including torn files), counter-delta
   correctness against the registry ground truth, the differential
   guarantee (obs-on is bit-identical to obs-off), and an HTTP smoke
   test that hits every live endpoint during a running battle and checks
   the bodies actually parse. *)

open Sgl_relalg
open Sgl_engine
open Sgl_battle
open Sgl_obs

(* ------------------------------------------------------------------ *)
(* A tiny JSON reader — just enough to assert the exposition formats
   are well-formed and to pull out scalar fields. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
    in
    let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
      else fail ("expected " ^ word)
    in
    let string_ () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char b '"'; advance ()
            | '\\' -> Buffer.add_char b '\\'; advance ()
            | '/' -> Buffer.add_char b '/'; advance ()
            | 'n' -> Buffer.add_char b '\n'; advance ()
            | 't' -> Buffer.add_char b '\t'; advance ()
            | 'r' -> Buffer.add_char b '\r'; advance ()
            | 'b' -> Buffer.add_char b '\b'; advance ()
            | 'f' -> Buffer.add_char b '\012'; advance ()
            | 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* BMP-only: fine for our own ASCII output *)
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
            | _ -> fail "bad escape");
            go ()
          | c -> Buffer.add_char b c; advance (); go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let is_num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do advance () done;
      if !pos = start then fail "expected number";
      float_of_string (String.sub s start (!pos - start))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_ () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Arr [])
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elements []
        end
      | '"' -> Str (string_ ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> Num (number ())
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member (k : string) (j : t) : t =
    match j with
    | Obj kvs -> (try List.assoc k kvs with Not_found -> raise (Bad ("missing member " ^ k)))
    | _ -> raise (Bad ("not an object looking for " ^ k))

  let num = function Num f -> f | _ -> raise (Bad "expected number")
  let bool_ = function Bool b -> b | _ -> raise (Bad "expected bool")
  let arr = function Arr l -> l | _ -> raise (Bad "expected array")
end

(* ------------------------------------------------------------------ *)
(* Helpers *)

let mk_sample (i : int) : Flight.sample =
  {
    Simulation.s_tick = i;
    s_units = 100 + i;
    s_digest = 0xBEEF0000 lor i;
    s_tick_s = 0.001 *. float_of_int i;
    s_decision_s = 0.0005 *. float_of_int i;
    s_post_s = 1e-4;
    s_movement_s = 2e-4;
    s_death_s = 3e-5;
    s_deaths = i mod 3;
    s_resurrections = i mod 2;
    s_faults = 0;
    s_rollbacks = 0;
    s_retries = 0;
    s_demotions = 0;
    s_index_builds = 2;
    s_index_reuses = i mod 5;
    s_evaluator = "indexed";
  }

let ticks_of (samples : Flight.sample list) : int list =
  List.map (fun s -> s.Simulation.s_tick) samples

let with_temp (f : string -> unit) : unit =
  let path = Filename.temp_file "sgl_flight" ".dump" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* The ring *)

let flight_ring_wraparound () =
  let fl = Flight.create ~capacity:8 in
  Alcotest.(check int) "capacity" 8 (Flight.capacity fl);
  Alcotest.(check (option reject)) "empty last" None (Flight.last fl);
  for i = 1 to 20 do
    Flight.record fl (mk_sample i)
  done;
  Alcotest.(check int) "total" 20 (Flight.total fl);
  Alcotest.(check int) "length" 8 (Flight.length fl);
  Alcotest.(check (list int)) "tail keeps newest, oldest first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (ticks_of (Flight.tail fl));
  Alcotest.(check (list int)) "tail ~n" [ 18; 19; 20 ] (ticks_of (Flight.tail ~n:3 fl));
  (match Flight.last fl with
  | Some s -> Alcotest.(check int) "last tick" 20 s.Simulation.s_tick
  | None -> Alcotest.fail "last after records");
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Flight.create: capacity must be positive") (fun () ->
      ignore (Flight.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Dump / load *)

let flight_dump_load_roundtrip () =
  with_temp (fun path ->
      let fl = Flight.create ~capacity:16 in
      for i = 1 to 10 do
        Flight.record fl (mk_sample i)
      done;
      Flight.dump fl ~path;
      match Flight.load ~path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok (records, torn) ->
        Alcotest.(check bool) "not torn" false torn;
        Alcotest.(check int) "record count" 10 (List.length records);
        List.iteri
          (fun i got ->
            let expect = mk_sample (i + 1) in
            if compare expect got <> 0 then
              Alcotest.failf "record %d did not round-trip" (i + 1))
          records)

let flight_sink_stream () =
  with_temp (fun path ->
      let sink = Flight.sink_open ~path in
      for i = 1 to 3 do
        Flight.sink_record sink (mk_sample i)
      done;
      Flight.sink_close sink;
      Flight.sink_close sink (* idempotent *);
      match Flight.load ~path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok (records, torn) ->
        Alcotest.(check bool) "not torn" false torn;
        Alcotest.(check (list int)) "streamed ticks" [ 1; 2; 3 ] (ticks_of records))

(* A file cut mid-frame or with a flipped byte must yield every frame
   before the damage plus the torn flag — the post-SIGKILL shape. *)
let flight_torn_tolerance () =
  with_temp (fun path ->
      let fl = Flight.create ~capacity:8 in
      for i = 1 to 5 do
        Flight.record fl (mk_sample i)
      done;
      Flight.dump fl ~path;
      let whole = In_channel.with_open_bin path In_channel.input_all in
      (* truncated mid-frame *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub whole 0 (String.length whole - 3)));
      (match Flight.load ~path with
      | Error e -> Alcotest.failf "truncated load: %s" e
      | Ok (records, torn) ->
        Alcotest.(check bool) "truncated is torn" true torn;
        Alcotest.(check (list int)) "frames before the cut survive" [ 1; 2; 3; 4 ]
          (ticks_of records));
      (* corrupted byte inside the last frame's payload *)
      let corrupt = Bytes.of_string whole in
      Bytes.set corrupt (String.length whole - 10)
        (Char.chr (Char.code (Bytes.get corrupt (String.length whole - 10)) lxor 0xFF));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc corrupt);
      (match Flight.load ~path with
      | Error e -> Alcotest.failf "corrupt load: %s" e
      | Ok (records, torn) ->
        Alcotest.(check bool) "corrupt frame is torn" true torn;
        Alcotest.(check (list int)) "frames before the corruption survive" [ 1; 2; 3; 4 ]
          (ticks_of records));
      (* a bad header is an error, not a torn file *)
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a dump");
      match Flight.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad header must not load")

let flight_json_parses () =
  let s = Flight.sample_json (mk_sample 7) in
  let j = Json.parse s in
  Alcotest.(check int) "tick" 7 (int_of_float (Json.num (Json.member "tick" j)));
  Alcotest.(check int) "units" 107 (int_of_float (Json.num (Json.member "units" j)));
  let arr = Json.parse (Flight.to_json [ mk_sample 1; mk_sample 2 ]) in
  Alcotest.(check int) "array length" 2 (List.length (Json.arr arr))

(* ------------------------------------------------------------------ *)
(* Counter deltas vs the registry ground truth *)

(* Each sample carries per-tick deltas; summed over a full run they must
   reproduce the cumulative report exactly, and the digests must match
   what the codec computes over the final committed units. *)
let flight_counter_deltas () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 25) () in
  let sim = Scenario.simulation ~seed:5 ~evaluator:Simulation.Indexed scenario in
  let fl = Flight.create ~capacity:64 in
  Simulation.set_observer sim (Some (Flight.record fl));
  Simulation.run sim ~ticks:20;
  Simulation.set_observer sim None;
  let samples = Flight.tail fl in
  Alcotest.(check int) "one sample per tick" 20 (List.length samples);
  Alcotest.(check (list int)) "consecutive ticks"
    (List.init 20 (fun i -> i + 1))
    (ticks_of samples);
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 samples in
  let r = Simulation.report sim in
  Alcotest.(check int) "deaths" r.Simulation.deaths (sum (fun s -> s.Simulation.s_deaths));
  Alcotest.(check int) "resurrections" r.Simulation.resurrections
    (sum (fun s -> s.Simulation.s_resurrections));
  Alcotest.(check int) "rollbacks" r.Simulation.rollbacks
    (sum (fun s -> s.Simulation.s_rollbacks));
  Alcotest.(check int) "retries" r.Simulation.retries (sum (fun s -> s.Simulation.s_retries));
  Alcotest.(check int) "index builds" r.Simulation.index_builds
    (sum (fun s -> s.Simulation.s_index_builds));
  Alcotest.(check int) "index reuses" r.Simulation.index_reuses
    (sum (fun s -> s.Simulation.s_index_reuses));
  (match Flight.last fl with
  | None -> Alcotest.fail "no samples"
  | Some s ->
    Alcotest.(check int) "final digest"
      (Sgl_persist.Codec.units_digest (Simulation.units sim))
      s.Simulation.s_digest;
    Alcotest.(check int) "final population" (Array.length (Simulation.units sim))
      s.Simulation.s_units)

(* ------------------------------------------------------------------ *)
(* The differential guarantee: full obs stack on vs everything off *)

let obs_is_invisible () =
  let run ~obs =
    let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 30) () in
    let sim = Scenario.simulation ~seed:23 ~evaluator:Simulation.Indexed scenario in
    let live =
      if not obs then None
      else begin
        let path = Filename.temp_file "sgl_obs" ".dump" in
        let live =
          Live.create ~flight_capacity:8 ~dump_path:path ~sim ~prog:(Scripts.compile ()) ()
        in
        Some (live, path)
      end
    in
    Simulation.run sim ~ticks:15;
    (* exercise the read side mid-state, then tear down *)
    (match live with
    | None -> ()
    | Some (live, path) ->
      let h = Live.handler live in
      List.iter
        (fun p -> ignore (h ~path:p ~params:[]))
        [ "/metrics"; "/stats"; "/ticks"; "/health" ];
      ignore (h ~path:"/query" ~params:[ ("q", "count(*) where e.health > 0") ]);
      Live.stop live;
      (try Sys.remove path with Sys_error _ -> ()));
    (Test_engine.sorted_units sim, Sgl_persist.Codec.units_digest (Simulation.units sim))
  in
  let baseline, base_digest = run ~obs:false in
  let observed, obs_digest = run ~obs:true in
  Alcotest.(check int) "digest identical" base_digest obs_digest;
  Alcotest.(check int) "population" (Array.length baseline) (Array.length observed);
  Array.iteri
    (fun i e ->
      if compare e observed.(i) <> 0 then
        Alcotest.failf "unit %d diverged under observation@.expected %s@.got      %s" i
          (Fmt.str "%a" Tuple.pp e)
          (Fmt.str "%a" Tuple.pp observed.(i)))
    baseline

(* ------------------------------------------------------------------ *)
(* HTTP smoke: every endpoint over a real socket during a live battle *)

(* [timeout] bounds each read of the response. *)
let http_get ?(timeout = 0.) (port : int) (target : string) : int * string * string =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if timeout > 0. then Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" target in
      let _ = Unix.write_substring fd req 0 (String.length req) in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      let raw = Buffer.contents buf in
      let sep =
        let rec find i =
          if i + 4 > String.length raw then
            Alcotest.failf "no header terminator in response to %s" target
          else if String.sub raw i 4 = "\r\n\r\n" then i
          else find (i + 1)
        in
        find 0
      in
      let headers = String.sub raw 0 sep in
      let body = String.sub raw (sep + 4) (String.length raw - sep - 4) in
      let status =
        match String.split_on_char ' ' (List.hd (String.split_on_char '\r' headers)) with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "bad status line for %s" target
      in
      (status, headers, body))

let prometheus_well_formed (body : string) : unit =
  let metric_line line =
    (* name{labels} value  |  name value *)
    match String.rindex_opt line ' ' with
    | None -> Alcotest.failf "metric line without value: %s" line
    | Some i ->
      let v = String.sub line (i + 1) (String.length line - i - 1) in
      (match float_of_string_opt v with
      | Some _ -> ()
      | None -> Alcotest.failf "unparsable metric value %S in: %s" v line);
      let name = String.sub line 0 i in
      if not (String.length name >= 4 && String.sub name 0 4 = "sgl_") then
        Alcotest.failf "metric without sgl_ prefix: %s" line
  in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then metric_line line)

let http_smoke () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 20) () in
  let sim = Scenario.simulation ~seed:9 ~evaluator:Simulation.Indexed scenario in
  let live = Live.create ~flight_capacity:32 ~sim ~prog:(Scripts.compile ()) () in
  Fun.protect
    ~finally:(fun () -> Live.stop live)
    (fun () ->
      let port = Live.serve live ~port:0 in
      Alcotest.(check bool) "ephemeral port" true (port > 0);
      Alcotest.(check int) "serve is idempotent" port (Live.serve live ~port:0);
      (* before the first tick the query port has no committed snapshot *)
      let status, _, _ = http_get port "/query?q=count(*)" in
      Alcotest.(check int) "query before first commit" 503 status;
      Simulation.run sim ~ticks:12;
      let n_units = Array.length (Simulation.units sim) in
      (* /health *)
      let status, _, body = http_get port "/health" in
      Alcotest.(check int) "health status" 200 status;
      let j = Json.parse body in
      Alcotest.(check bool) "ready" true (Json.bool_ (Json.member "ready" j));
      Alcotest.(check int) "health tick" 12 (int_of_float (Json.num (Json.member "tick" j)));
      Alcotest.(check int) "no anomaly flags" 0 (List.length (Json.arr (Json.member "flags" j)));
      (* /metrics *)
      let status, headers, body = http_get port "/metrics" in
      Alcotest.(check int) "metrics status" 200 status;
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "prometheus content type" true
        (contains headers "text/plain; version=0.0.4");
      Alcotest.(check bool) "tick histogram exported" true
        (contains body "sgl_sim_tick_seconds");
      prometheus_well_formed body;
      (* /stats *)
      let status, _, body = http_get port "/stats" in
      Alcotest.(check int) "stats status" 200 status;
      let j = Json.parse body in
      Alcotest.(check int) "stats tick" 12 (int_of_float (Json.num (Json.member "tick" j)));
      ignore (Json.member "report" j);
      ignore (Json.member "sim" j);
      ignore (Json.member "ambient" j);
      (* /ticks *)
      let status, _, body = http_get port "/ticks?n=5" in
      Alcotest.(check int) "ticks status" 200 status;
      let frames = Json.arr (Json.parse body) in
      Alcotest.(check int) "ticks tail length" 5 (List.length frames);
      let last = List.nth frames 4 in
      Alcotest.(check int) "newest frame is the last tick" 12
        (int_of_float (Json.num (Json.member "tick" last)));
      (* /explain *)
      let status, _, body = http_get port "/explain" in
      Alcotest.(check int) "explain status" 200 status;
      Alcotest.(check bool) "explain non-empty" true (String.length body > 0);
      (* /query *)
      let status, _, body = http_get port "/query?q=count(*)" in
      Alcotest.(check int) "query status" 200 status;
      let j = Json.parse body in
      Alcotest.(check int) "count(*) sees the whole population" n_units
        (int_of_float (Json.num (Json.member "value" j)));
      Alcotest.(check bool) "uncorrelated" false (Json.bool_ (Json.member "correlated" j));
      (* /query error paths *)
      let status, _, _ = http_get port "/query" in
      Alcotest.(check int) "missing q" 400 status;
      let status, _, _ = http_get port "/query?q=count(*)%20where%20random()%20%3C%2010" in
      Alcotest.(check int) "random() rejected" 400 status;
      (* unknown path *)
      let status, _, _ = http_get port "/nothing-here" in
      Alcotest.(check int) "404 fallback" 404 status)

(* A client that connects and sends nothing must not hold the serial
   accept loop: a later GET is answered and [stop] returns, each within a
   bound.  Both waits run under a watchdog (a receive timeout on the GET,
   a polled deadline on [stop] that then closes the silent client), so a
   server that waits on the silent client fails here instead of stalling
   the suite. *)
let silent_client_does_not_block () =
  let handler ~path ~params:_ = { Server.status = 200; content_type = "text/plain"; body = path } in
  let server = Server.start ~port:0 ~handler () in
  let port = Server.port server in
  let silent () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Thread.delay 0.1 (* the server accepts it and waits on its request *);
    fd
  in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let first = silent () in
  let second = ref None in
  Fun.protect
    ~finally:(fun () ->
      close first;
      Option.iter close !second;
      Server.stop server)
    (fun () ->
      (match http_get ~timeout:5. port "/health" with
      | status, _, body ->
        Alcotest.(check int) "answered behind a silent client" 200 status;
        Alcotest.(check string) "body" "/health" body
      | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "no answer within 5 s behind a silent client: %s" (Unix.error_message e));
      second := Some (silent ());
      let stopped = Atomic.make false in
      let stopper =
        Thread.create
          (fun () ->
            Server.stop server;
            Atomic.set stopped true)
          ()
      in
      let deadline = Unix.gettimeofday () +. 5. in
      while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      let in_time = Atomic.get stopped in
      Option.iter close !second (* releases a server still waiting on it *);
      Thread.join stopper;
      Alcotest.(check bool) "stop returns within 5 s" true in_time)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The query port counts nowhere: its throwaway evaluator's aggregate is
   instance 0, the same [agg.0.*] names as the simulation's first
   aggregate, so counting it would corrupt EXPLAIN's live row. *)

let query_body = "count(*) where e.health > 0"

let run_query sim =
  let snapshot =
    { Query.q_tick = Simulation.tick_count sim; q_units = Simulation.units sim }
  in
  match Query.run ~schema:(Simulation.schema sim) ~snapshot query_body with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "query failed: %s" e

(* The simulation's ledger: its [agg.0.*] and [eval.*] counters. *)
let query_leaves_sim_ledger () =
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 20) () in
  let sim = Scenario.simulation ~seed:9 ~evaluator:Simulation.Indexed scenario in
  Simulation.run sim ~ticks:8;
  let ledger () =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"agg.0." name || String.starts_with ~prefix:"eval." name)
      (Sgl_util.Telemetry.Registry.counters (Simulation.telemetry sim))
  in
  let before = ledger () in
  Alcotest.(check bool) "aggregate 0 counted its batches" true
    (List.assoc "agg.0.batches" before > 0);
  run_query sim;
  Alcotest.(check (list (pair string int))) "sim ledger unchanged" before (ledger ())

(* The ambient registry, enabled. *)
let query_leaves_ambient () =
  let module T = Sgl_util.Telemetry in
  let scenario = Scenario.setup ~density:0.02 ~per_side:(Scenario.standard_mix 20) () in
  let sim = Scenario.simulation ~seed:9 ~evaluator:Simulation.Indexed scenario in
  Simulation.run sim ~ticks:3;
  Fun.protect
    ~finally:(fun () -> T.set_enabled false)
    (fun () ->
      T.set_enabled true;
      let batches = T.counter "agg.0.batches" in
      let before = T.Counter.value batches in
      run_query sim;
      Alcotest.(check int) "ambient agg.0.batches unchanged" before (T.Counter.value batches))

(* ------------------------------------------------------------------ *)
(* Health: the tick-time rule on synthetic flight windows *)

(* A full 32-tick window of 20 ms ticks, with [slow] of them (the newest)
   taking [slow_s] instead, judged against a 20 ms run median. *)
let tick_time_flag ~(slow : int) ~(slow_s : float) : bool =
  let fl = Flight.create ~capacity:64 in
  for i = 1 to 40 do
    let s = mk_sample i in
    Flight.record fl { s with Simulation.s_tick_s = (if i > 40 - slow then slow_s else 0.020) }
  done;
  Health.tick_time_degraded ~baseline_p50_s:0.020 (Flight.tail ~n:32 fl)

let health_tick_time_rule () =
  Alcotest.(check bool) "steady window" false (tick_time_flag ~slow:0 ~slow_s:0.020);
  Alcotest.(check bool) "one descheduled tick is no flag" false
    (tick_time_flag ~slow:1 ~slow_s:2.0);
  Alcotest.(check bool) "two slow ticks flag" true (tick_time_flag ~slow:2 ~slow_s:0.250);
  Alcotest.(check bool) "sustained 10x slowdown flags" true
    (tick_time_flag ~slow:32 ~slow_s:0.201);
  Alcotest.(check bool) "exactly 10x is not slow" false (tick_time_flag ~slow:32 ~slow_s:0.200);
  Alcotest.(check bool) "below the absolute floor" false
    (Health.tick_time_degraded ~baseline_p50_s:0.0001
       (List.init 32 (fun i -> { (mk_sample i) with Simulation.s_tick_s = 0.004 })));
  Alcotest.(check bool) "no baseline yet" false
    (Health.tick_time_degraded ~baseline_p50_s:nan
       (List.init 32 (fun i -> { (mk_sample i) with Simulation.s_tick_s = 1.0 })))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "obs.flight",
      [
        tc "ring wraparound" `Quick flight_ring_wraparound;
        tc "dump/load round-trip" `Quick flight_dump_load_roundtrip;
        tc "streaming sink" `Quick flight_sink_stream;
        tc "torn-file tolerance" `Quick flight_torn_tolerance;
        tc "sample json parses" `Quick flight_json_parses;
        tc "counter deltas vs registry" `Quick flight_counter_deltas;
      ] );
    ( "obs.differential",
      [ tc "bit-identical with obs on" `Slow obs_is_invisible ] );
    ( "obs.http",
      [
        tc "every endpoint live" `Quick http_smoke;
        tc "a silent client does not block" `Quick silent_client_does_not_block;
      ] );
    ( "obs.query",
      [
        tc "leaves the sim ledger" `Quick query_leaves_sim_ledger;
        tc "leaves the ambient registry" `Quick query_leaves_ambient;
      ] );
    ("obs.health", [ tc "tick-time flag needs two slow ticks" `Quick health_tick_time_rule ]);
  ]
