(* The glue layer: install the per-commit observer on a simulation, fan
   it out to the flight recorder / streaming sink / committed-tick
   snapshot, and serve the six diagnostic endpoints over {!Server}.

   Thread-safety inventory, because the handler runs on the server thread
   while the tick loop runs on the caller's:

   - the flight ring is mutex-guarded;
   - the /query snapshot is an [Atomic.t] holding the committed unit
     array, which the engine never mutates after commit (the next tick
     swaps in fresh copies), so scanning it lock-free is safe;
   - registry counters are atomics, histogram shards are mutexed, and
     [Simulation.report]'s remaining reads are single-word fields of
     immutable values — a racy read sees a slightly stale but
     well-formed value, which is all a diagnostics port needs.

   Nothing the observer or any handler touches can reach unit state or a
   PRNG, so runs are bit-identical with observability on or off; the
   differential test in test_obs pins that. *)

open Sgl_util
open Sgl_lang
open Sgl_qopt
open Sgl_engine

type t = {
  sim : Simulation.t;
  prog : Core_ir.program;
  flight : Flight.t;
  sink : Flight.sink option;
  snapshot : Query.snapshot option Atomic.t;
  peak_units : int Atomic.t;
  mutable server : Server.t option;
}

let observer (t : t) (s : Simulation.tick_sample) : unit =
  Flight.record t.flight s;
  Option.iter (fun k -> Flight.sink_record k s) t.sink;
  Atomic.set t.snapshot
    (Some { Query.q_tick = s.Simulation.s_tick; q_units = Simulation.units t.sim });
  if s.Simulation.s_units > Atomic.get t.peak_units then
    Atomic.set t.peak_units s.Simulation.s_units

let create ?(flight_capacity = 1024) ?dump_path ~(sim : Simulation.t)
    ~(prog : Core_ir.program) () : t =
  let t =
    {
      sim;
      prog;
      flight = Flight.create ~capacity:flight_capacity;
      sink = Option.map (fun path -> Flight.sink_open ~path) dump_path;
      snapshot = Atomic.make None;
      peak_units = Atomic.make (Array.length (Simulation.units sim));
      server = None;
    }
  in
  Simulation.set_observer sim (Some (observer t));
  t

let flight (t : t) : Flight.t = t.flight

let dump (t : t) ~(path : string) : unit = Flight.dump t.flight ~path

(* ------------------------------------------------------------------ *)
(* Endpoint bodies *)

let report_json (t : t) : string =
  let r = Simulation.report t.sim in
  let f = Telemetry.json_float in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"tick\": %d,\n  \"units\": %d,\n  \"evaluator\": %s,\n"
       r.Simulation.ticks r.Simulation.n_units
       (Telemetry.json_string
          (Simulation.evaluator_name (Simulation.current_evaluator t.sim))));
  Buffer.add_string b
    (Printf.sprintf
       "  \"report\": {\"decision_s\": %s, \"build_s\": %s, \"post_s\": %s, \"movement_s\": %s, \
        \"death_s\": %s, \"total_s\": %s, \"tick_p50_s\": %s, \"tick_p90_s\": %s, \
        \"tick_p99_s\": %s, \"index_builds\": %d, \"index_probes\": %d, \"naive_scans\": %d, \
        \"uniform_hits\": %d, \"index_reuses\": %d, \"deaths\": %d, \"resurrections\": %d, \
        \"faults\": %d, \"retries\": %d, \"rollbacks\": %d, \
        \"quarantined\": [%s], \"degradations\": %d},\n"
       (f r.Simulation.decision_s) (f r.Simulation.build_s) (f r.Simulation.post_s)
       (f r.Simulation.movement_s) (f r.Simulation.death_s) (f r.Simulation.total_s)
       (f r.Simulation.tick_p50_s) (f r.Simulation.tick_p90_s) (f r.Simulation.tick_p99_s)
       r.Simulation.index_builds r.Simulation.index_probes r.Simulation.naive_scans
       r.Simulation.uniform_hits r.Simulation.index_reuses r.Simulation.deaths
       r.Simulation.resurrections r.Simulation.faults r.Simulation.retries
       r.Simulation.rollbacks
       (String.concat ", " (List.map Telemetry.json_string r.Simulation.quarantined))
       (List.length r.Simulation.degradations));
  Buffer.add_string b "  \"sim\": ";
  Buffer.add_string b (String.trim (Telemetry.Registry.to_json (Simulation.telemetry t.sim)));
  Buffer.add_string b ",\n  \"ambient\": ";
  Buffer.add_string b (String.trim (Telemetry.Registry.to_json Telemetry.default));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let explain_text (t : t) : string =
  Eval.explain ~schema:t.prog.Core_ir.schema ~aggregates:t.prog.Core_ir.aggregates ()

let json r_status body = { Server.status = r_status; content_type = "application/json"; body }

let handler (t : t) : Server.handler =
 fun ~path ~params ->
  match path with
  | "/metrics" ->
    {
      Server.status = 200;
      content_type = Prometheus.content_type;
      body =
        Prometheus.render
          [ ("ambient", Telemetry.default); ("sim", Simulation.telemetry t.sim) ];
    }
  | "/stats" -> json 200 (report_json t)
  | "/ticks" ->
    let n =
      match List.assoc_opt "n" params with
      | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> 64)
      | None -> 64
    in
    json 200 (Flight.to_json (Flight.tail ~n t.flight))
  | "/explain" ->
    { Server.status = 200; content_type = "text/plain; charset=utf-8"; body = explain_text t }
  | "/health" ->
    let status =
      Health.assess ~sim:t.sim ~flight:t.flight ~peak_units:(Atomic.get t.peak_units)
    in
    json (if status.Health.ready then 200 else 503) (Health.to_json status)
  | "/query" -> begin
    match List.assoc_opt "q" params with
    | None | Some "" -> json 400 "{\"error\": \"missing q parameter\"}\n"
    | Some q -> begin
      match Atomic.get t.snapshot with
      | None -> json 503 "{\"error\": \"no committed tick yet\"}\n"
      | Some snapshot -> begin
        let key = Option.bind (List.assoc_opt "key" params) int_of_string_opt in
        match Query.run ~schema:t.prog.Core_ir.schema ~snapshot ?key q with
        | Ok body -> json 200 body
        | Error e ->
          json 400 (Printf.sprintf "{\"error\": %s}\n" (Telemetry.json_string e))
      end
    end
  end
  | _ ->
    {
      Server.status = 404;
      content_type = "text/plain; charset=utf-8";
      body = "unknown path; try /metrics /stats /ticks /explain /health /query\n";
    }

let serve (t : t) ~(port : int) : int =
  match t.server with
  | Some s -> Server.port s
  | None ->
    let s = Server.start ~port ~handler:(handler t) () in
    t.server <- Some s;
    Server.port s

let stop (t : t) : unit =
  Simulation.set_observer t.sim None;
  Option.iter Flight.sink_close t.sink;
  Option.iter Server.stop t.server;
  t.server <- None
