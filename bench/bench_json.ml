(* Machine-readable benchmark output.

   The harness prints human-oriented tables; CI wants numbers it can diff
   and archive.  Setting [path] arms the emitter (it stays inert otherwise),
   sections push one row per measured configuration, and [write] dumps
   everything as a single JSON document:

     { "rows": [ { "section": "incremental",
                   "config": { "units": "2000", ... },
                   "metrics": { "ticks_per_s": { "value": 123.4, "better": "higher",
                                                 "kind": "time" },
                                "post_ms": { "value": 0.2 }, ... } }, ... ] }

   A metric with a [better] direction is gated by scripts/bench-regress.sh
   against the archived value, by its [kind]: a "count" of deterministic
   work (moved only by the code) may not get worse at all, a "time" (wall
   clock, moved by the host's load too) may not get worse by more than the
   threshold in two runs.  A metric without a direction is there to be read.

   Hand-rolled serialization over [Telemetry]'s JSON fragments: the only
   values are strings and finite floats, and the toolchain has no JSON
   library to lean on. *)

open Sgl

(* [gate]: the better direction and the kind, as written to the JSON *)
type metric = { name : string; value : float; gate : (string * string) option }

type row = { section : string; config : (string * string) list; metrics : metric list }

let higher name value = { name; value; gate = Some ("higher", "time") }
let lower name value = { name; value; gate = Some ("lower", "time") }
let more name value = { name; value; gate = Some ("higher", "count") }
let fewer name value = { name; value; gate = Some ("lower", "count") }
let info name value = { name; value; gate = None }

(* The phase metrics of the ticks between two reports of one simulation:
   per-tick means of each phase, of which the decision phase (most of a
   tick) is gated, and the index work per tick, which is deterministic
   and gated. *)
let phases ~(since : Simulation.report) (r : Simulation.report) : metric list =
  let ticks = float_of_int (r.Simulation.ticks - since.Simulation.ticks) in
  let ms f = 1000. *. (f r -. f since) /. ticks in
  let per_tick f = float_of_int (f r - f since) /. ticks in
  [
    lower "decision_ms" (ms (fun r -> r.Simulation.decision_s));
    info "build_ms" (ms (fun r -> r.Simulation.build_s));
    info "post_ms" (ms (fun r -> r.Simulation.post_s));
    info "movement_ms" (ms (fun r -> r.Simulation.movement_s));
    info "death_ms" (ms (fun r -> r.Simulation.death_s));
    fewer "index_builds_per_tick" (per_tick (fun r -> r.Simulation.index_builds));
    more "index_reuses_per_tick" (per_tick (fun r -> r.Simulation.index_reuses));
    fewer "index_probes_per_tick" (per_tick (fun r -> r.Simulation.index_probes));
  ]

(* Where the document will land, once armed; sections read it to archive
   companion files (e.g. the telemetry metrics JSON) next to it. *)
let path : string option ref = ref None
let rows : string list ref = ref [] (* serialized rows, newest first *)

let json_object (fields : (string * string) list) : string =
  let field (k, v) = Telemetry.json_string k ^ ": " ^ v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

let emit (r : row) : unit =
  let metric m =
    let gate =
      match m.gate with
      | None -> []
      | Some (better, kind) ->
        [ ("better", Telemetry.json_string better); ("kind", Telemetry.json_string kind) ]
    in
    (m.name, json_object (("value", Telemetry.json_float m.value) :: gate))
  in
  if Option.is_some !path then
    rows :=
      json_object
        [
          ("section", Telemetry.json_string r.section);
          ("config", json_object (List.map (fun (k, v) -> (k, Telemetry.json_string v)) r.config));
          ("metrics", json_object (List.map metric r.metrics));
        ]
      :: !rows

let write () : unit =
  match !path with
  | None -> ()
  | Some p ->
    Out_channel.with_open_bin p (fun oc ->
        output_string oc "{\n  \"rows\": [\n    ";
        output_string oc (String.concat ",\n    " (List.rev !rows));
        output_string oc "\n  ]\n}\n");
    Fmt.pr "@.json: %d rows written to %s@." (List.length !rows) p
