(* Machine-readable benchmark output.

   The harness prints human-oriented tables; CI wants numbers it can diff
   and archive.  [set_path] arms the emitter (it stays inert otherwise),
   sections push one row per measured configuration, and [write] dumps
   everything as a single JSON document:

     { "rows": [ { "section": "incremental",
                   "config": { "units": "2000", ... },
                   "ticks_per_s": 123.4,
                   "phases": { "decision_s": 0.1, ... } }, ... ] }

   Hand-rolled serialization over [Telemetry]'s JSON fragments: the only
   values are strings and finite floats, and the toolchain has no JSON
   library to lean on. *)

open Sgl

let path : string option ref = ref None
let rows : string list ref = ref [] (* serialized rows, newest first *)

let set_path (p : string) : unit = path := Some p
let enabled () : bool = Option.is_some !path

(* Where the document will land, for sections that archive companion
   files (e.g. the telemetry metrics JSON) next to it. *)
let current_path () : string option = !path

let json_object (fields : (string * string) list) : string =
  let field (k, v) = Telemetry.json_string k ^ ": " ^ v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

(* One measured configuration: [config] identifies it (evaluator, units,
   churn, ...), [phases] carries the per-phase second splits. *)
let emit ~(section : string) ~(config : (string * string) list) ~(ticks_per_s : float)
    ~(phases : (string * float) list) : unit =
  if enabled () then
    rows :=
      json_object
        [
          ("section", Telemetry.json_string section);
          ("config", json_object (List.map (fun (k, v) -> (k, Telemetry.json_string v)) config));
          ("ticks_per_s", Telemetry.json_float ticks_per_s);
          ("phases", json_object (List.map (fun (k, v) -> (k, Telemetry.json_float v)) phases));
        ]
      :: !rows

let write () : unit =
  match !path with
  | None -> ()
  | Some p ->
    let oc = open_out p in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "{\n  \"rows\": [\n";
        List.iteri
          (fun i row ->
            output_string oc "    ";
            output_string oc row;
            if i < List.length !rows - 1 then output_string oc ",";
            output_string oc "\n")
          (List.rev !rows);
        output_string oc "  ]\n}\n");
    Fmt.pr "@.json: %d rows written to %s@." (List.length !rows) p
