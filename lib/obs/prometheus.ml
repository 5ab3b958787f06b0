(* Prometheus text exposition (format 0.0.4) over telemetry registries.

   Metric names are the registry's dotted names with non-alphanumerics
   mapped to '_' and an "sgl_" prefix; the owning registry becomes a
   [registry="..."] label, so the ambient process-wide registry and a
   simulation's private one coexist in one scrape.  Histograms render as
   summaries: the merge-exact log-bucket quantiles plus _sum/_count. *)

open Sgl_util

let sanitize (name : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let metric_name (name : string) : string = "sgl_" ^ sanitize name

(* Prometheus floats: plain decimal; NaN for undefined. *)
let render_float (v : float) : string =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

type row =
  | Counter of int
  | Summary of Telemetry.histogram_snapshot

(* Group by metric name across registries so each # TYPE header appears
   exactly once, as the exposition format requires. *)
let render (registries : (string * Telemetry.Registry.t) list) : string =
  let rows : (string, (string * row) list ref) Hashtbl.t = Hashtbl.create 64 in
  let order : string list ref = ref [] in
  let push name label row =
    match Hashtbl.find_opt rows name with
    | Some cell -> cell := (label, row) :: !cell
    | None ->
      Hashtbl.add rows name (ref [ (label, row) ]);
      order := name :: !order
  in
  List.iter
    (fun (label, reg) ->
      List.iter (fun (n, v) -> push (metric_name n) label (Counter v)) (Telemetry.Registry.counters reg);
      List.iter
        (fun (n, s) -> push (metric_name n) label (Summary s))
        (Telemetry.Registry.histograms reg))
    registries;
  let b = Buffer.create 4096 in
  List.iter
    (fun name ->
      let entries = List.rev !(Hashtbl.find rows name) in
      let ty =
        match entries with
        | (_, Counter _) :: _ -> "counter"
        | (_, Summary _) :: _ -> "summary"
        | [] -> "untyped"
      in
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name ty);
      List.iter
        (fun (label, row) ->
          match row with
          | Counter v -> Buffer.add_string b (Printf.sprintf "%s{registry=%S} %d\n" name label v)
          | Summary s ->
            List.iter
              (fun (q, v) ->
                Buffer.add_string b
                  (Printf.sprintf "%s{registry=%S,quantile=%S} %s\n" name label q (render_float v)))
              [ ("0.5", s.Telemetry.p50); ("0.9", s.Telemetry.p90); ("0.99", s.Telemetry.p99) ];
            Buffer.add_string b
              (Printf.sprintf "%s_sum{registry=%S} %s\n" name label (render_float s.Telemetry.total));
            Buffer.add_string b
              (Printf.sprintf "%s_count{registry=%S} %d\n" name label s.Telemetry.count))
        entries)
    (List.rev !order);
  Buffer.contents b

let content_type = "text/plain; version=0.0.4"
