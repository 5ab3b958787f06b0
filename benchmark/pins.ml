(* Pinned reference states: the state digest and population each
   workload reaches at [check_tick] (the setup's cold tick plus the two
   warm ticks) for a given seed and army size.  [main.exe pin] writes
   them, and only where the indexed and fused evaluators agree. *)

let check_tick = 3

type pin = { workload : string; seed : int; units : int; digest : int; population : int }

let load (path : string) : pin list =
  if not (Sys.file_exists path) then []
  else
    Json.read_file path |> Json.member "pins" |> Json.to_list
    |> List.map (fun p ->
           {
             workload = Json.to_str (Json.member "workload" p);
             seed = Json.to_int (Json.member "seed" p);
             units = Json.to_int (Json.member "units" p);
             digest = Json.to_int (Json.member "digest" p);
             population = Json.to_int (Json.member "population" p);
           })

let find (pins : pin list) ~workload ~seed ~units : pin option =
  List.find_opt (fun p -> p.workload = workload && p.seed = seed && p.units = units) pins

let save (path : string) (pins : pin list) : unit =
  let pin p =
    Json.Obj
      [
        ("workload", Json.Str p.workload);
        ("seed", Json.Num (float_of_int p.seed));
        ("units", Json.Num (float_of_int p.units));
        ("digest", Json.Num (float_of_int p.digest));
        ("population", Json.Num (float_of_int p.population));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"check_tick\": %d, \"pins\": [\n  %s\n]}\n" check_tick
        (String.concat ",\n  " (List.map (fun p -> Json.to_string (pin p)) pins)))
