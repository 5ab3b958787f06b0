(* The repository benchmark: three closed-loop workloads over the engine,
   end-to-end metrics from a timed run, per-layer metrics from a traced
   run, and an output check on every run.  README.md beside this file
   describes the workloads, the metrics and their bounds.

   One workload in this process (the form BENCHMARK.json's command
   takes; the last stdout line is the result object):

     main.exe --workload W --seed N --seconds S --trace 0|1 [--ticks K] [--smoke]

   Every workload, each in its own child process:

     main.exe run [--workload W]... [--seed N] [--seconds S] [--trace]
                  [--repeat N] [--smoke] [--json PATH]

   Pin the reference digests into pins.json:

     main.exe pin

   [--root DIR] names the directory holding BENCHMARK.json (default: the
   current directory); pins.json and the _out scratch directory live in
   DIR/benchmark.  [--seconds] defaults to BENCHMARK.json's run_seconds. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--ticks K] [--smoke]\n\
    \       main.exe run [--workload W]... [--seed N] [--seconds S] [--trace] [--repeat N] \
     [--smoke] [--json PATH]\n\
    \       main.exe pin\n\
     common: [--root DIR]";
  exit 2

type args = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable ticks : int option;
  mutable trace : bool;
  mutable smoke : bool;
  mutable repeat : int;
  mutable json : string option;
  mutable root : string;
}

let parse argv =
  let a =
    {
      workloads = [];
      seed = 42;
      seconds = None;
      ticks = None;
      trace = false;
      smoke = false;
      repeat = 1;
      json = None;
      root = ".";
    }
  in
  let num conv s = match conv s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a.workloads <- a.workloads @ [ w ]; go rest
    | "--seed" :: s :: rest -> a.seed <- num int_of_string_opt s; go rest
    | "--seconds" :: s :: rest -> a.seconds <- Some (num float_of_string_opt s); go rest
    | "--ticks" :: s :: rest -> a.ticks <- Some (num int_of_string_opt s); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> a.trace <- v = "1"; go rest
    | "--trace" :: rest -> a.trace <- true; go rest
    | "--smoke" :: rest -> a.smoke <- true; go rest
    | "--repeat" :: s :: rest -> a.repeat <- num int_of_string_opt s; go rest
    | "--json" :: p :: rest -> a.json <- Some p; go rest
    | "--root" :: d :: rest -> a.root <- d; go rest
    | _ -> usage ()
  in
  go argv;
  a

let pins_path a = Filename.concat a.root "benchmark/pins.json"
let out_dir a = Filename.concat a.root "benchmark/_out"
let spec a = Json.read_file (Filename.concat a.root "BENCHMARK.json")

let seconds a =
  match a.seconds with
  | Some s -> s
  | None -> Json.to_float (Json.member "run_seconds" (spec a))

let workload name =
  match Workload.find name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
    exit 2

let metrics_json (ms : Measure.metric list) =
  Json.Obj
    (List.map
       (fun (m : Measure.metric) ->
         (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
       ms)

(* ------------------------------------------------------------------ *)
(* One workload in this process *)

let single a =
  let w = match a.workloads with [ w ] -> workload w | _ -> usage () in
  let o =
    {
      Measure.workload = w;
      seed = a.seed;
      seconds = seconds a;
      ticks = a.ticks;
      trace = a.trace;
      smoke = a.smoke;
      pins = Pins.load (pins_path a);
      out_dir = out_dir a;
    }
  in
  let r = Measure.run o in
  Printf.printf "%s seed=%d %s: %d window ticks, digest %d\n" w.name a.seed
    (if a.trace then "traced" else "timed")
    r.window_ticks r.window_digest;
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "  %-36s %14.6g %-6s (n=%d)\n" m.name m.value m.unit_ m.samples)
    r.metrics;
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "  %-36s %14.6g %-6s (n=%d, not gated)\n" m.name m.value m.unit_ m.samples)
    r.tails;
  Printf.printf "  %-36s %14.6g %-6s (%d of %d operations)\n" "error_rate"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    "ratio" r.failed r.attempted;
  List.iter (fun (name, ok) -> Printf.printf "  check %s: %s\n" (if ok then "ok" else "FAILED") name) r.checks;
  let detail =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("seed", Json.Num (float_of_int a.seed));
        ("window_ticks", Json.Num (float_of_int r.window_ticks));
        ("window_digest", Json.Num (float_of_int r.window_digest));
        ( "samples",
          Json.Obj
            (List.map
               (fun (m : Measure.metric) -> (m.name, Json.Num (float_of_int m.samples)))
               r.metrics) );
        ("checks", Json.Arr (List.map (fun (n, ok) -> Json.Arr [ Json.Str n; Json.Bool ok ]) r.checks));
      ]
  in
  print_endline ("detail " ^ Json.to_string detail);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int r.failed));
            ("metrics", metrics_json r.metrics);
          ]));
  exit (if r.correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process *)

type child = { result : Json.t; detail : Json.t; code : int }

(* Runs this executable on one workload and reads back its last two
   stdout lines.  The child's output is echoed, except under --smoke. *)
let spawn a ~workload ~trace ~ticks : child =
  let args =
    [ "--workload"; workload; "--seed"; string_of_int a.seed; "--trace"; (if trace then "1" else "0");
      "--seconds"; Printf.sprintf "%g" (seconds a); "--root"; a.root ]
    @ (match ticks with Some k -> [ "--ticks"; string_of_int k ] | None -> [])
    @ if a.smoke then [ "--smoke" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255 in
  if not a.smoke then print_string out;
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  match List.rev lines with
  | last :: detail :: _ when String.starts_with ~prefix:"detail " detail ->
    {
      result = Json.parse last;
      detail = Json.parse (String.sub detail 7 (String.length detail - 7));
      code;
    }
  | _ ->
    Printf.eprintf "%s: the child printed no result (exit %d)\n%!" workload code;
    exit 1

let metric_values (c : child) : (string * float * string) list =
  match Json.member "metrics" c.result with
  | Json.Obj l ->
    List.map
      (fun (k, v) ->
        ( k,
          (match Json.member "value" v with Json.Num f -> f | _ -> nan),
          match Json.member_opt "unit" v with Some (Json.Str u) -> u | _ -> "" ))
      l
  | _ -> []

(* statistics.quantiles(xs, n=4) with its default exclusive method *)
let quartiles (xs : float list) : float * float * float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Every metric BENCHMARK.json names is printed with a finite value and a
   unit, every trace parses, and every run checked its digests. *)
let smoke_checks a runs ~(fail : string -> unit) =
  let fail fmt = Printf.ksprintf fail fmt in
  let spec = spec a in
  let names key = List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key spec)) in
  let present name (c : child) metric =
    match List.find_opt (fun (k, _, _) -> k = metric) (metric_values c) with
    | Some (_, v, u) when Float.is_finite v && u <> "" -> ()
    | _ -> fail "%s: metric %s missing, not finite or without a unit" name metric
  in
  List.iter
    (fun (name, timed, traced) ->
      List.iter (present name timed) (names "end_to_end");
      (match traced with
      | Some t ->
        List.iter (present name t) (names "per_layer");
        let path = Filename.concat (out_dir a) (name ^ "/trace.json") in
        (match Json.read_file path with
        | _ -> ()
        | exception (Json.Error _ | Sys_error _) -> fail "%s: %s does not parse" name path)
      | None -> fail "%s: --smoke runs the traced pass too" name);
      let checks = Json.to_list (Json.member "checks" timed.detail) in
      let pinned =
        List.exists
          (fun c ->
            match c with
            | Json.Arr [ Json.Str n; Json.Bool true ] -> String.starts_with ~prefix:"pinned" n
            | _ -> false)
          checks
      in
      if not pinned then fail "%s: the pinned digest check did not run" name)
    runs

(* Per (workload, metric): median, quartiles, min/max and the quartile
   spread as a share of the median. *)
let summarise names runs =
  Printf.printf "\n%-20s %-36s %12s %12s %12s %12s %12s %8s\n" "workload" "metric" "median" "q1" "q3"
    "min" "max" "spread";
  List.iter
    (fun name ->
      let mine = List.filter (fun (n, _, _) -> n = name) runs in
      let collect get =
        List.concat_map (fun (_, timed, traced) -> match get timed traced with Some c -> metric_values c | None -> []) mine
      in
      let rows = collect (fun timed _ -> Some timed) @ collect (fun _ traced -> traced) in
      let keys = List.sort_uniq compare (List.map (fun (k, _, _) -> k) rows) in
      List.iter
        (fun k ->
          let vs = List.filter_map (fun (k', v, _) -> if k' = k then Some v else None) rows in
          let q1, med, q3 = quartiles vs in
          Printf.printf "%-20s %-36s %12.5g %12.5g %12.5g %12.5g %12.5g %7.1f%%\n" name k med q1 q3
            (List.fold_left min infinity vs) (List.fold_left max neg_infinity vs)
            (if med <> 0. then 100. *. (q3 -. q1) /. Float.abs med else 0.))
        keys)
    names

let run_all a =
  let names =
    match a.workloads with [] -> List.map (fun w -> w.Workload.name) Workload.all | l -> l
  in
  List.iter (fun n -> ignore (workload n)) names;
  a.trace <- a.trace || a.smoke;
  let ok = ref true in
  let fail_with s =
    ok := false;
    Printf.printf "FAIL: %s\n%!" s
  in
  let fail fmt = Printf.ksprintf fail_with fmt in
  let runs = ref [] in
  for pass = 1 to a.repeat do
    let order = if pass mod 2 = 0 then List.rev names else names in
    List.iter
      (fun name ->
        let timed = spawn a ~workload:name ~trace:false ~ticks:(if a.smoke then Some 5 else None) in
        if timed.code <> 0 then fail "%s: the timed run exited %d" name timed.code;
        let traced =
          if not a.trace then None
          else begin
            let ticks = Json.to_int (Json.member "window_ticks" timed.detail) in
            let t = spawn a ~workload:name ~trace:true ~ticks:(Some ticks) in
            if t.code <> 0 then fail "%s: the traced run exited %d" name t.code;
            if Json.member "window_digest" t.detail <> Json.member "window_digest" timed.detail
            then fail "%s: the traced run ends on another digest than the timed run" name;
            Some t
          end
        in
        runs := (name, timed, traced) :: !runs)
      order
  done;
  let runs = List.rev !runs in
  if a.smoke then begin
    smoke_checks a runs ~fail:fail_with;
    if !ok then
      Printf.printf "smoke: %d workloads timed and traced; metrics, traces and digests check\n"
        (List.length names)
  end;
  if a.repeat > 1 then summarise names runs;
  Option.iter
    (fun path ->
      let entry (name, timed, traced) =
        Json.Obj
          ([ ("workload", Json.Str name); ("timed", timed.result); ("timed_detail", timed.detail) ]
          @ match traced with
            | Some t -> [ ("traced", t.result); ("traced_detail", t.detail) ]
            | None -> [])
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("seed", Json.Num (float_of_int a.seed));
                    ("seconds", Json.Num (seconds a));
                    ("runs", Json.Arr (List.map entry runs));
                  ]));
          output_char oc '\n'))
    a.json;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Pinning *)

(* Every workload at seeds 42 and 7, full and smoke size, under the
   indexed and the fused evaluator to the check tick.  A pin is written
   only where the two agree. *)
let pin a =
  let state (w : Workload.t) evaluator ~seed ~n =
    Gc.compact ();
    let sim, _, _ = Measure.setup w ~evaluator ~seed ~n in
    Sgl.Simulation.run sim ~ticks:(Pins.check_tick - 1);
    (Sgl.Simulation.state_digest sim, Measure.population sim)
  in
  let ok = ref true in
  let pins =
    List.concat_map
      (fun (w : Workload.t) ->
        List.concat_map
          (fun n ->
            List.filter_map
              (fun seed ->
                let d1, p1 = state w Sgl.Simulation.Indexed ~seed ~n in
                let d2, p2 = state w Sgl.Simulation.Fused ~seed ~n in
                Printf.printf "%-20s units=%-6d seed=%-3d indexed %d/%d fused %d/%d %s\n%!" w.name n
                  seed d1 p1 d2 p2 (if (d1, p1) = (d2, p2) then "pinned" else "DISAGREE");
                if (d1, p1) = (d2, p2) then
                  Some { Pins.workload = w.name; seed; units = n; digest = d1; population = p1 }
                else (ok := false; None))
              [ 42; 7 ])
          [ w.units; w.smoke_units ])
      Workload.all
  in
  Pins.save (pins_path a) pins;
  Printf.printf "wrote %d pins to %s\n" (List.length pins) (pins_path a);
  exit (if !ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_all (parse rest)
  | "pin" :: rest -> pin (parse rest)
  | rest -> single (parse rest)
