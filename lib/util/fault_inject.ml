(* A seeded fault-injection registry.

   Recovery code that is only exercised by real production failures is
   untested code.  This module lets the engine compile *named injection
   points* into its hot paths (e.g. "exec.group", "index.build"); a point is
   inert until armed with a firing spec, and an armed point raises
   [Injected] deterministically — by seeded probability or at an exact call
   count — so every fault-handling path is reproducible from a seed.

   The fast path is a single atomic load of an immutable array: with no
   point armed, [hit] costs one load and one length test.  Points may fire
   from any thread, so per-point call counters are atomics and the
   armed set is published as a whole (arm/reset must not race with a
   running simulation; fire counts are then exact). *)

type spec =
  | Always
  | Prob of { p : float; seed : int } (* fire when hash(seed, point, n) < p *)
  | At_count of int (* fire on exactly the Nth call, 1-based *)

exception Injected of { point : string; count : int }

let () =
  Printexc.register_printer (function
    | Injected { point; count } ->
      Some (Printf.sprintf "Fault_inject.Injected(point %s, call %d)" point count)
    | _ -> None)

(* The points compiled into the engine.  [arm] validates against this
   list: a typo in a point name must fail loudly, not silently never fire. *)
let points =
  [
    "eval.member"; "exec.group"; "index.build"; "io.checkpoint.write"; "io.journal.append";
    "io.restore.read"; "post.apply";
  ]

type point = {
  name : string;
  spec : spec;
  calls : int Atomic.t;
  fired : int Atomic.t;
}

let armed : point array Atomic.t = Atomic.make [||]

let reset () = Atomic.set armed [||]

let arm ~(point : string) (spec : spec) : unit =
  if not (List.mem point points) then
    invalid_arg
      (Printf.sprintf "Fault_inject.arm: unknown point %S (known: %s)" point
         (String.concat ", " points));
  let keep =
    List.filter (fun p -> not (String.equal p.name point)) (Array.to_list (Atomic.get armed))
  in
  let p = { name = point; spec; calls = Atomic.make 0; fired = Atomic.make 0 } in
  Atomic.set armed (Array.of_list (keep @ [ p ]))

let find name = Array.find_opt (fun p -> String.equal p.name name) (Atomic.get armed)
let calls name = match find name with None -> 0 | Some p -> Atomic.get p.calls
let fired name = match find name with None -> 0 | Some p -> Atomic.get p.fired
let armed_points () = Array.to_list (Array.map (fun p -> p.name) (Atomic.get armed))

let hit (name : string) : unit =
  let pts = Atomic.get armed in
  if Array.length pts <> 0 then
    Array.iter
      (fun p ->
        if String.equal p.name name then begin
          let n = 1 + Atomic.fetch_and_add p.calls 1 in
          let fire =
            match p.spec with
            | Always -> true
            | At_count k -> n = k
            | Prob { p; seed } -> Prng.float (Prng.create seed) [ Hashtbl.hash name; n ] < p
          in
          if fire then begin
            Atomic.incr p.fired;
            raise (Injected { point = name; count = n })
          end
        end)
      pts

(* ------------------------------------------------------------------ *)
(* CLI spec syntax: POINT:always | POINT:count=N | POINT:p=F[,seed=N] *)

let parse_spec (s : string) : (spec, string) result =
  let kv part =
    match String.index_opt part '=' with
    | None -> (part, "")
    | Some i ->
      (String.sub part 0 i, String.sub part (i + 1) (String.length part - i - 1))
  in
  match List.map kv (String.split_on_char ',' s) with
  | [ ("always", "") ] -> Ok Always
  | [ ("count", v) ] -> begin
    match int_of_string_opt v with
    | Some n when n >= 1 -> Ok (At_count n)
    | _ -> Error (Printf.sprintf "count=%S is not a positive integer" v)
  end
  | ("p", v) :: rest -> begin
    let seed =
      match rest with
      | [] -> Ok 0
      | [ ("seed", sv) ] -> begin
        match int_of_string_opt sv with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "seed=%S is not an integer" sv)
      end
      | _ -> Error "expected p=F[,seed=N]"
    in
    match (float_of_string_opt v, seed) with
    | _, Error e -> Error e
    | Some p, Ok seed when p >= 0. && p <= 1. -> Ok (Prob { p; seed })
    | _ -> Error (Printf.sprintf "p=%S is not a probability in [0, 1]" v)
  end
  | _ -> Error (Printf.sprintf "unknown spec %S (expected always, count=N or p=F[,seed=N])" s)

let parse_arg (s : string) : (string * spec, string) result =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "%S: expected POINT:SPEC" s)
  | Some i ->
    let point = String.sub s 0 i in
    let spec = String.sub s (i + 1) (String.length s - i - 1) in
    if point = "" then Error (Printf.sprintf "%S: empty point name" s)
    else Result.map (fun sp -> (point, sp)) (parse_spec spec)

let pp_spec ppf = function
  | Always -> Format.fprintf ppf "always"
  | At_count n -> Format.fprintf ppf "count=%d" n
  | Prob { p; seed } -> Format.fprintf ppf "p=%g,seed=%d" p seed
