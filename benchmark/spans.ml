(* The traced run's own span recorder.

   Spans are recorded from the benchmark's side of each layer boundary:
   the root span of a traced tick is [tick:N], and its children are the
   engine step and the benchmark's calls into relalg, persist and obs.
   They stay in memory and are written once, in Chrome trace-event
   format, when the run ends.  A span's self time is its duration minus
   the part of it its child spans cover. *)

type span = {
  id : int;
  name : string;
  tick : int;
  parent : int;  (** -1 for a root *)
  start_ns : int64;
  mutable stop_ns : int64;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable open_ : span list;  (** innermost first *)
  origin : int64;
}

let create () = { spans = []; next_id = 0; open_ = []; origin = Sgl.Timer.now_ns () }

let with_ (t : t) ~(tick : int) (name : string) (f : unit -> 'a) : 'a =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next_id; name; tick; parent; start_ns = Sgl.Timer.now_ns (); stop_ns = 0L }
  in
  t.next_id <- t.next_id + 1;
  t.open_ <- s :: t.open_;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- Sgl.Timer.now_ns ();
      t.open_ <- List.tl t.open_;
      t.spans <- s :: t.spans)
    f

let duration_ns (s : span) : float = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Mean duration and mean self time (ns) of the spans called [name];
   zeros when there are none. *)
let stats (t : t) (name : string) : float * float =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration_ns s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    t.spans;
  let n, total, self =
    List.fold_left
      (fun (n, total, self) s ->
        if s.name <> name then (n, total, self)
        else
          let d = duration_ns s in
          let c = Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
          (n + 1, total +. d, self +. (d -. c)))
      (0, 0., 0.) t.spans
  in
  if n = 0 then (0., 0.) else (total /. float_of_int n, self /. float_of_int n)

let write_chrome (t : t) ~(path : string) : unit =
  let us ns = Int64.to_float (Int64.sub ns t.origin) /. 1e3 in
  let event (s : span) =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (match String.index_opt s.name '.' with
          | Some i -> String.sub s.name 0 i
          | None -> "bench"));
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.start_ns));
        ("dur", Json.Num (duration_ns s /. 1e3));
        ("pid", Json.Num 1.);
        ("tid", Json.Num 1.);
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("tick", Json.Num (float_of_int s.tick));
            ] );
      ]
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.Arr (List.rev_map event t.spans));
        ("displayTimeUnit", Json.Str "ms");
      ]
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string doc))
