(* Unified telemetry: a metrics registry and a span tracer.

   The engine's performance-critical subsystems (index builds and probes,
   transactional ticks, incremental index cache) record what they do
   through this module, the way a query processor keeps runtime statistics
   behind EXPLAIN ANALYZE:

   - a *registry* of named metrics — atomic counters (any thread records
     without locks) and histograms backed by one Welford
     accumulator ({!Stats}) each, behind a mutex because the live
     endpoint's server thread reads them while the engine records;
   - a *span tracer* that buffers (name, thread, start, duration) tuples
     and dumps them in Chrome trace-event format, so a tick can be opened
     in a trace viewer: tick > phase > script group > operator, with one
     timeline row per domain.

   Both are inert by default.  The disabled fast path is a single atomic
   load (the {!Fault_inject} pattern): handles are created once and held,
   and a record call on a disabled registry or tracer touches nothing
   else.  Nothing here feeds back into simulation state, so unit states
   are bit-identical with telemetry on, off, or under EXPLAIN — the
   differential suite pins that.

   Registries are first-class: a simulation owns a private always-on
   registry, the engine's books (its report counters, and what its
   evaluators count: eval.*, the per-aggregate agg.* and per-group
   group.* counters behind EXPLAIN), so concurrent simulations never
   share state; the global {!default} registry carries gated
   process-wide diagnostics: the exec, fused, relalg and persist
   counters. *)

(* ------------------------------------------------------------------ *)
(* Metric cells.  Every handle carries the owning registry's enabled
   flag; a disabled registry's metrics cost one atomic load to skip. *)

type counter = { c_name : string; c_cell : int Atomic.t; c_on : bool Atomic.t }

type histogram = {
  h_name : string;
  h_lock : Mutex.t;
  h_stats : Stats.t;
  h_on : bool Atomic.t;
}

type histogram_snapshot = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  total : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

module Counter = struct
  let name (c : counter) = c.c_name
  let incr (c : counter) : unit = if Atomic.get c.c_on then Atomic.incr c.c_cell

  let add (c : counter) (n : int) : unit =
    if Atomic.get c.c_on then ignore (Atomic.fetch_and_add c.c_cell n)

  (* Unconditional write, for counters that mirror engine state the report
     layer owns (rollback restores, retirement folds). *)
  let set (c : counter) (n : int) : unit = Atomic.set c.c_cell n
  let value (c : counter) : int = Atomic.get c.c_cell
end

module Histogram = struct
  let name (h : histogram) = h.h_name

  let observe (h : histogram) (v : float) : unit =
    if Atomic.get h.h_on then Mutex.protect h.h_lock (fun () -> Stats.add h.h_stats v)

  let snapshot (h : histogram) : histogram_snapshot =
    Mutex.protect h.h_lock @@ fun () ->
    let s = h.h_stats in
    let n = Stats.count s in
    {
      count = n;
      mean = (if n = 0 then 0. else Stats.mean s);
      stddev = Stats.stddev s;
      min = (if n = 0 then 0. else Stats.min_value s);
      max = (if n = 0 then 0. else Stats.max_value s);
      total = Stats.total s;
      p50 = (if n = 0 then 0. else Stats.percentile s 0.50);
      p90 = (if n = 0 then 0. else Stats.percentile s 0.90);
      p99 = (if n = 0 then 0. else Stats.percentile s 0.99);
    }
end

(* ------------------------------------------------------------------ *)
(* JSON fragments (hand-rolled: the toolchain ships no JSON library). *)

let json_escape (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_string (s : string) : string = "\"" ^ json_escape s ^ "\""

let json_float (f : float) : string =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

(* ------------------------------------------------------------------ *)
(* The registry *)

module Registry = struct
  type t = {
    on : bool Atomic.t;
    lock : Mutex.t; (* guards registration maps, not metric cells *)
    counters : (string, counter) Hashtbl.t;
    histograms : (string, histogram) Hashtbl.t;
  }

  let create ?(enabled = false) () : t =
    {
      on = Atomic.make enabled;
      lock = Mutex.create ();
      counters = Hashtbl.create 32;
      histograms = Hashtbl.create 8;
    }

  let enabled t = Atomic.get t.on
  let set_enabled t v = Atomic.set t.on v

  (* Registration is idempotent by name: the first call creates the cell,
     later calls return the same handle, so call sites may register
     eagerly at construction time and hold the handle for the run. *)
  let intern (type a) (table : (string, a) Hashtbl.t) (lock : Mutex.t) (name : string)
      (make : unit -> a) : a =
    Mutex.lock lock;
    let v =
      match Hashtbl.find_opt table name with
      | Some v -> v
      | None ->
        let v = make () in
        Hashtbl.add table name v;
        v
    in
    Mutex.unlock lock;
    v

  let counter (t : t) (name : string) : counter =
    intern t.counters t.lock name (fun () ->
        { c_name = name; c_cell = Atomic.make 0; c_on = t.on })

  let histogram (t : t) (name : string) : histogram =
    intern t.histograms t.lock name (fun () ->
        { h_name = name; h_lock = Mutex.create (); h_stats = Stats.create (); h_on = t.on })

  (* Zero every metric, keeping registrations (handles stay valid). *)
  let reset (t : t) : unit =
    Mutex.lock t.lock;
    Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) t.counters;
    Hashtbl.iter (fun _ h -> Mutex.protect h.h_lock (fun () -> Stats.reset h.h_stats)) t.histograms;
    Mutex.unlock t.lock

  let sorted_bindings (type a) (table : (string, a) Hashtbl.t) (lock : Mutex.t) :
      (string * a) list =
    Mutex.lock lock;
    let out = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
    Mutex.unlock lock;
    List.sort (fun (a, _) (b, _) -> String.compare a b) out

  let counters (t : t) : (string * int) list =
    List.map (fun (k, c) -> (k, Counter.value c)) (sorted_bindings t.counters t.lock)

  let histograms (t : t) : (string * histogram_snapshot) list =
    List.map (fun (k, h) -> (k, Histogram.snapshot h)) (sorted_bindings t.histograms t.lock)

  (* The --metrics document: every metric of this registry, sorted by
     name so diffs are stable. *)
  let to_json (t : t) : string =
    let b = Buffer.create 1024 in
    let fields kind rows render =
      Buffer.add_string b (Printf.sprintf "  %s: {" (json_string kind));
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b "\n    ";
          Buffer.add_string b (json_string k);
          Buffer.add_string b ": ";
          Buffer.add_string b (render v))
        rows;
      if rows <> [] then Buffer.add_string b "\n  ";
      Buffer.add_string b "}"
    in
    Buffer.add_string b "{\n";
    fields "counters" (counters t) string_of_int;
    Buffer.add_string b ",\n";
    fields "histograms" (histograms t) (fun (s : histogram_snapshot) ->
        Printf.sprintf
          "{\"count\": %d, \"mean\": %s, \"stddev\": %s, \"min\": %s, \"max\": %s, \"total\": %s, \"p50\": %s, \"p90\": %s, \"p99\": %s}"
          s.count (json_float s.mean) (json_float s.stddev) (json_float s.min) (json_float s.max)
          (json_float s.total) (json_float s.p50) (json_float s.p90) (json_float s.p99));
    Buffer.add_string b "\n}\n";
    Buffer.contents b

  let write_json (t : t) ~(path : string) : unit =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json t))
end

(* The process-wide ambient registry: gated diagnostics from the
   executor, the kernels, the column store and persistence land here.
   Disabled until a tool (--metrics, the live endpoint, the bench
   telemetry section) opts in. *)
let default : Registry.t = Registry.create ()

let set_enabled v = Registry.set_enabled default v
let enabled () = Registry.enabled default
let counter name = Registry.counter default name
let histogram name = Registry.histogram default name
let reset () = Registry.reset default

(* ------------------------------------------------------------------ *)
(* The span tracer *)

module Span = struct
  type event = {
    ev_name : string;
    ev_cat : string;
    ev_tid : int;
    ev_ts_ns : int64; (* relative to trace start *)
    ev_dur_ns : int64; (* -1 for instant events *)
  }

  (* One process-wide tracer.  Spans may be pushed from any thread, so
     the buffer is mutex-protected; the cost only exists while tracing
     (the disabled path is the atomic load in [with_]). *)
  let on : bool Atomic.t = Atomic.make false
  let lock = Mutex.create ()
  let events : event list ref = ref [] (* newest first *)
  let n_events = ref 0
  let t0 : int64 ref = ref 0L

  let enabled () = Atomic.get on

  let start () =
    Mutex.lock lock;
    events := [];
    n_events := 0;
    t0 := Timer.now_ns ();
    Mutex.unlock lock;
    Atomic.set on true

  let stop () = Atomic.set on false

  let count () =
    Mutex.lock lock;
    let n = !n_events in
    Mutex.unlock lock;
    n

  let push (ev : event) : unit =
    Mutex.lock lock;
    events := ev :: !events;
    incr n_events;
    Mutex.unlock lock

  let record ~(cat : string) ~(name : string) ~(start_ns : int64) ~(end_ns : int64) : unit =
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_tid = (Domain.self () :> int);
        ev_ts_ns = Int64.sub start_ns !t0;
        ev_dur_ns = Int64.sub end_ns start_ns;
      }

  (* [with_ name f] runs [f] inside a span.  The span is recorded even
     when [f] raises: a faulting phase still shows up in the trace with
     the duration it burned before failing. *)
  let with_ ?(cat = "sgl") (name : string) (f : unit -> 'a) : 'a =
    if not (Atomic.get on) then f ()
    else begin
      let start_ns = Timer.now_ns () in
      match f () with
      | result ->
        record ~cat ~name ~start_ns ~end_ns:(Timer.now_ns ());
        result
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        record ~cat ~name ~start_ns ~end_ns:(Timer.now_ns ());
        Printexc.raise_with_backtrace e bt
    end

  (* A zero-duration marker (Chrome "instant" event): faults, rollbacks,
     demotions. *)
  let instant ?(cat = "sgl") (name : string) : unit =
    if Atomic.get on then begin
      let ts = Timer.now_ns () in
      push
        {
          ev_name = name;
          ev_cat = cat;
          ev_tid = (Domain.self () :> int);
          ev_ts_ns = Int64.sub ts !t0;
          ev_dur_ns = -1L;
        }
    end

  let us_of_ns (ns : int64) : string = Printf.sprintf "%.3f" (Int64.to_float ns /. 1e3)

  let event_json (ev : event) : string =
    let common =
      Printf.sprintf "\"name\": %s, \"cat\": %s, \"pid\": 0, \"tid\": %d, \"ts\": %s"
        (json_string ev.ev_name) (json_string ev.ev_cat) ev.ev_tid (us_of_ns ev.ev_ts_ns)
    in
    if Int64.compare ev.ev_dur_ns 0L < 0 then
      Printf.sprintf "{%s, \"ph\": \"i\", \"s\": \"t\"}" common
    else Printf.sprintf "{%s, \"ph\": \"X\", \"dur\": %s}" common (us_of_ns ev.ev_dur_ns)

  (* Chrome trace-event format: a JSON array of events, oldest first.
     Load it at chrome://tracing or https://ui.perfetto.dev. *)
  let to_json () : string =
    Mutex.lock lock;
    let evs = List.rev !events in
    Mutex.unlock lock;
    let b = Buffer.create 4096 in
    Buffer.add_string b "[\n";
    List.iteri
      (fun i ev ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b "  ";
        Buffer.add_string b (event_json ev))
      evs;
    Buffer.add_string b "\n]\n";
    Buffer.contents b

  let write ~(path : string) : unit =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json ()))
end
