(* The flight recorder: a black box for the tick loop.

   A fixed-capacity ring of {!Sgl_engine.Simulation.tick_sample}s, written
   by the simulation thread from the per-commit observer and read by the
   live endpoint (/ticks, /health) and the post-mortem dumpers.  The ring
   is bounded so a week-long run cannot grow it; the mutex is held for an
   array store, so the tick loop never blocks behind a reader for long.

   Two persistent forms share one CRC-framed binary format:

   - [dump] writes the ring's current contents in one shot (the
     on-demand / exit-path black box);
   - a [sink] streams every record to an append-only file at commit time,
     flushing each frame, so a SIGKILL loses at most the record the OS
     had not yet seen — the same durability story as the commit journal,
     minus the fsync (forensics, not recovery, so losing the last frame
     to a power cut is acceptable).

   Each frame is [u32 length | payload | u32 crc], the journal's record
   frame ({!Sgl_persist.Codec.frame}).  The loader verifies every CRC and
   stops at the first torn or corrupt frame, returning what it read plus
   a torn flag ({!Sgl_persist.Codec.read_frames}, as the journal does). *)

open Sgl_util
open Sgl_engine

type sample = Simulation.tick_sample

let magic = "SGLFLITE"
let version = 1

(* ------------------------------------------------------------------ *)
(* The ring *)

type t = {
  capacity : int;
  buf : sample array; (* slot [i mod capacity]; dummy-filled until written *)
  lock : Mutex.t;
  mutable total : int; (* samples ever recorded *)
}

let dummy : sample =
  {
    Simulation.s_tick = -1;
    s_units = 0;
    s_digest = 0;
    s_tick_s = 0.;
    s_decision_s = 0.;
    s_post_s = 0.;
    s_movement_s = 0.;
    s_death_s = 0.;
    s_deaths = 0;
    s_resurrections = 0;
    s_faults = 0;
    s_rollbacks = 0;
    s_retries = 0;
    s_demotions = 0;
    s_index_builds = 0;
    s_index_reuses = 0;
    s_evaluator = "";
  }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  { capacity; buf = Array.make capacity dummy; lock = Mutex.create (); total = 0 }

let capacity t = t.capacity

let record t (s : sample) : unit =
  Mutex.lock t.lock;
  t.buf.(t.total mod t.capacity) <- s;
  t.total <- t.total + 1;
  Mutex.unlock t.lock

let total t =
  Mutex.lock t.lock;
  let n = t.total in
  Mutex.unlock t.lock;
  n

let length t = min (total t) t.capacity

(* The newest [n] samples, oldest first. *)
let tail ?n t : sample list =
  Mutex.lock t.lock;
  let kept = min t.total t.capacity in
  let want = match n with None -> kept | Some n -> max 0 (min n kept) in
  let out = ref [] in
  for i = t.total - want to t.total - 1 do
    out := t.buf.(i mod t.capacity) :: !out
  done;
  Mutex.unlock t.lock;
  List.rev !out

let last t : sample option =
  Mutex.lock t.lock;
  let s = if t.total = 0 then None else Some t.buf.((t.total - 1) mod t.capacity) in
  Mutex.unlock t.lock;
  s

(* ------------------------------------------------------------------ *)
(* Binary encoding *)

module Codec = Sgl_persist.Codec

let encode_sample (s : sample) : string =
  let w = Codec.W.create ~size:128 () in
  Codec.W.int w s.Simulation.s_tick;
  Codec.W.int w s.s_units;
  Codec.W.int w s.s_digest;
  Codec.W.float w s.s_tick_s;
  Codec.W.float w s.s_decision_s;
  Codec.W.float w s.s_post_s;
  Codec.W.float w s.s_movement_s;
  Codec.W.float w s.s_death_s;
  Codec.W.int w s.s_deaths;
  Codec.W.int w s.s_resurrections;
  Codec.W.int w s.s_faults;
  Codec.W.int w s.s_rollbacks;
  Codec.W.int w s.s_retries;
  Codec.W.int w s.s_demotions;
  Codec.W.int w s.s_index_builds;
  Codec.W.int w s.s_index_reuses;
  Codec.W.str w s.s_evaluator;
  Codec.W.contents w

let decode_sample (payload : string) : sample =
  let r = Codec.R.of_string payload in
  let s_tick = Codec.R.int r in
  let s_units = Codec.R.int r in
  let s_digest = Codec.R.int r in
  let s_tick_s = Codec.R.float r in
  let s_decision_s = Codec.R.float r in
  let s_post_s = Codec.R.float r in
  let s_movement_s = Codec.R.float r in
  let s_death_s = Codec.R.float r in
  let s_deaths = Codec.R.int r in
  let s_resurrections = Codec.R.int r in
  let s_faults = Codec.R.int r in
  let s_rollbacks = Codec.R.int r in
  let s_retries = Codec.R.int r in
  let s_demotions = Codec.R.int r in
  let s_index_builds = Codec.R.int r in
  let s_index_reuses = Codec.R.int r in
  let s_evaluator = Codec.R.str r in
  {
    Simulation.s_tick;
    s_units;
    s_digest;
    s_tick_s;
    s_decision_s;
    s_post_s;
    s_movement_s;
    s_death_s;
    s_deaths;
    s_resurrections;
    s_faults;
    s_rollbacks;
    s_retries;
    s_demotions;
    s_index_builds;
    s_index_reuses;
    s_evaluator;
  }

let frame_of (s : sample) : string = Codec.frame (encode_sample s)

let header () : string =
  let b = Buffer.create 16 in
  Codec.write_header b ~magic ~version;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* One-shot dump and streaming sink *)

let write_all (oc : out_channel) (samples : sample list) : unit =
  output_string oc (header ());
  List.iter (fun s -> output_string oc (frame_of s)) samples

let dump t ~(path : string) : unit =
  let samples = tail t in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_all oc samples)

type sink = { s_oc : out_channel; mutable s_closed : bool }

let sink_open ~(path : string) : sink =
  let oc = open_out_bin path in
  output_string oc (header ());
  flush oc;
  { s_oc = oc; s_closed = false }

(* Flush per record, no fsync: after SIGKILL the OS still writes what the
   process handed it, so only a machine crash can cost frames. *)
let sink_record (k : sink) (s : sample) : unit =
  if not k.s_closed then begin
    output_string k.s_oc (frame_of s);
    flush k.s_oc
  end

let sink_close (k : sink) : unit =
  if not k.s_closed then begin
    k.s_closed <- true;
    close_out k.s_oc
  end

(* ------------------------------------------------------------------ *)
(* Loading *)

let load ~(path : string) : (sample list * bool, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> begin
    let r = Codec.R.of_string contents in
    match Codec.read_header r ~magic ~version with
    | exception Codec.Corrupt e -> Error e
    | () -> Ok (Codec.read_frames r decode_sample)
  end

(* ------------------------------------------------------------------ *)
(* JSON *)

let sample_json (s : sample) : string =
  let f = Telemetry.json_float in
  Printf.sprintf
    "{\"tick\": %d, \"units\": %d, \"digest\": \"%08x\", \"tick_s\": %s, \"decision_s\": %s, \
     \"post_s\": %s, \"movement_s\": %s, \"death_s\": %s, \"deaths\": %d, \"resurrections\": %d, \
     \"faults\": %d, \"rollbacks\": %d, \"retries\": %d, \"demotions\": %d, \"index_builds\": %d, \
     \"index_reuses\": %d, \"evaluator\": %s}"
    s.Simulation.s_tick s.s_units s.s_digest (f s.s_tick_s) (f s.s_decision_s) (f s.s_post_s)
    (f s.s_movement_s) (f s.s_death_s) s.s_deaths s.s_resurrections s.s_faults s.s_rollbacks
    s.s_retries s.s_demotions s.s_index_builds s.s_index_reuses
    (Telemetry.json_string s.s_evaluator)

let to_json (samples : sample list) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  ";
      Buffer.add_string b (sample_json s))
    samples;
  if samples <> [] then Buffer.add_char b '\n';
  Buffer.add_string b "]\n";
  Buffer.contents b
