(* Durable full-state snapshots with generations (see checkpoint.mli).

   File layout:

     "SGLCKPT\x01"  u32 version
     sections: META | SCHM | UNIT-or-COLU | QUAR | CNTR | DEGR | END!
     (each: 4-byte tag | u32 len | payload | u32 crc(payload))

   Version 2 (written by this build) stores the unit array columnar: a
   COLU section holding one typed column per schema attribute — bulk
   little-endian blits for int/float/bool columns, boxed values only for
   mixed-tag or vec columns (the same typed-or-boxed rule as the in-memory
   {!Sgl_relalg.Colstore}, so the encoding stays canonical).  Version 1
   files (row-major UNIT section) load unchanged; both decode to the
   identical unit array, and the journal's [units_digest] is computed
   over materialized rows either way.

   Writes are atomic — encode fully, write a ".tmp" sibling, fsync,
   rename, fsync the directory — so the only artifacts a crash can leave
   are a stale temp file (ignored by readers) or nothing.  Loading
   re-verifies everything: magic, version, per-section CRCs, the END
   terminator (so plain truncation cannot pass), the persisted schema
   against the engine's, and the unit count against the META section. *)

open Sgl_util
open Sgl_relalg

let magic = "SGLCKPT\x01"
let version = 2
let read_versions = [ 1; 2 ]
let inject_point = "io.checkpoint.write"

type state = {
  tick : int;
  seed : int;
  cache_epoch : int;
  units : Tuple.t array;
  quarantined : string list;
  counters : (string * int) list;
  degradations : (int * string * string) list;
}

let path ~dir ~tick = Filename.concat dir (Printf.sprintf "ckpt-%010d.sglc" tick)

(* v2 unit payload: the unit array's per-attribute typed columns, read
   from its column store.  Deterministic (so still "one state, one byte
   string"): a column is typed exactly when every stored value carries the
   schema type's constructor, boxed otherwise — [Colstore]'s column rule,
   which both its build and its copy-on-write refresh apply. *)
let encode_units_columnar (w : Codec.W.t) ~(schema : Schema.t) ~(store : Colstore.t)
    (units : Tuple.t array) : unit =
  if Colstore.length store <> Array.length units then
    invalid_arg "Checkpoint.save: the store must hold the units";
  let n = Array.length units in
  Codec.W.u32 w n;
  Codec.W.u16 w (Schema.arity schema);
  for j = 0 to Schema.arity schema - 1 do
    match Colstore.col store j with
    | Colstore.Ints a ->
      Codec.W.u8 w 0;
      let b = Bytes.create (8 * n) in
      for i = 0 to n - 1 do
        Bytes.set_int64_le b (8 * i) (Int64.of_int a.(i))
      done;
      Codec.W.raw w (Bytes.unsafe_to_string b)
    | Colstore.Floats a ->
      Codec.W.u8 w 1;
      let b = Bytes.create (8 * n) in
      for i = 0 to n - 1 do
        Bytes.set_int64_le b (8 * i) (Int64.bits_of_float a.(i))
      done;
      Codec.W.raw w (Bytes.unsafe_to_string b)
    | Colstore.Bools a ->
      Codec.W.u8 w 2;
      Codec.W.raw w (Bytes.sub_string a 0 n)
    | Colstore.Boxed a ->
      Codec.W.u8 w 3;
      for i = 0 to n - 1 do
        Codec.W.value w a.(i)
      done
  done

let decode_units_columnar (u : Codec.R.t) ~(schema : Schema.t) ~(n_units : int) : Tuple.t array =
  let n = Codec.R.u32 u in
  if n <> n_units then Codec.corrupt "unit count mismatch: META says %d, COLU holds %d" n_units n;
  let arity = Codec.R.u16 u in
  if arity <> Schema.arity schema then
    Codec.corrupt "columnar arity mismatch: COLU has %d, schema has %d" arity
      (Schema.arity schema);
  let cols = Array.make arity [||] in
  for j = 0 to arity - 1 do
    cols.(j) <-
      (match Codec.R.u8 u with
      | 0 ->
        let s = Codec.R.raw u (8 * n) in
        Array.init n (fun i -> Value.Int (Int64.to_int (String.get_int64_le s (8 * i))))
      | 1 ->
        let s = Codec.R.raw u (8 * n) in
        Array.init n (fun i -> Value.Float (Int64.float_of_bits (String.get_int64_le s (8 * i))))
      | 2 ->
        let s = Codec.R.raw u n in
        Array.init n (fun i -> Value.Bool (s.[i] <> '\000'))
      | 3 ->
        (* each value takes at least a tag byte: refuse a count the
           payload cannot hold before allocating for it *)
        Codec.R.need u n "boxed column";
        Array.init n (fun _ -> Codec.R.value u)
      | tag -> Codec.corrupt "unknown column representation %d" tag)
  done;
  Array.init n (fun i -> Array.init arity (fun j -> cols.(j).(i)))

let tick_of_filename (name : string) : int option =
  match Scanf.sscanf_opt name "ckpt-%d.sglc%!" (fun t -> t) with
  | Some t when t >= 0 -> Some t
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding *)

let section (b : Buffer.t) ~(tag : string) (fill : Codec.W.t -> unit) : unit =
  (* one injection hit per section: [count=k] tears the write after k-1
     complete sections, before anything was renamed into place *)
  Fault_inject.hit inject_point;
  let w = Codec.W.create () in
  fill w;
  Codec.write_section b ~tag (Codec.W.contents w)

let encode ~(schema : Schema.t) ~(store : Colstore.t) (st : state) : string =
  let b = Buffer.create (4096 + (64 * Array.length st.units)) in
  Codec.write_header b ~magic ~version;
  section b ~tag:"META" (fun w ->
      Codec.W.int w st.tick;
      Codec.W.int w st.seed;
      Codec.W.int w st.cache_epoch;
      Codec.W.u32 w (Array.length st.units));
  section b ~tag:"SCHM" (fun w -> Codec.W.schema w schema);
  section b ~tag:"COLU" (fun w -> encode_units_columnar w ~schema ~store st.units);
  section b ~tag:"QUAR" (fun w ->
      Codec.W.u16 w (List.length st.quarantined);
      List.iter (Codec.W.str w) st.quarantined);
  section b ~tag:"CNTR" (fun w ->
      Codec.W.u16 w (List.length st.counters);
      List.iter
        (fun (name, v) ->
          Codec.W.str w name;
          Codec.W.int w v)
        st.counters);
  section b ~tag:"DEGR" (fun w ->
      Codec.W.u32 w (List.length st.degradations);
      List.iter
        (fun (tick, from_, to_) ->
          Codec.W.int w tick;
          Codec.W.str w from_;
          Codec.W.str w to_)
        st.degradations);
  Codec.write_section b ~tag:Codec.end_tag "";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Atomic write *)

let fsync_dir (dir : string) : unit =
  (* Make the rename itself durable.  Some filesystems reject fsync on a
     directory fd; that only weakens crash ordering, so ignore it. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let save ~(dir : string) ~(fsync : bool) ~(schema : Schema.t) ~(store : Colstore.t) (st : state)
    : string =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let body = encode ~schema ~store st in
  let final = path ~dir ~tick:st.tick in
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc body;
     flush oc;
     if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  (* crash-between-write-and-rename is a real window: model it *)
  Fault_inject.hit inject_point;
  Sys.rename tmp final;
  if fsync then fsync_dir dir;
  final

(* ------------------------------------------------------------------ *)
(* Loading and validation *)

let schema_equal (a : Schema.t) (b : Schema.t) : bool =
  Schema.arity a = Schema.arity b
  && List.for_all2
       (fun (x : Schema.attr) (y : Schema.attr) ->
         String.equal x.Schema.name y.Schema.name
         && x.Schema.ty = y.Schema.ty && x.Schema.tag = y.Schema.tag)
       (Schema.attrs a) (Schema.attrs b)

let find_section (sections : (string * string) list) (tag : string) : Codec.R.t =
  match List.assoc_opt tag sections with
  | Some payload -> Codec.R.of_string payload
  | None -> Codec.corrupt "missing %S section" tag

let load ~(schema : Schema.t) (p : string) : state =
  Fault_inject.hit "io.restore.read";
  let body =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let r = Codec.R.of_string body in
  let file_version = Codec.read_header_any r ~magic ~versions:read_versions in
  let sections = Codec.read_sections r in
  let meta = find_section sections "META" in
  let tick = Codec.R.int meta in
  let seed = Codec.R.int meta in
  let cache_epoch = Codec.R.int meta in
  let n_units = Codec.R.u32 meta in
  let persisted_schema = Codec.R.schema (find_section sections "SCHM") in
  if not (schema_equal persisted_schema schema) then
    Codec.corrupt "schema mismatch: checkpoint has %a, engine expects %a" Schema.pp
      persisted_schema Schema.pp schema;
  let units =
    if file_version = 1 then begin
      let u = find_section sections "UNIT" in
      let n = Codec.R.u32 u in
      if n <> n_units then
        Codec.corrupt "unit count mismatch: META says %d, UNIT holds %d" n_units n;
      Codec.R.need u n "unit array" (* each row takes at least a byte *);
      Array.init n (fun _ -> Codec.R.tuple u)
    end
    else decode_units_columnar (find_section sections "COLU") ~schema ~n_units
  in
  Array.iteri
    (fun i t ->
      if Tuple.arity t <> Schema.arity schema then
        Codec.corrupt "unit %d has arity %d, schema has %d" i (Tuple.arity t)
          (Schema.arity schema))
    units;
  let quarantined =
    let q = find_section sections "QUAR" in
    List.init (Codec.R.u16 q) (fun _ -> Codec.R.str q)
  in
  let counters =
    let c = find_section sections "CNTR" in
    List.init (Codec.R.u16 c) (fun _ ->
        let name = Codec.R.str c in
        let v = Codec.R.int c in
        (name, v))
  in
  let degradations =
    let d = find_section sections "DEGR" in
    List.init (Codec.R.u32 d) (fun _ ->
        let tick = Codec.R.int d in
        let from_ = Codec.R.str d in
        let to_ = Codec.R.str d in
        (tick, from_, to_))
  in
  { tick; seed; cache_epoch; units; quarantined; counters; degradations }

(* ------------------------------------------------------------------ *)
(* Generations *)

let generations ~(dir : string) : int list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map tick_of_filename
    |> List.sort (fun a b -> compare b a)

let load_latest ~(schema : Schema.t) ~(dir : string) : (state * int, string) result =
  let rec go skipped errors = function
    | [] ->
      let tried =
        match errors with
        | [] -> Printf.sprintf "no checkpoint found in %s" dir
        | es ->
          Printf.sprintf "no loadable checkpoint in %s: %s" dir
            (String.concat "; " (List.rev es))
      in
      Error tried
    | tick :: rest -> begin
      let p = path ~dir ~tick in
      match load ~schema p with
      | st -> Ok (st, skipped)
      | exception Codec.Corrupt msg ->
        go (skipped + 1) (Printf.sprintf "%s: %s" (Filename.basename p) msg :: errors) rest
      | exception Sys_error msg -> go (skipped + 1) (msg :: errors) rest
      | exception Fault_inject.Injected _ ->
        (* an injected read fault stands in for an unreadable disk block *)
        go (skipped + 1)
          (Printf.sprintf "%s: injected read fault" (Filename.basename p) :: errors)
          rest
    end
  in
  go 0 [] (generations ~dir)

let prune ~(dir : string) ~(keep : int) : unit =
  let gens = generations ~dir in
  if List.length gens > keep then begin
    let kept = List.filteri (fun i _ -> i < keep) gens in
    let oldest_kept = List.fold_left min max_int kept in
    List.iteri
      (fun i tick -> if i >= keep then try Sys.remove (path ~dir ~tick) with Sys_error _ -> ())
      gens;
    (* journals older than the oldest surviving generation can no longer
       seed a replay chain *)
    Array.iter
      (fun name ->
        match Journal.base_of_filename name with
        | Some base when base < oldest_kept -> begin
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ()
        end
        | _ -> ())
      (Sys.readdir dir)
  end
