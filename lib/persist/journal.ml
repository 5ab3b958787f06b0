(* The per-tick commit journal (see journal.mli for the design).

   File layout:

     "SGLJRNL\x01"  u32 version  u64 base_tick  u32 crc(base_tick bytes)
     record*        where record = u32 len | payload | u32 crc(payload)
                    ([Codec.frame])

   Appends go through a buffered channel followed by flush (+ fsync when
   armed): a record is either wholly on disk or recognizably torn, and
   fsync ordering means record N is durable before N+1 exists. *)

open Sgl_util

let magic = "SGLJRNL\x01"

(* Version 2: [j_digest] is the column-major [Codec.units_digest].
   Version 1 files carry row-major digests that would spuriously diverge
   under replay verification, so they are refused outright. *)
let version = 2

type entry = {
  j_tick : int;
  j_units : int;
  j_digest : int;
  j_deaths : int;
  j_resurrections : int;
  j_structural : bool;
  j_dirty_attrs : int list;
  j_dirty_keys : int;
}

let path ~dir ~base = Filename.concat dir (Printf.sprintf "jrnl-%010d.sglj" base)

let base_of_filename (name : string) : int option =
  match Scanf.sscanf_opt name "jrnl-%d.sglj%!" (fun t -> t) with
  | Some t when t >= 0 -> Some t
  | _ -> None

type writer = {
  oc : out_channel;
  fsync : bool;
  mutable bytes : int;
  mutable closed : bool;
}

let header_string ~(base : int) : string =
  let payload = Codec.W.create ~size:8 () in
  Codec.W.int payload base;
  let p = Codec.W.contents payload in
  let b = Buffer.create 32 in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int version);
  Buffer.add_string b p;
  Buffer.add_int32_le b (Int32.of_int (Crc32.string p));
  Buffer.contents b

let create ~(dir : string) ~(base : int) ~(fsync : bool) : writer =
  let oc = open_out_bin (path ~dir ~base) in
  let w = { oc; fsync; bytes = 0; closed = false } in
  output_string oc (header_string ~base);
  flush oc;
  if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
  w

let encode_entry (e : entry) : string =
  let b = Codec.W.create ~size:64 () in
  Codec.W.int b e.j_tick;
  Codec.W.u32 b e.j_units;
  Codec.W.u32 b e.j_digest;
  Codec.W.int b e.j_deaths;
  Codec.W.int b e.j_resurrections;
  Codec.W.bool b e.j_structural;
  Codec.W.u16 b (List.length e.j_dirty_attrs);
  List.iter (Codec.W.u16 b) e.j_dirty_attrs;
  Codec.W.u32 b e.j_dirty_keys;
  Codec.W.contents b

let decode_entry (payload : string) : entry =
  let r = Codec.R.of_string payload in
  let j_tick = Codec.R.int r in
  let j_units = Codec.R.u32 r in
  let j_digest = Codec.R.u32 r in
  let j_deaths = Codec.R.int r in
  let j_resurrections = Codec.R.int r in
  let j_structural = Codec.R.bool r in
  let n = Codec.R.u16 r in
  let j_dirty_attrs = List.init n (fun _ -> Codec.R.u16 r) in
  let j_dirty_keys = Codec.R.u32 r in
  { j_tick; j_units; j_digest; j_deaths; j_resurrections; j_structural; j_dirty_attrs;
    j_dirty_keys }

let append (w : writer) (e : entry) : unit =
  Fault_inject.hit "io.journal.append";
  if w.closed then raise (Sys_error "journal: append after close");
  let payload = encode_entry e in
  output_string w.oc (Codec.frame payload);
  flush w.oc;
  if w.fsync then Unix.fsync (Unix.descr_of_out_channel w.oc);
  w.bytes <- w.bytes + String.length payload

let bytes_written (w : writer) = w.bytes

let close (w : writer) : unit =
  if not w.closed then begin
    w.closed <- true;
    close_out w.oc
  end

(* ------------------------------------------------------------------ *)
(* Reading *)

let read_file (p : string) : string option =
  if not (Sys.file_exists p) then None
  else begin
    Fault_inject.hit "io.restore.read";
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end

let read ~(dir : string) ~(base : int) : entry list * bool =
  match read_file (path ~dir ~base) with
  | None -> ([], false)
  | Some s ->
    let r = Codec.R.of_string s in
    Codec.read_header r ~magic ~version;
    let hdr_len = Codec.R.remaining r in
    if hdr_len < 12 then Codec.corrupt "journal header truncated";
    let stored_base = Codec.R.int r in
    let crc = Codec.R.u32 r in
    let expect =
      let b = Codec.W.create ~size:8 () in
      Codec.W.int b stored_base;
      Crc32.string (Codec.W.contents b)
    in
    if crc <> expect then Codec.corrupt "journal header checksum mismatch";
    if stored_base <> base then
      Codec.corrupt "journal base tick %d does not match file name (%d)" stored_base base;
    (* Records: a torn tail is not an error, it is what a crash mid-append
       is supposed to leave behind. *)
    Codec.read_frames r decode_entry
