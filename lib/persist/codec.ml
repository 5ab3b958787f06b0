(* The binary codec under durable simulation state.

   Everything is fixed-width little-endian: ints as 64-bit two's
   complement, floats as their IEEE-754 bit pattern, strings with a u32
   length prefix.  The encoding is canonical — one state, one byte string
   — which is what lets a CRC-32 of the encoded unit array stand in for
   the state itself in the journal and in the recovery differentials.
   That digest is never computed from written-out bytes: the fixed-width
   encodings go straight into the CRC register, from the committed column
   store on the engine's commit path ([store_digest_cache]) and from rows
   where a caller holds only rows ([units_digest]); both take every value
   that is not in a typed column through the one encoder [crc_value].

   Decoding is defensive throughout: every read is bounds-checked and
   every declared length is validated against the remaining input before
   it is trusted, so a torn or bit-flipped file surfaces as [Corrupt]
   rather than as an out-of-bounds access or an absurd allocation. *)

open Sgl_util
open Sgl_relalg

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* Writer: a thin layer over Buffer with the canonical encodings. *)

(* A value's leading byte names its constructor. *)
let tag_int = 0
let tag_float = 1
let tag_bool = 2
let tag_vec = 3

module W = struct
  type t = Buffer.t

  let create ?(size = 1024) () : t = Buffer.create size
  let length = Buffer.length
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

  let u16 b v =
    if v < 0 || v > 0xFFFF then corrupt "u16 out of range: %d" v;
    Buffer.add_uint16_le b v

  let u32 b v =
    if v < 0 || v > 0xFFFFFFFF then corrupt "u32 out of range: %d" v;
    Buffer.add_int32_le b (Int32.of_int v)

  let i64 b v = Buffer.add_int64_le b v
  let int b v = i64 b (Int64.of_int v)
  let float b v = i64 b (Int64.bits_of_float v)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let raw b s = Buffer.add_string b s

  let bool b v = u8 b (if v then 1 else 0)

  let value b (v : Value.t) =
    match v with
    | Value.Int i ->
      u8 b tag_int;
      int b i
    | Value.Float f ->
      u8 b tag_float;
      float b f
    | Value.Bool x ->
      u8 b tag_bool;
      bool b x
    | Value.Vec { Vec2.x; y } ->
      u8 b tag_vec;
      float b x;
      float b y

  let tuple b (t : Tuple.t) =
    u16 b (Tuple.arity t);
    Array.iter (value b) t

  let ty_code = function
    | Value.TInt -> 0
    | Value.TFloat -> 1
    | Value.TBool -> 2
    | Value.TVec -> 3

  let tag_code = function
    | Schema.Const -> 0
    | Schema.Sum -> 1
    | Schema.Max -> 2
    | Schema.Min -> 3
    | Schema.Pmax -> 4

  let schema b (s : Schema.t) =
    u16 b (Schema.arity s);
    List.iter
      (fun (a : Schema.attr) ->
        str b a.Schema.name;
        u8 b (ty_code a.Schema.ty);
        u8 b (tag_code a.Schema.tag))
      (Schema.attrs s)

  let contents = Buffer.contents
end

(* ------------------------------------------------------------------ *)
(* Reader: a cursor over an immutable string. *)

module R = struct
  type t = { s : string; mutable pos : int }

  let of_string s = { s; pos = 0 }
  let remaining r = String.length r.s - r.pos

  let need r n what =
    if n < 0 || remaining r < n then
      corrupt "truncated input: %s needs %d bytes, %d remain" what n (remaining r)

  let u8 r =
    need r 1 "u8";
    let v = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    need r 2 "u16";
    let v = String.get_uint16_le r.s r.pos in
    r.pos <- r.pos + 2;
    v

  let u32 r =
    need r 4 "u32";
    let v = Int32.to_int (String.get_int32_le r.s r.pos) land 0xFFFFFFFF in
    r.pos <- r.pos + 4;
    v

  let i64 r =
    need r 8 "i64";
    let v = String.get_int64_le r.s r.pos in
    r.pos <- r.pos + 8;
    v

  let int r =
    let v = i64 r in
    (* OCaml ints are 63-bit: a persisted value outside the native range
       cannot round-trip, so reject it rather than silently wrap. *)
    if Int64.of_int (Int64.to_int v) <> v then corrupt "int out of native range: %Ld" v;
    Int64.to_int v

  let float r = Int64.float_of_bits (i64 r)

  let raw r n =
    need r n "raw bytes";
    let v = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    v

  let str r = raw r (u32 r)

  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | v -> corrupt "invalid bool byte %d" v

  let value r : Value.t =
    match u8 r with
    | 0 -> Value.Int (int r)
    | 1 -> Value.Float (float r)
    | 2 -> Value.Bool (bool r)
    | 3 ->
      let x = float r in
      let y = float r in
      Value.Vec (Vec2.make x y)
    | tag -> corrupt "unknown value tag %d" tag

  let tuple r : Tuple.t =
    let n = u16 r in
    need r n "tuple values" (* each value is at least a tag byte *);
    Array.init n (fun _ -> value r)

  let ty_of_code = function
    | 0 -> Value.TInt
    | 1 -> Value.TFloat
    | 2 -> Value.TBool
    | 3 -> Value.TVec
    | c -> corrupt "unknown type code %d" c

  let tag_of_code = function
    | 0 -> Schema.Const
    | 1 -> Schema.Sum
    | 2 -> Schema.Max
    | 3 -> Schema.Min
    | 4 -> Schema.Pmax
    | c -> corrupt "unknown combination-tag code %d" c

  let schema r : Schema.t =
    let n = u16 r in
    let attrs =
      List.init n (fun _ ->
          let name = str r in
          let ty = ty_of_code (u8 r) in
          let tag = tag_of_code (u8 r) in
          Schema.attr ~tag name ty)
    in
    try Schema.create attrs
    with Schema.Schema_error msg -> corrupt "persisted schema invalid: %s" msg
end

(* ------------------------------------------------------------------ *)
(* Section framing *)

let end_tag = "END!"

let write_header b ~(magic : string) ~(version : int) : unit =
  if String.length magic <> 8 then invalid_arg "Codec.write_header: magic must be 8 bytes";
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int version)

let write_section b ~(tag : string) (payload : string) : unit =
  if String.length tag <> 4 then invalid_arg "Codec.write_section: tag must be 4 bytes";
  Buffer.add_string b tag;
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.add_int32_le b (Int32.of_int (Crc32.string payload))

let read_header_any (r : R.t) ~(magic : string) ~(versions : int list) : int =
  R.need r 8 "magic";
  let got = String.sub r.R.s r.R.pos 8 in
  if not (String.equal got magic) then corrupt "bad magic %S (want %S)" got magic;
  r.R.pos <- r.R.pos + 8;
  let v = R.u32 r in
  if not (List.mem v versions) then
    corrupt "unsupported version %d (this build reads versions %s)" v
      (String.concat ", " (List.map string_of_int versions));
  v

let read_header (r : R.t) ~(magic : string) ~(version : int) : unit =
  ignore (read_header_any r ~magic ~versions:[ version ])

let read_sections (r : R.t) : (string * string) list =
  let rec go acc =
    R.need r 4 "section tag";
    let tag = String.sub r.R.s r.R.pos 4 in
    r.R.pos <- r.R.pos + 4;
    let len = R.u32 r in
    R.need r len (Printf.sprintf "section %S payload" tag);
    let payload = String.sub r.R.s r.R.pos len in
    r.R.pos <- r.R.pos + len;
    let stored = R.u32 r in
    let actual = Crc32.string payload in
    if stored <> actual then
      corrupt "section %S checksum mismatch: stored %s, computed %s" tag (Crc32.to_hex stored)
        (Crc32.to_hex actual);
    if String.equal tag end_tag then begin
      if R.remaining r <> 0 then corrupt "%d trailing bytes after terminator" (R.remaining r);
      List.rev acc
    end
    else go ((tag, payload) :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Record framing: the journal and the flight recorder append records
   as [u32 len | payload | u32 crc(payload)] frames after a header.  A
   short, checksum-failing or undecodable frame ends the read: it is what
   a crash mid-append leaves behind. *)

let frame (payload : string) : string =
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.add_int32_le b (Int32.of_int (Crc32.string payload));
  Buffer.contents b

let read_frames (r : R.t) (decode : string -> 'a) : 'a list * bool =
  let rec go acc =
    if R.remaining r = 0 then (List.rev acc, false)
    else
      match
        let len = R.u32 r in
        R.need r (len + 4) "frame";
        let payload = R.raw r len in
        if R.u32 r <> Crc32.string payload then corrupt "frame checksum mismatch";
        decode payload
      with
      | v -> go (v :: acc)
      | exception Corrupt _ -> (List.rev acc, true)
  in
  go []

(* ------------------------------------------------------------------ *)
(* State fingerprints *)

(* The digest is the CRC-32 of a canonical *column-major* encoding:

     u32 count | u16 arity | column 0 values | column 1 values | ...

   where a column's bytes are the [W.value] encodings of that attribute
   down the array.  Column-major order is what makes the digest
   incrementally maintainable: the CRC of each column is cached with its
   byte length, and a committed tick that dirtied only a few columns
   (per the {!Sgl_relalg.Delta} summary — the same contract the column
   store's copy-on-write refresh trusts) recombines cached clean-column
   CRCs with recomputed dirty ones via {!Sgl_util.Crc32.combine} in
   O(dirty data + log clean data) instead of re-encoding the world.

   Nothing is written out to be checksummed: the bytes go straight into
   the CRC register.  A committed store's [Floats] and [Ints] columns are
   folded a whole typed array per call; every other value, and every
   value of the row API, goes through the one per-value feed
   [crc_value], so the two sources cannot encode differently. *)

type digest_cache = {
  dc_units : int; (* row count the cached columns describe *)
  dc_cols : (int * int) array; (* per column: CRC-32, encoded byte length *)
}

(* [W.value v]'s bytes, folded into [crc]; [value_width v] counts them. *)
let crc_value (crc : Crc32.t) (v : Value.t) : Crc32.t =
  match v with
  | Value.Int i -> Crc32.update_int (Crc32.update_byte crc tag_int) i
  | Value.Float f -> Crc32.update_float (Crc32.update_byte crc tag_float) f
  | Value.Bool b -> Crc32.update_byte (Crc32.update_byte crc tag_bool) (if b then 1 else 0)
  | Value.Vec { Vec2.x; y } ->
    Crc32.update_float (Crc32.update_float (Crc32.update_byte crc tag_vec) x) y

let value_width : Value.t -> int = function
  | Value.Int _ | Value.Float _ -> 9
  | Value.Bool _ -> 2
  | Value.Vec _ -> 17

let values_digest (n : int) (value : int -> Value.t) : int * int =
  let crc = ref Crc32.empty and len = ref 0 in
  for i = 0 to n - 1 do
    let v = value i in
    crc := crc_value !crc v;
    len := !len + value_width v
  done;
  (!crc, !len)

let column_digest (units : Tuple.t array) (j : int) : int * int =
  values_digest (Array.length units) (fun i -> units.(i).(j))

let bool_values = [| Value.Bool false; Value.Bool true |]

let store_column_digest (store : Colstore.t) (j : int) : int * int =
  let n = Colstore.length store in
  match Colstore.col store j with
  | Colstore.Floats a -> (Crc32.update_prefixed_floats Crc32.empty ~prefix:tag_float a, 9 * n)
  | Colstore.Ints a -> (Crc32.update_prefixed_ints Crc32.empty ~prefix:tag_int a, 9 * n)
  | Colstore.Bools a -> values_digest n (fun i -> bool_values.(Char.code (Bytes.get a i)))
  | Colstore.Boxed a -> values_digest n (Array.get a)

let digest_of_cache (c : digest_cache) : int =
  let hdr = W.create ~size:8 () in
  W.u32 hdr c.dc_units;
  W.u16 hdr (Array.length c.dc_cols);
  Array.fold_left
    (fun acc (crc, len) -> Crc32.combine acc crc ~len_b:len)
    (Crc32.string (W.contents hdr))
    c.dc_cols

(* The full and incremental computations over [units] rows of [arity]
   columns whose per-column digests [column] gives.  An empty population
   encodes no columns, whatever the schema. *)
let cache_of ~units ~arity column = { dc_units = units; dc_cols = Array.init arity column }

let incremental (prev : digest_cache) ~(dirty : int list) ~units ~arity column =
  if units <> prev.dc_units || arity <> Array.length prev.dc_cols then
    (* shape changed under a non-structural claim: recompute rather than
       trust a summary that cannot be right *)
    cache_of ~units ~arity column
  else begin
    let cols = Array.copy prev.dc_cols in
    List.iter (fun j -> if j >= 0 && j < arity then cols.(j) <- column j) dirty;
    { prev with dc_cols = cols }
  end

let rows_arity (units : Tuple.t array) = if Array.length units = 0 then 0 else Tuple.arity units.(0)

let store_arity (store : Colstore.t) =
  if Colstore.length store = 0 then 0 else Schema.arity (Colstore.schema store)

let units_digest_cache (units : Tuple.t array) : digest_cache =
  cache_of ~units:(Array.length units) ~arity:(rows_arity units) (column_digest units)

let units_digest (units : Tuple.t array) : int = digest_of_cache (units_digest_cache units)

let units_digest_incremental (prev : digest_cache) ~(dirty : int list)
    (units : Tuple.t array) : digest_cache =
  incremental prev ~dirty ~units:(Array.length units) ~arity:(rows_arity units)
    (column_digest units)

let store_digest_cache (store : Colstore.t) : digest_cache =
  cache_of ~units:(Colstore.length store) ~arity:(store_arity store) (store_column_digest store)

let store_digest_incremental (prev : digest_cache) ~(dirty : int list) (store : Colstore.t) :
    digest_cache =
  incremental prev ~dirty ~units:(Colstore.length store) ~arity:(store_arity store)
    (store_column_digest store)
