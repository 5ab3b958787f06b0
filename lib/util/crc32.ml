(* CRC-32 (IEEE 802.3), the reflected 0xEDB88320 polynomial — the same
   digest zlib and gzip use, so persisted files can be checked with
   off-the-shelf tools.  Slicing-by-8 (Kounavis and Berry): eight 256-entry
   tables, built once per process, fold a whole 64-bit little-endian word
   into the register with eight independent loads instead of eight
   dependent byte steps.  Digests live in plain ints (always in
   [0, 2^32)), so no Int32 boxing on the per-byte path.

   The word-sized entry points ([update_int], [update_float] and the
   prefixed array folds) feed fixed-width encodings straight into the
   register, so a caller that would otherwise write values into a buffer
   only to checksum it can skip the buffer. *)

type t = int

let poly = 0xEDB88320

(* [tables.((k * 256) + n)] is the register after [n] is followed by [k]
   zero bytes: table 0 is the classic byte table, table k extends table
   k-1 by one more zero byte. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* Every index is masked to 8 bits inside its table, so the loads need
   no bounds check. *)
let[@inline] tbl k n = Array.unsafe_get tables ((k lsl 8) lor n)

(* Register steps.  The register is the digest xor 0xFFFFFFFF (the
   pre/post-conditioning), which is what makes [empty] a valid digest. *)
let[@inline] step_byte c b = tbl 0 ((c lxor b) land 0xFF) lxor (c lsr 8)

(* Eight bytes at once: [lo] holds bytes 0-3 and [hi] bytes 4-7, each as
   an unsigned 32-bit little-endian value.  Byte 0 is followed by seven
   more, so it goes through table 7; byte 7 through table 0. *)
let[@inline] step_word c lo hi =
  let lo = c lxor lo in
  tbl 7 (lo land 0xFF)
  lxor tbl 6 ((lo lsr 8) land 0xFF)
  lxor tbl 5 ((lo lsr 16) land 0xFF)
  lxor tbl 4 (lo lsr 24)
  lxor tbl 3 (hi land 0xFF)
  lxor tbl 2 ((hi lsr 8) land 0xFF)
  lxor tbl 1 ((hi lsr 16) land 0xFF)
  lxor tbl 0 (hi lsr 24)

(* An int as 64-bit two's complement: [asr] sign-extends the 63-bit int. *)
let[@inline] step_int c i = step_word c (i land 0xFFFFFFFF) ((i asr 32) land 0xFFFFFFFF)

let[@inline] step_float c f =
  let bits = Int64.bits_of_float f in
  step_word c (Int64.to_int bits land 0xFFFFFFFF) (Int64.to_int (Int64.shift_right_logical bits 32))

let mask = 0xFFFFFFFF
let empty : t = 0

let update_bytes (crc : t) (b : Bytes.t) ~(pos : int) ~(len : int) : t =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.update: range out of bounds";
  let c = ref (crc lxor mask) and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let w = Bytes.get_int64_le b !i in
    c := step_word !c (Int64.to_int w land mask) (Int64.to_int (Int64.shift_right_logical w 32));
    i := !i + 8
  done;
  while !i < stop do
    c := step_byte !c (Char.code (Bytes.unsafe_get b !i));
    incr i
  done;
  !c lxor mask

let update (crc : t) (s : string) ~(pos : int) ~(len : int) : t =
  update_bytes crc (Bytes.unsafe_of_string s) ~pos ~len

let string (s : string) : t = update empty s ~pos:0 ~len:(String.length s)
let update_byte (crc : t) (b : int) : t = step_byte (crc lxor mask) (b land 0xFF) lxor mask
let update_int (crc : t) (i : int) : t = step_int (crc lxor mask) i lxor mask
let update_float (crc : t) (f : float) : t = step_float (crc lxor mask) f lxor mask

let update_prefixed_ints (crc : t) ~(prefix : int) (a : int array) : t =
  let prefix = prefix land 0xFF in
  let c = ref (crc lxor mask) in
  for i = 0 to Array.length a - 1 do
    c := step_int (step_byte !c prefix) (Array.unsafe_get a i)
  done;
  !c lxor mask

let update_prefixed_floats (crc : t) ~(prefix : int) (a : float array) : t =
  let prefix = prefix land 0xFF in
  let c = ref (crc lxor mask) in
  for i = 0 to Array.length a - 1 do
    c := step_float (step_byte !c prefix) (Array.unsafe_get a i)
  done;
  !c lxor mask

(* Digest of a concatenation from the two digests and the second length
   alone (zlib's crc32_combine).  CRC is linear over GF(2): extending
   stream A by [len_b] zero bytes is a linear map on the 32-bit state,
   built by repeated squaring of the single-zero-bit matrix, and the
   pre/post-conditioning of the two halves cancels under the final xor.
   Cost is O(log len_b) 32x32 bit-matrix squarings — independent of the
   data, which is what makes column-incremental digests pay off. *)
let gf2_times (m : int array) (v : int) : int =
  let s = ref 0 and v = ref v and i = ref 0 in
  while !v <> 0 do
    if !v land 1 <> 0 then s := !s lxor m.(!i);
    v := !v lsr 1;
    incr i
  done;
  !s

let gf2_square (m : int array) : int array = Array.map (gf2_times m) m

let combine (a : t) (b : t) ~(len_b : int) : t =
  if len_b < 0 then invalid_arg "Crc32.combine: negative length";
  if len_b = 0 then a
  else begin
    (* one-zero-bit operator: state v |-> (v >> 1) xor (poly if v land 1) *)
    let bit = Array.make 32 0 in
    bit.(0) <- poly;
    for n = 1 to 31 do
      bit.(n) <- 1 lsl (n - 1)
    done;
    (* square up to the four-zero-bit operator; the loop's first squaring
       then lands on one whole zero byte *)
    let m = ref (gf2_square (gf2_square bit)) in
    let crc = ref a and len = ref len_b in
    let looping = ref true in
    while !looping do
      m := gf2_square !m;
      if !len land 1 <> 0 then crc := gf2_times !m !crc;
      len := !len lsr 1;
      if !len = 0 then looping := false
    done;
    !crc lxor b
  end

let to_hex (t : t) : string = Printf.sprintf "%08x" (t land 0xFFFFFFFF)
