(* Per-tick delta summaries: which attributes changed, which units were
   touched, and whether the tick changed the population structurally.

   The summary is the tick's one change record: the mutation phases
   (post-processing, movement, death handling) record into it on every
   tick; the commit and the journal read it, and the next tick's index
   cache validates against it.  It is deliberately coarse — one global
   dirty-attribute set plus one dirty-unit set — because the cache only
   needs two sound facts:

   - an attribute absent from [dirty_attrs] has the same value on every
     unit as last tick, so any structure reading only clean attributes is
     reusable verbatim;
   - a position absent from the dirty-unit set holds a unit none of whose
     attributes changed, so a partition containing no dirty position is
     reusable even when some of its input attributes are globally dirty.

   Units are named by their position in the tick's unit array, which is
   also their position in the committed array whenever the tick is not
   structural: the set is a byte map over positions, with no key hashing.
   [structural] covers everything positional: units died, were resurrected,
   or the array order changed, so positions no longer name the same units
   and every structure must be rebuilt.  Over-reporting attributes or
   marking a tick structural is sound (it only costs rebuilds);
   under-reporting is a correctness bug, pinned by the differential
   suite's [of_tuples] cross-check.  A recorded position, though, means
   the tick owns that unit's row (a copy no committed array shares, so
   later phases write into it): post-processing records a position
   exactly when it copies the row, movement only where it copies or
   moves it, and no phase may record a position whose row it did not
   copy. *)

type t = {
  schema : Schema.t;
  dirty_attrs : bool array; (* indexed by schema attribute *)
  mutable n_dirty_attrs : int;
  mutable dirty_units : Bytes.t; (* by position: '\001' when dirty; grows on demand *)
  mutable n_dirty_units : int;
  mutable structural : bool;
}

let create (schema : Schema.t) : t =
  {
    schema;
    dirty_attrs = Array.make (Schema.arity schema) false;
    n_dirty_attrs = 0;
    dirty_units = Bytes.empty;
    n_dirty_units = 0;
    structural = false;
  }

let record (t : t) ~(attr : int) ~(pos : int) : unit =
  if not t.dirty_attrs.(attr) then begin
    t.dirty_attrs.(attr) <- true;
    t.n_dirty_attrs <- t.n_dirty_attrs + 1
  end;
  let len = Bytes.length t.dirty_units in
  if pos >= len then begin
    let grown = Bytes.make (max (pos + 1) (2 * len)) '\000' in
    Bytes.blit t.dirty_units 0 grown 0 len;
    t.dirty_units <- grown
  end;
  if Bytes.get t.dirty_units pos = '\000' then begin
    Bytes.set t.dirty_units pos '\001';
    t.n_dirty_units <- t.n_dirty_units + 1
  end

let record_structural (t : t) : unit = t.structural <- true

let structural (t : t) : bool = t.structural
let dirty_attr (t : t) (attr : int) : bool = t.dirty_attrs.(attr)

let dirty_pos (t : t) (pos : int) : bool =
  pos < Bytes.length t.dirty_units && Bytes.get t.dirty_units pos <> '\000'

let dirty_key_count (t : t) : int = t.n_dirty_units

let dirty_positions (t : t) : int array =
  let out = Array.make t.n_dirty_units 0 and k = ref 0 and pos = ref 0 in
  (* stops at the last dirty position *)
  while !k < t.n_dirty_units do
    if Bytes.get t.dirty_units !pos <> '\000' then begin
      out.(!k) <- !pos;
      incr k
    end;
    incr pos
  done;
  out

let dirty_attrs (t : t) : int list =
  let out = ref [] in
  for i = Array.length t.dirty_attrs - 1 downto 0 do
    if t.dirty_attrs.(i) then out := i :: !out
  done;
  !out

(* The ground-truth delta between two unit arrays, for tests: positional
   compare when the populations align, structural otherwise.  Values are
   compared with [Value.identical], as the digest and the columnar store
   see them.  A recorded summary is sound iff it covers everything this
   reports. *)
let of_tuples ~(schema : Schema.t) ~(before : Tuple.t array) ~(after : Tuple.t array) : t =
  let d = create schema in
  if Array.length before <> Array.length after then record_structural d
  else
    Array.iteri
      (fun pos b ->
        let a = after.(pos) in
        if Tuple.key schema b <> Tuple.key schema a then record_structural d
        else
          for attr = 0 to Schema.arity schema - 1 do
            if not (Value.identical (Tuple.get b attr) (Tuple.get a attr)) then
              record d ~attr ~pos
          done)
      before;
  d

(* [covers ~summary ~truth]: does the recorded summary account for every
   change the ground truth reports?  (The soundness obligation.) *)
let covers ~(summary : t) ~(truth : t) : bool =
  let units_covered () =
    let ok = ref true in
    for pos = 0 to Bytes.length truth.dirty_units - 1 do
      if dirty_pos truth pos && not (dirty_pos summary pos) then ok := false
    done;
    !ok
  in
  if truth.structural then summary.structural
  else
    summary.structural
    || (Array.for_all2 (fun s t -> s || not t) summary.dirty_attrs truth.dirty_attrs
       && units_covered ())

let pp ppf (t : t) =
  if t.structural then Fmt.pf ppf "structural"
  else
    Fmt.pf ppf "attrs=[%s] units=%d"
      (String.concat ","
         (List.map (fun i -> Schema.name_at t.schema i) (dirty_attrs t)))
      t.n_dirty_units
