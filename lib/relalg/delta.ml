(* Per-tick delta summaries: which attributes changed, which unit keys were
   touched, and whether the tick changed the population structurally.

   The mutation phases (post-processing, movement, death handling) record
   into one summary as they run; the next tick's index cache validates its
   cross-tick structures against it.  The summary is deliberately coarse —
   one global dirty-attribute set plus one dirty-key set — because the
   cache only needs two sound facts:

   - an attribute absent from [dirty_attrs] has the same value on every
     unit as last tick, so any structure reading only clean attributes is
     reusable verbatim;
   - a key absent from [dirty_keys] identifies a unit none of whose
     attributes changed, so a partition containing no dirty key is
     reusable even when some of its input attributes are globally dirty.

   [structural] covers everything positional: units died, were resurrected,
   or the array order changed, so data ids no longer name the same units
   and every structure must be rebuilt.  Conservative over-reporting is
   always sound (it only costs rebuilds); under-reporting is a correctness
   bug, pinned by the differential suite's [of_tuples] cross-check. *)

type t = {
  schema : Schema.t;
  dirty_attrs : bool array; (* indexed by schema attribute *)
  mutable n_dirty_attrs : int;
  dirty_keys : (int, unit) Hashtbl.t;
  mutable structural : bool;
}

let create (schema : Schema.t) : t =
  {
    schema;
    dirty_attrs = Array.make (Schema.arity schema) false;
    n_dirty_attrs = 0;
    dirty_keys = Hashtbl.create 64;
    structural = false;
  }

let record (t : t) ~(attr : int) ~(key : int) : unit =
  if not t.dirty_attrs.(attr) then begin
    t.dirty_attrs.(attr) <- true;
    t.n_dirty_attrs <- t.n_dirty_attrs + 1
  end;
  if not (Hashtbl.mem t.dirty_keys key) then Hashtbl.add t.dirty_keys key ()

let record_structural (t : t) : unit = t.structural <- true

let structural (t : t) : bool = t.structural
let dirty_attr (t : t) (attr : int) : bool = t.dirty_attrs.(attr)
let dirty_key (t : t) (key : int) : bool = Hashtbl.mem t.dirty_keys key
let dirty_key_count (t : t) : int = Hashtbl.length t.dirty_keys

let dirty_attrs (t : t) : int list =
  let out = ref [] in
  for i = Array.length t.dirty_attrs - 1 downto 0 do
    if t.dirty_attrs.(i) then out := i :: !out
  done;
  !out

let is_clean (t : t) : bool =
  (not t.structural) && t.n_dirty_attrs = 0 && Hashtbl.length t.dirty_keys = 0

let reset (t : t) : unit =
  Array.fill t.dirty_attrs 0 (Array.length t.dirty_attrs) false;
  t.n_dirty_attrs <- 0;
  Hashtbl.reset t.dirty_keys;
  t.structural <- false

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
      (fun i b ->
        let a = after.(i) in
        if Tuple.key schema b <> Tuple.key schema a then record_structural d
        else
          for attr = 0 to Schema.arity schema - 1 do
            if not (Value.identical (Tuple.get b attr) (Tuple.get a attr)) then
              record d ~attr ~key:(Tuple.key schema b)
          done)
      before;
  d

(* [covers ~summary ~truth]: does the recorded summary account for every
   change the ground truth reports?  (The soundness obligation.) *)
let covers ~(summary : t) ~(truth : t) : bool =
  if truth.structural then summary.structural
  else
    summary.structural
    || (Array.for_all2 (fun s t -> s || not t) summary.dirty_attrs truth.dirty_attrs
       && Hashtbl.fold (fun k () ok -> ok && dirty_key summary k) truth.dirty_keys true)

let pp ppf (t : t) =
  if t.structural then Fmt.pf ppf "structural"
  else
    Fmt.pf ppf "attrs=[%s] keys=%d"
      (String.concat ","
         (List.map (fun i -> Schema.name_at t.schema i) (dirty_attrs t)))
      (Hashtbl.length t.dirty_keys)
