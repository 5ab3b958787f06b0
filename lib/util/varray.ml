(* A growable array (OCaml 5.1 has none in its standard library).

   Used wherever the engine accumulates an unknown number of rows: effect
   relations, index build buffers, event queues. *)

type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  dummy : 'a; (* fills unused slots so we never hold stale references *)
}

let create ?(capacity = 16) dummy =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; size = 0; dummy }

let length t = t.size

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.size + 1);
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Varray.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.size then invalid_arg "Varray.set: index out of bounds";
  t.data.(i) <- x

let pop t =
  if t.size = 0 then invalid_arg "Varray.pop: empty";
  t.size <- t.size - 1;
  let x = t.data.(t.size) in
  t.data.(t.size) <- t.dummy;
  x

let clear t =
  Array.fill t.data 0 t.size t.dummy;
  t.size <- 0

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.size - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.size && (p t.data.(i) || loop (i + 1)) in
  loop 0

let to_array t = Array.sub t.data 0 t.size
let to_list t = Array.to_list (to_array t)

let of_array dummy arr =
  let t = create ~capacity:(max 1 (Array.length arr)) dummy in
  Array.iter (fun x -> push t x) arr;
  t

(* Remove the element at [i] by swapping in the last element: O(1), does not
   preserve order.  Used by the movement phase's occupancy lists. *)
let swap_remove t i =
  if i < 0 || i >= t.size then invalid_arg "Varray.swap_remove: index out of bounds";
  t.size <- t.size - 1;
  let last = t.data.(t.size) in
  t.data.(t.size) <- t.dummy;
  if i < t.size then t.data.(i) <- last
