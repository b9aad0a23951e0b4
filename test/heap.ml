(* Polymorphic binary min-heap with ties broken by insertion order: the
   simulator's original event queue, kept as the oracle that
   [Base_sim.Event_heap] must dequeue identically to. *)

type 'a entry = { value : 'a; seq : int }

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~cmp = { cmp; data = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* Order by user comparator, then by insertion sequence for determinism. *)
let entry_cmp t a b =
  let c = t.cmp a.value b.value in
  if c <> 0 then c else Int.compare a.seq b.seq

let grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  (* The dummy cell is only read before being overwritten. *)
  let dummy = t.data.(0) in
  let data = Array.make new_cap dummy in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_cmp t t.data.(i) t.data.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && entry_cmp t t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && entry_cmp t t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t value =
  let e = { value; seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  if t.size = 0 && Array.length t.data = 0 then t.data <- Array.make 16 e;
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top.value
  end

let peek t = if t.size = 0 then None else Some t.data.(0).value

let clear t =
  t.size <- 0;
  t.data <- [||]

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i).value :: acc) in
  loop (t.size - 1) []
