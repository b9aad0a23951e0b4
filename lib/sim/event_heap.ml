(* Flat binary min-heap specialised for the engine's event queue.

   The generic heap it replaced (test/heap.ml) boxes every element in an {value; seq}
   record and calls a closure comparator through two indirections per
   sift step; at simulator scale (one push+pop per message and timer)
   that is pure allocator and branch-predictor pressure.  Here the key
   is split into two unboxed [int array]s — event time and insertion
   sequence — so sift comparisons touch no heap blocks, and payloads
   live in a parallel array moved only by index.

   Ordering is the same total order the generic heap used: (time, seq)
   lexicographic, where [seq] is the global insertion counter.  Keys are
   therefore unique, so pop order is exactly sorted (time, seq) — any
   heap implementing this order dequeues identically, which is what the
   engine-determinism differential suite pins.

   Times are simulator microseconds: [Sim_time.t] values built via
   [of_us]/[add] always fit in a native [int] (63 bits = ~292,000 years
   of simulated time), checked at [push]. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable last_time : int;  (* time key of the most recently popped event *)
}

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0; last_time = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* (time, seq) at [i] orders strictly before (time, seq) at [j]. *)
let before t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let swap t i j =
  let tt = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tt;
  let ts = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- ts;
  let tp = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- tp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t l !smallest then smallest := l;
  if r < t.size && before t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t payload =
  let cap = Array.length t.times in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make new_cap 0 in
  Array.blit t.times 0 times 0 t.size;
  t.times <- times;
  let seqs = Array.make new_cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  (* The pushed payload doubles as the filler: fresh cells are written
     before they are ever read, and using it avoids needing a dummy. *)
  let payloads = Array.make new_cap payload in
  Array.blit t.payloads 0 payloads 0 t.size;
  t.payloads <- payloads

let push t ~time payload =
  Base_util.Invariant.require
    (Int64.compare time 0L >= 0 && Int64.compare time (Int64.of_int max_int) <= 0)
    "Event_heap.push: time out of native int range";
  if t.size = Array.length t.times then grow t payload;
  let i = t.size in
  t.times.(i) <- Int64.to_int time;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let min_time t = if t.size = 0 then None else Some (Int64.of_int t.times.(0))

let pop_exn t =
  Base_util.Invariant.require (t.size > 0) "Event_heap.pop_exn: empty";
  let payload = t.payloads.(0) in
  t.last_time <- t.times.(0);
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.times.(0) <- t.times.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.payloads.(0) <- t.payloads.(t.size);
    sift_down t 0
  end;
  payload

let last_time t = Int64.of_int t.last_time
