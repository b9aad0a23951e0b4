let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key < block_size then
    key ^ String.make (block_size - String.length key) '\000'
  else key

let xor_pad key pad =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor Char.code pad))

let mac_list ~key msgs =
  let key = normalize_key key in
  let ipad = xor_pad key '\x36' in
  let opad = xor_pad key '\x5c' in
  let inner = Sha256.digest_list (ipad :: msgs) in
  Sha256.digest_list [ opad; inner ]

let mac ~key msg = mac_list ~key [ msg ]

(* Precomputed keys: the ipad/opad blocks depend only on the key, so their
   compression (one SHA-256 block each) can be paid once per session key.
   [mac_prepared] then copies the two midstates into scratch contexts and
   hashes the message and the 32-byte inner digest — for the short digests
   the batch authenticators MAC, that is 2 compressions instead of 4, and
   no allocation but the returned tag. *)
type prepared = { p_inner : Sha256.ctx; p_outer : Sha256.ctx }

let prepare ~key =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.update inner (xor_pad key '\x36');
  let outer = Sha256.init () in
  Sha256.update outer (xor_pad key '\x5c');
  { p_inner = inner; p_outer = outer }

(* Scratch for one MAC at a time; single-domain, like {!Sha256}'s. *)
let ictx = Sha256.init ()
let octx = Sha256.init ()
let inner_digest = Bytes.create 32
let expected_tag = Bytes.create 32

(* Leaves the tag's final state in [octx]. *)
let run_prepared ?suffix p msg =
  Sha256.copy_into ~src:p.p_inner ~dst:ictx;
  Sha256.update ictx msg;
  (match suffix with Some c -> Sha256.update_char ictx c | None -> ());
  Sha256.finalize_into ictx inner_digest;
  Sha256.copy_into ~src:p.p_outer ~dst:octx;
  Sha256.update_bytes octx inner_digest ~pos:0 ~len:32

let mac_prepared ?suffix p msg =
  run_prepared ?suffix p msg;
  Sha256.finalize octx

(* Fold over all bytes rather than short-circuiting. *)
let equal_ct expected tag =
  let n = String.length expected in
  n = String.length tag
  &&
  let diff = ref 0 in
  for i = 0 to n - 1 do
    let e = Char.code (String.unsafe_get expected i) and t = Char.code (String.unsafe_get tag i) in
    diff := !diff lor (e lxor t)
  done;
  !diff = 0

let verify_prepared ?suffix p msg ~tag =
  run_prepared ?suffix p msg;
  Sha256.finalize_into octx expected_tag;
  equal_ct (Bytes.unsafe_to_string expected_tag) tag

let verify ~key msg ~tag = equal_ct (mac ~key msg) tag
