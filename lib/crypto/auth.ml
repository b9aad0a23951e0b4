(* Pairwise session keys, derived lazily.

   The original implementation materialised the full P x P key matrix at
   [create], which is O(P^2) time and memory — prohibitive once the client
   population reaches the thousands the open-loop load harness simulates.
   Keys are instead derived on demand from a group master secret:

     key(i, j) = HMAC(master, lo || hi || epoch(lo) || epoch(hi))

   with lo = min i j, hi = max i j, so both endpoints derive the same key
   without ever exchanging it.  Epochs live in one array shared by every
   keychain (the simulator plays the trusted key-exchange channel);
   refreshing principal [i] bumps [epochs.(i)], which atomically invalidates
   every key [i] shares — exactly the post-reboot key change proactive
   recovery relies on.  Derived keys are memoised per chain, keyed by the
   epoch pair they were derived under, so a steady-state MAC pays no key
   derivation and memory is proportional to the pairs that actually
   communicate, not to P^2.

   The MAC itself is SipHash-2-4 under the first 16 bytes of the session
   key, cached as its two key words, with its 64-bit tag: the 8 bytes per
   authenticator slot that [Message.envelope] has always charged on the
   wire. *)

type cached = { ck_epoch_lo : int; ck_epoch_hi : int; ck_k0 : int64; ck_k1 : int64 }

type keychain = {
  id : int;
  master : string;  (* group secret; shared by all chains of one [create] *)
  epochs : int array;  (* per-principal refresh counters; shared *)
  cache : (int, cached) Hashtbl.t;  (* peer -> memoised session key *)
}

let create ~seed ~n_principals =
  let prng = Base_util.Prng.create seed in
  let master = Bytes.unsafe_to_string (Base_util.Prng.bytes prng 32) in
  let epochs = Array.make n_principals 0 in
  Array.init n_principals (fun id -> { id; master; epochs; cache = Hashtbl.create 8 })

let derive chain ~lo ~hi ~epoch_lo ~epoch_hi =
  Hmac.mac ~key:chain.master (Printf.sprintf "%d.%d.%d.%d" lo hi epoch_lo epoch_hi)

let session chain peer =
  let lo = min chain.id peer and hi = max chain.id peer in
  let epoch_lo = chain.epochs.(lo) and epoch_hi = chain.epochs.(hi) in
  match Hashtbl.find_opt chain.cache peer with
  | Some c when c.ck_epoch_lo = epoch_lo && c.ck_epoch_hi = epoch_hi -> c
  | Some _ | None ->
    let key = derive chain ~lo ~hi ~epoch_lo ~epoch_hi in
    let c =
      {
        ck_epoch_lo = epoch_lo;
        ck_epoch_hi = epoch_hi;
        ck_k0 = String.get_int64_le key 0;
        ck_k1 = String.get_int64_le key 8;
      }
    in
    Hashtbl.replace chain.cache peer c;
    c

let refresh_keys chains i =
  (* All chains share the epoch array; bumping one slot re-keys principal
     [i] with every peer (stale cache entries fail their epoch check). *)
  if Array.length chains > 0 then begin
    let any = chains.(0) in
    any.epochs.(i) <- any.epochs.(i) + 1
  end

(* Castro-Liskov batch authenticators: the caller hashes the broadcast body
   once and MACs the 32-byte digest for each receiver, so sealing for 3f+1
   receivers costs one body-sized hash plus n short SipHash calls. *)

let suffix_code = function Some c -> Char.code c | None -> -1

(* The session's tag of [msg], as an unboxed integer while it stays local. *)
let[@inline] tag chain peer ?suffix msg =
  let c = session chain peer in
  Siphash.mac ~k0:c.ck_k0 ~k1:c.ck_k1 msg ~suffix:(suffix_code suffix)

let mac chain ~receiver ?suffix msg =
  let out = Bytes.create 8 in
  Bytes.set_int64_le out 0 (tag chain receiver ?suffix msg);
  Bytes.unsafe_to_string out

let authenticator chain ~n ?suffix msg =
  Array.init n (fun receiver -> mac chain ~receiver ?suffix msg)

(* The expected tag is never materialised: no scratch, no allocation. *)
let check chain ~sender ?suffix msg ~mac =
  String.length mac = 8 && Int64.equal (String.get_int64_le mac 0) (tag chain sender ?suffix msg)
