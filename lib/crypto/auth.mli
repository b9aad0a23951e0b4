(** Pairwise MAC authenticators, as used by the BFT library.

    Every pair of principals (replicas and clients) shares a symmetric session
    key.  A message multicast to all replicas carries an {e authenticator}: a
    vector with one MAC per receiver.  A Byzantine principal can send
    arbitrary messages but cannot forge a MAC for a key it does not hold —
    this module computes and checks real MACs (SipHash-2-4, a keyed PRF,
    with a 64-bit tag), so the simulator enforces that property by
    construction rather than by fiat.  (Pairwise keys are
    derived from a group master secret the simulator holds in trust; a
    keychain's API only ever derives keys for pairs the holder belongs to,
    which preserves the pairwise-secrecy property at the interface.)

    Proactive recovery refreshes a replica's keys ({!refresh_keys}), which
    invalidates MACs an attacker might have stolen before the recovery. *)

type keychain
(** The key material held by one principal. *)

val create : seed:int64 -> n_principals:int -> keychain array
(** [create ~seed ~n_principals] builds a consistent set of keychains: the
    session key between principals [i] and [j] is shared by keychains [i] and
    [j] and known to nobody else.  Keys are derived lazily from a group
    master secret, so creation is O(n_principals) — large simulated client
    populations are cheap to register. *)

val refresh_keys : keychain array -> int -> unit
(** [refresh_keys chains i] gives principal [i] fresh session keys with every
    peer (simulating the key exchange performed after a reboot); the peers'
    keychains are updated accordingly and the epoch bumps. *)

(** {1 MACs}

    The hot path seals a broadcast by hashing the body once and MACing the
    32-byte digest for every receiver (a batch authenticator); a reply, with
    one receiver, is MACed over its own bytes.  A tag is
    the 8 little-endian bytes of {!Siphash.mac} keyed with the first 16
    bytes of the session key; [~suffix:c] appends one byte to what is
    MACed, without building that string.  Producing a tag allocates the
    8-byte string; checking one allocates nothing beyond the key-cache
    lookup. *)

val mac : keychain -> receiver:int -> ?suffix:char -> string -> string
(** MAC of the message for one receiver, under the sender/receiver key. *)

val check : keychain -> sender:int -> ?suffix:char -> string -> mac:string -> bool
(** Verify a received MAC under the receiver's key with [sender]: false
    unless [mac] is the 8-byte tag of the message under that key. *)
