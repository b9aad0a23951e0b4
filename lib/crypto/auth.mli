(** Pairwise MAC authenticators, as used by the BFT library.

    Every pair of principals (replicas and clients) shares a symmetric session
    key.  A message multicast to all replicas carries an {e authenticator}: a
    vector with one MAC per receiver.  A Byzantine principal can send
    arbitrary messages but cannot forge a MAC for a key it does not hold —
    this module computes and checks real HMACs, so the simulator enforces
    that property by construction rather than by fiat.  (Pairwise keys are
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

val mac_for : keychain -> receiver:int -> string -> string
(** MAC of the message for one receiver, under the sender/receiver key. *)

val authenticator : keychain -> n:int -> string -> string array
(** MAC vector for receivers [0 .. n-1]. *)

val check : keychain -> sender:int -> string -> mac:string -> bool
(** Verify a received MAC under the receiver's key with [sender]. *)

(** {1 Batch (digest) authenticators}

    The hot path seals a broadcast by hashing the body once and MACing the
    32-byte digest for every receiver, over precomputed per-session-key
    HMAC midstates.  [mac_digest_for chain ~receiver d] equals
    [mac_for chain ~receiver d] for every receiver — the equivalence the
    batch-MAC differential suite pins — the batching is in what gets
    MACed (the shared digest) and in the precomputation, not in the tag
    values.

    [~suffix:c] appends one byte to what is MACed: the tag equals
    [mac_for chain ~receiver (d ^ String.make 1 c)], without building that
    string.  Checking a MAC allocates nothing beyond the key-cache lookup;
    producing one allocates the 32-byte tag. *)

val mac_digest_for : keychain -> receiver:int -> ?suffix:char -> string -> string

val digest_authenticator : keychain -> n:int -> ?suffix:char -> string -> string array
(** MAC vector over a digest for receivers [0 .. n-1]. *)

val check_digest : keychain -> sender:int -> ?suffix:char -> string -> mac:string -> bool
