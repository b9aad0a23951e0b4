(** PBFT protocol messages, their canonical encodings and MAC envelopes.

    Every message body has a canonical XDR encoding used for three purposes:
    request digests, MAC computation, and wire-size accounting in the
    simulator.  Messages travel inside an {!envelope} carrying an
    authenticator — one SipHash-2-4 MAC per receiver — so a Byzantine
    sender cannot impersonate another principal (the MACs are really
    checked). *)

module Digest = Base_crypto.Digest_t

type request = {
  client : int;
  timestamp : int64;  (** client-local, strictly increasing; identifies the request *)
  operation : string;  (** opaque payload interpreted by the service *)
  read_only : bool;
}

val null_request : request
(** A request from no client (id [-1]): execution skips it and replies to
    nobody.  Nothing in the library builds one; a NEW-VIEW fills the slots
    nothing prepared at with empty batches instead
    ({!View_change.compute_o}). *)

type pre_prepare = {
  view : Types.view;
  seq : Types.seqno;
  digest : Digest.t;  (** digest of the batch and the nondet proposal *)
  requests : request list;  (** the piggybacked batch; empty in a NEW-VIEW's gap slots *)
  nondet : string;  (** primary's proposal for non-deterministic values *)
}

(** A PREPARE or COMMIT vote: [replica] vouches for [digest] at [seq] in
    [view].  The two phases carry the same fields and encoding and differ
    only in their {!body} tag (2 and 3). *)
type vote = { view : Types.view; seq : Types.seqno; digest : Digest.t; replica : int }

type reply = {
  view : Types.view;
  timestamp : int64;
  client : int;
  replica : int;
  result : string;
}

type checkpoint = { seq : Types.seqno; digest : Digest.t; replica : int }

type view_change = {
  new_view : Types.view;
  last_stable : Types.seqno;
  stable_digest : Digest.t;
  prepared : pre_prepare list;
      (** PBFT's [P] set: the PRE-PREPARE of every slot above [last_stable]
          that prepared at the sender (matched by 2f PREPAREs), in the view
          it prepared in, encoded exactly like a PRE-PREPARE body. *)
  replica : int;
}

type new_view = {
  nv_view : Types.view;
  nv_view_changes : (int * Types.seqno) list;
      (** summary of the accepted view-change set: (replica, last_stable) *)
  nv_pre_prepares : pre_prepare list;  (** the O set, re-proposed in the new view *)
}

(** Periodic liveness gossip: lets peers retransmit what a lagging replica
    is missing (PBFT's status messages). *)
type status_msg = { st_view : Types.view; st_last_exec : Types.seqno; st_h : Types.seqno; st_replica : int }

type body =
  | Request of request
  | Pre_prepare of pre_prepare
  | Prepare of vote
  | Commit of vote
  | Reply of reply
  | Checkpoint of checkpoint
  | View_change of view_change
  | New_view of new_view
  | Status of status_msg

(** Content-addressed envelope.  [wire] is the canonical encoding the body
    was sealed from (or, on the wire path, the bytes as received), and
    [digest_memo] memoises its SHA-256 — computed at most once per
    envelope, never per receiver, and only when something needs it.  A
    REPLY's one MAC covers [wire] itself; every other body's MACs cover
    the digest.  Either way they bind the exact wire bytes: construct
    envelopes only through {!seal}, {!reseal}, {!seal_for} or {!of_wire},
    which keep [body], [wire] and the MACs consistent. *)
type envelope = {
  sender : int;
  shard : int;
      (** the agreement instance (shard) this envelope belongs to; [0] for
          unsharded deployments.  The MACs bind it (see {!seal}), so a
          certificate from one shard cannot be replayed into another. *)
  body : body;
  wire : string;  (** canonical encoding of [body] / bytes as received *)
  mutable digest_memo : Digest.t option;  (** memoised SHA-256 of [wire] *)
  macs : string array;
      (** authenticator; [macs.(r - mac_lo)] is receiver [r]'s MAC *)
  mac_lo : int;  (** id of the first receiver the authenticator covers *)
  size : int;  (** wire size: encoded body + authenticator *)
}

(** The transport a host hands a protocol module (replica or client).  A
    timer carries the module's own ['timer] value, which the host hands
    back to the module's [on_timer] when it fires. *)
type 'timer net = {
  send : dst:int -> envelope -> unit;
  set_timer : after_us:int -> 'timer -> int;  (** returns an id for [cancel_timer] *)
  cancel_timer : int -> unit;
  now_us : unit -> int64;  (** virtual time, {e not} a node's skewed local clock *)
}

val envelope_digest : envelope -> Digest.t
(** The (memoised) digest of [wire]; equals a from-scratch SHA-256 of the
    canonical encoding — the differential digest suite pins this. *)

val request_digest : request -> Digest.t
(** SHA-256 of [encode_body (Request r)]: the {!envelope_digest} of any
    sealed envelope carrying [r], whatever its sender or shard. *)

val request_digest_of : envelope -> request -> Digest.t
(** [request_digest_of env r] is [request_digest r], read from [env]'s
    memoised digest when [env] carries [r] (physically) on canonical wire
    bytes, as every sealed envelope does.  An envelope adopted by
    {!of_wire} may carry nonzero pad bytes, which decoding accepts; then,
    or for any other envelope, the digest is computed afresh. *)

val batch_digest : request list -> nondet:string -> Digest.t
(** The ordering digest of a batch and its nondet proposal: SHA-256 of
    [u32 k ‖ d_1 … d_k ‖ opaque nondet], where [d_i] is the 32-byte
    {!request_digest} of the [i]-th request and [opaque] is XDR's
    (length, bytes, zero padding). *)

type batch_hasher
(** A SHA-256 context and scratch that {!batch_digest_by} reuses. *)

val batch_hasher : unit -> batch_hasher

val batch_digest_by :
  batch_hasher -> ('a -> request -> Digest.t) -> 'a -> request list -> nondet:string -> Digest.t
(** [batch_digest_by h digest_of x requests ~nondet] is
    [batch_digest requests ~nondet], with each request digest read as
    [digest_of x r], which must equal [request_digest r].  It allocates
    only the result.  Not reentrant on [h]. *)

val encode_body : body -> string

val decode_body : string -> (body, string) result
(** Inverse of {!encode_body}.  Malformed input yields [Error msg] — decode
    failures must never raise across a message boundary, since the bytes come
    from untrusted (possibly Byzantine) senders: [Replica.receive_wire]
    decodes whatever arrives, corrupted bytes included.  The format
    round-trips (property-tested and pinned by golden encodings). *)

val seal :
  Base_crypto.Auth.keychain -> ?shard:int -> sender:int -> n_receivers:int -> body -> envelope
(** Build an authenticated envelope for receivers [0 .. n_receivers - 1] —
    the form every replica-bound message uses ([n_receivers = n]).  The MAC
    vector no longer scales with the total principal count, which is what
    keeps sealing affordable with thousands of registered clients.  What
    every MAC covers depends on the body alone: a REPLY's wire bytes (its
    seal computes no digest), any other body's SHA-256 digest.  [?shard]
    (default [0]) tags the envelope with its agreement instance; for shard
    [k > 0] the shard byte is appended to what is MACed, while shard 0 MACs
    are byte-identical to pre-sharding envelopes. *)

val reseal : Base_crypto.Auth.keychain -> n_receivers:int -> envelope -> envelope
(** [reseal chain ~n_receivers env] is [env] with a fresh authenticator for
    receivers [0 .. n_receivers - 1] under [chain]'s current keys.  The
    result shares [env]'s wire bytes and memoised digest: it equals [seal]
    of the same body, without re-encoding or re-hashing it.  [env] must be
    one of [chain]'s own envelopes. *)

val seal_for :
  Base_crypto.Auth.keychain -> ?shard:int -> sender:int -> receiver:int -> body -> envelope
(** Build a unicast envelope carrying a single MAC for [receiver] — the form
    replica-to-client replies use.  The MAC covers what {!seal}'s do, so a
    REPLY's covers its wire bytes.  [?shard] as in {!seal}. *)

val shard_overhead : int -> int
(** Accounted wire bytes of the shard tag: [0] for shard 0 (the tag is
    implicit, keeping unsharded traffic byte-identical to pre-sharding
    deployments) and [4] for any other shard. *)

val of_wire :
  ?shard:int -> sender:int -> macs:string array -> string -> (envelope, string) result
(** Build an envelope from raw received bytes: decode, then adopt the bytes
    as the envelope's [wire] so MAC checks cover exactly what arrived —
    corruption that decoding happens to tolerate (a flipped padding byte)
    still voids every MAC. *)

val verify : Base_crypto.Auth.keychain -> receiver:int -> envelope -> bool
(** Check the receiver's MAC slot under the claimed sender's key: one
    SipHash-2-4 tag over what {!seal} MACs — a REPLY's wire bytes, any
    other body's memoised 32-byte digest.  The body is never re-encoded. *)

val kind_label : body -> string
(** Constant constructor tag (["PRE-PREPARE"]), allocation-free; the
    engine's per-type traffic accounting keys on this. *)

val label : body -> string
(** Short tag for traces, e.g. ["PRE-PREPARE(v=0,n=5)"]. *)
