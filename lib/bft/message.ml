module Digest = Base_crypto.Digest_t
module Xdr = Base_codec.Xdr

type request = { client : int; timestamp : int64; operation : string; read_only : bool }

let null_request = { client = -1; timestamp = 0L; operation = ""; read_only = false }

type pre_prepare = {
  view : Types.view;
  seq : Types.seqno;
  digest : Digest.t;
  requests : request list;  (* the batch; empty in a NEW-VIEW's gap slots *)
  nondet : string;
}

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
  replica : int;
}

type new_view = {
  nv_view : Types.view;
  nv_view_changes : (int * Types.seqno) list;
  nv_pre_prepares : pre_prepare list;
}

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

(* The envelope is content-addressed: [wire] is the canonical encoding the
   body was sealed (or decoded) from, and [digest_memo] caches its SHA-256.
   Both are established at construction — seal computes them, the wire path
   adopts the received bytes — so the hot receive path never re-encodes or
   re-digests a body.  MACs cover the digest (Castro-Liskov batch
   authenticators), which ties every check back to the wire bytes: any
   single-byte change to [wire] fails every receiver's verification. *)
type envelope = {
  sender : int;
  shard : int;  (* agreement instance this envelope belongs to; 0 = unsharded *)
  body : body;
  wire : string;  (* canonical encoding of [body]; raw bytes on the wire path *)
  mutable digest_memo : Digest.t option;  (* memoised SHA-256 of [wire] *)
  macs : string array;  (* authenticator; macs.(r - mac_lo) is receiver r's MAC *)
  mac_lo : int;  (* id of the first receiver the authenticator covers *)
  size : int;
}

type 'timer net = {
  send : dst:int -> envelope -> unit;
  set_timer : after_us:int -> 'timer -> int;
  cancel_timer : int -> unit;
  now_us : unit -> int64;
}

(* Clients use small signed ints (-1 for null requests); bias into u32 space. *)
let enc_id e id = Xdr.u32 e (id + 1)

let enc_request e (r : request) =
  enc_id e r.client;
  Xdr.i64 e r.timestamp;
  Xdr.opaque e r.operation;
  Xdr.bool e r.read_only

let request_digest r = Digest.of_string (Xdr.encode enc_request r)

(* Canonical encoding of a proposed ordering: the XDR batch (count-prefixed)
   plus the length-prefixed nondet proposal.  Both prefixes matter — they
   make the encoding injective, so one SHA-256 pass over it binds the batch
   composition and the nondet choice at once (the per-request digest-then-
   combine scheme this replaces cost one hash per request per replica). *)
let enc_batch e (requests, nondet) =
  Xdr.list e enc_request requests;
  Xdr.opaque e nondet

let encode_batch requests ~nondet = Xdr.encode enc_batch (requests, nondet)

let enc_digest e d = Xdr.opaque e (Digest.raw d)

let enc_pre_prepare e (p : pre_prepare) =
  Xdr.u32 e p.view;
  Xdr.u32 e p.seq;
  enc_digest e p.digest;
  Xdr.list e enc_request p.requests;
  Xdr.opaque e p.nondet

let enc_vote e (v : vote) =
  Xdr.u32 e v.view;
  Xdr.u32 e v.seq;
  enc_digest e v.digest;
  enc_id e v.replica

let enc_body e = function
  | Request r ->
    Xdr.u32 e 0;
    enc_request e r
  | Pre_prepare p ->
    Xdr.u32 e 1;
    enc_pre_prepare e p
  | Prepare v ->
    Xdr.u32 e 2;
    enc_vote e v
  | Commit v ->
    Xdr.u32 e 3;
    enc_vote e v
  | Reply r ->
    Xdr.u32 e 4;
    Xdr.u32 e r.view;
    Xdr.i64 e r.timestamp;
    enc_id e r.client;
    enc_id e r.replica;
    Xdr.opaque e r.result
  | Checkpoint c ->
    Xdr.u32 e 5;
    Xdr.u32 e c.seq;
    enc_digest e c.digest;
    enc_id e c.replica
  | View_change v ->
    Xdr.u32 e 6;
    Xdr.u32 e v.new_view;
    Xdr.u32 e v.last_stable;
    enc_digest e v.stable_digest;
    Xdr.list e enc_pre_prepare v.prepared;
    enc_id e v.replica
  | New_view n ->
    Xdr.u32 e 7;
    Xdr.u32 e n.nv_view;
    Xdr.list e
      (fun e (r, s) ->
        enc_id e r;
        Xdr.u32 e s)
      n.nv_view_changes;
    Xdr.list e enc_pre_prepare n.nv_pre_prepares
  | Status st ->
    Xdr.u32 e 8;
    Xdr.u32 e st.st_view;
    Xdr.u32 e st.st_last_exec;
    Xdr.u32 e st.st_h;
    enc_id e st.st_replica

let encode_body body = Xdr.encode enc_body body

(* --- decoding: total over arbitrary bytes, since [Replica.receive_wire]
   decodes whatever arrives, corrupted or forged (property-tested) *)

let dec_id d = Xdr.read_u32 d - 1

let dec_request d =
  let client = dec_id d in
  let timestamp = Xdr.read_i64 d in
  let operation = Xdr.read_opaque d in
  let read_only = Xdr.read_bool d in
  { client; timestamp; operation; read_only }

(* A corrupted length prefix can yield an opaque of any size; a digest-width
   violation must surface as a decode error, not Digest_t's Invalid_argument
   (message corruption is within the fault model, broken callers are not).
   The width check runs on the view so oversized claims never copy. *)
let dec_digest d =
  let v = Xdr.read_view d in
  if v.Xdr.view_len <> 32 then
    raise (Xdr.Decode_error (Printf.sprintf "digest: expected 32 bytes, got %d" v.Xdr.view_len));
  Digest.of_raw (Xdr.view_to_string v)

let dec_pre_prepare d =
  let view = Xdr.read_u32 d in
  let seq = Xdr.read_u32 d in
  let digest = dec_digest d in
  let requests = Xdr.read_list d dec_request in
  let nondet = Xdr.read_opaque d in
  { view; seq; digest; requests; nondet }

let dec_vote d =
  let view = Xdr.read_u32 d in
  let seq = Xdr.read_u32 d in
  let digest = dec_digest d in
  let replica = dec_id d in
  { view; seq; digest; replica }

let dec_body d =
  match Xdr.read_u32 d with
  | 0 -> Request (dec_request d)
  | 1 -> Pre_prepare (dec_pre_prepare d)
  | 2 -> Prepare (dec_vote d)
  | 3 -> Commit (dec_vote d)
  | 4 ->
    let view = Xdr.read_u32 d in
    let timestamp = Xdr.read_i64 d in
    let client = dec_id d in
    let replica = dec_id d in
    let result = Xdr.read_opaque d in
    Reply { view; timestamp; client; replica; result }
  | 5 ->
    let seq = Xdr.read_u32 d in
    let digest = dec_digest d in
    let replica = dec_id d in
    Checkpoint { seq; digest; replica }
  | 6 ->
    let new_view = Xdr.read_u32 d in
    let last_stable = Xdr.read_u32 d in
    let stable_digest = dec_digest d in
    let prepared = Xdr.read_list d dec_pre_prepare in
    let replica = dec_id d in
    View_change { new_view; last_stable; stable_digest; prepared; replica }
  | 7 ->
    let nv_view = Xdr.read_u32 d in
    let nv_view_changes =
      Xdr.read_list d (fun d ->
          let r = dec_id d in
          let s = Xdr.read_u32 d in
          (r, s))
    in
    let nv_pre_prepares = Xdr.read_list d dec_pre_prepare in
    New_view { nv_view; nv_view_changes; nv_pre_prepares }
  | 8 ->
    let st_view = Xdr.read_u32 d in
    let st_last_exec = Xdr.read_u32 d in
    let st_h = Xdr.read_u32 d in
    let st_replica = dec_id d in
    Status { st_view; st_last_exec; st_h; st_replica }
  | n -> raise (Xdr.Decode_error (Printf.sprintf "bad message tag %d" n))

let decode_body data =
  match Xdr.decode dec_body data with
  | body -> Ok body
  | exception Xdr.Decode_error msg -> Error msg

let envelope_digest env =
  match env.digest_memo with
  | Some d -> d
  | None ->
    let d = Digest.of_string env.wire in
    env.digest_memo <- Some d;
    d

(* What the MACs authenticate.  Shard 0 signs the bare digest — byte-for-byte
   what every pre-sharding deployment signed, so unsharded MAC streams (and
   the blessed benches over them) are unchanged.  Shard k > 0 appends the
   shard id, which binds the envelope to its agreement instance: a validly
   MACed message replayed from shard j into shard k fails verification
   instead of splicing one shard's certificate into another's log.  The
   byte goes to the MAC as a suffix, not by concatenation, and the options
   are preallocated, so tagging a shard allocates nothing. *)
let shard_suffixes = Array.init 256 (fun i -> Some (Char.chr i))

let mac_suffix shard = if shard = 0 then None else shard_suffixes.(shard land 0xff)

(* Shard k > 0 also pays 4 wire bytes for the shard tag in the header; the
   unsharded size formula is unchanged. *)
let shard_overhead shard = if shard = 0 then 0 else 4

(* The one place an envelope is built.  Wire size: body + one 8-byte
   truncated MAC per authenticator slot + small header (+ shard tag). *)
let envelope ~sender ~shard ~body ~wire ~digest_memo ~macs ~mac_lo =
  {
    sender;
    shard;
    body;
    wire;
    digest_memo;
    macs;
    mac_lo;
    size = String.length wire + (8 * Array.length macs) + 16 + shard_overhead shard;
  }

let authenticator chain ~shard ~n_receivers d =
  Base_crypto.Auth.authenticator chain ~n:n_receivers ?suffix:(mac_suffix shard)
    (Digest.raw d)

let seal chain ?(shard = 0) ~sender ~n_receivers body =
  let wire = encode_body body in
  let d = Digest.of_string wire in
  let macs = authenticator chain ~shard ~n_receivers d in
  envelope ~sender ~shard ~body ~wire ~digest_memo:(Some d) ~macs ~mac_lo:0

(* A re-send shares the sealed bytes and their digest; only the MACs are
   new, computed under the keys held now. *)
let reseal chain ~n_receivers env =
  let macs = authenticator chain ~shard:env.shard ~n_receivers (envelope_digest env) in
  envelope ~sender:env.sender ~shard:env.shard ~body:env.body ~wire:env.wire
    ~digest_memo:env.digest_memo ~macs ~mac_lo:0

let seal_for chain ?(shard = 0) ~sender ~receiver body =
  let wire = encode_body body in
  let d = Digest.of_string wire in
  let macs =
    [| Base_crypto.Auth.mac chain ~receiver ?suffix:(mac_suffix shard) (Digest.raw d) |]
  in
  envelope ~sender ~shard ~body ~wire ~digest_memo:(Some d) ~macs ~mac_lo:receiver

(* Adopt bytes as they arrived: the digest (hence every MAC check) covers
   what was actually received, so in-flight corruption that decode happens
   to tolerate — e.g. a flipped padding byte — still voids the MACs. *)
let of_wire ?(shard = 0) ~sender ~macs raw =
  match decode_body raw with
  | Error _ as e -> e
  | Ok body -> Ok (envelope ~sender ~shard ~body ~wire:raw ~digest_memo:None ~macs ~mac_lo:0)

let verify chain ~receiver env =
  let slot = receiver - env.mac_lo in
  slot >= 0
  && slot < Array.length env.macs
  && Base_crypto.Auth.check chain ~sender:env.sender ?suffix:(mac_suffix env.shard)
       (Digest.raw (envelope_digest env))
       ~mac:env.macs.(slot)

(* Constant per-constructor tag: what the engine's per-type traffic tables
   key on.  [label] formats parameters and is for traces only — calling it
   per send was a measurable share of the pre-profiling E12 wall clock. *)
let kind_label = function
  | Request _ -> "REQUEST"
  | Pre_prepare _ -> "PRE-PREPARE"
  | Prepare _ -> "PREPARE"
  | Commit _ -> "COMMIT"
  | Reply _ -> "REPLY"
  | Checkpoint _ -> "CHECKPOINT"
  | View_change _ -> "VIEW-CHANGE"
  | New_view _ -> "NEW-VIEW"
  | Status _ -> "STATUS"

let label = function
  | Request r -> Printf.sprintf "REQUEST(c=%d,t=%Ld%s)" r.client r.timestamp
                   (if r.read_only then ",ro" else "")
  | Pre_prepare p ->
    Printf.sprintf "PRE-PREPARE(v=%d,n=%d,b=%d)" p.view p.seq (List.length p.requests)
  | Prepare v -> Printf.sprintf "PREPARE(v=%d,n=%d,i=%d)" v.view v.seq v.replica
  | Commit v -> Printf.sprintf "COMMIT(v=%d,n=%d,i=%d)" v.view v.seq v.replica
  | Reply r -> Printf.sprintf "REPLY(c=%d,t=%Ld,i=%d)" r.client r.timestamp r.replica
  | Checkpoint c -> Printf.sprintf "CHECKPOINT(n=%d,i=%d)" c.seq c.replica
  | View_change v -> Printf.sprintf "VIEW-CHANGE(v=%d,i=%d)" v.new_view v.replica
  | New_view n -> Printf.sprintf "NEW-VIEW(v=%d)" n.nv_view
  | Status st -> Printf.sprintf "STATUS(v=%d,e=%d,i=%d)" st.st_view st.st_last_exec st.st_replica
