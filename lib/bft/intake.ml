module Digest = Base_crypto.Digest_t
module M = Message

type client = {
  mutable last_ts : int64;  (* timestamp of last executed request *)
  mutable last_result : string option;  (* its result; none for an internal client *)
  mutable pending : M.request option;  (* received but not yet executed, newer than [last_ts] *)
  mutable pending_since : int64;  (* local arrival time of [pending]; -1 = none *)
  mutable assigned_ts : int64;  (* primary: highest timestamp given a seqno *)
  mutable assigned_seq : Types.seqno;
  mutable heard : M.request;
      (* the newest request received; a repeat of its timestamp is a
         retransmission *)
  mutable heard_digest : Digest.t;  (* its request digest *)
  mutable vouched_ts : int64;  (* backup: newest timestamp vouched for to the primary *)
  mutable vouchers : Digest.t option array;
      (* primary: the request digest each replica last vouched for, by id;
         empty until the first voucher *)
}

(* One slot per external client id, in id order, then one per shard's
   internal client.  A record is allocated on first use. *)
type t = {
  config : Types.config;
  slots : client option array;
  mutable n_pending : int;  (* records whose [pending] is [Some _]; see [set_pending] *)
  hasher : M.batch_hasher;  (* [batch_digest]'s SHA-256 context *)
}

let n_external (config : Types.config) = config.n_principals - Types.group_size config

let is_client (config : Types.config) c = c >= Types.group_size config && c < config.n_principals

let admissible config c =
  is_client config c || c = -1
  || (Types.is_internal_client c && c < Types.internal_client ~shard:(Types.n_shards config))

let create config =
  {
    config;
    slots = Array.make (n_external config + Types.n_shards config) None;
    n_pending = 0;
    hasher = M.batch_hasher ();
  }

(* The slot of a client id; an id no slot holds gives one out of range. *)
let slot t c =
  if is_client t.config c then c - Types.group_size t.config
  else if Types.is_internal_client c then n_external t.config + c - Types.internal_client ~shard:0
  else -1

(* The [heard] of a record that received nothing: older than any request,
   and no client's. *)
let unheard = { M.null_request with timestamp = -1L }

let find t c =
  let i = slot t c in
  match t.slots.(i) with
  | Some cr -> cr
  | None ->
    let cr =
      {
        last_ts = -1L;
        last_result = None;
        pending = None;
        pending_since = -1L;
        assigned_ts = -1L;
        assigned_seq = -1;
        heard = unheard;
        heard_digest = Digest.zero;
        vouched_ts = -1L;
        vouchers = [||];
      }
    in
    t.slots.(i) <- Some cr;
    cr

let n_pending t = t.n_pending

(* Only an external client's request is ever pending. *)
let pending t ~client =
  is_client t.config client
  && match t.slots.(slot t client) with Some cr -> Option.is_some cr.pending | None -> false

(* Every write of [cr.pending] goes through here, so [n_pending] always
   equals the number of records with a pending request. *)
let set_pending t cr pending =
  t.n_pending <- t.n_pending + Bool.to_int (pending <> None) - Bool.to_int (cr.pending <> None);
  cr.pending <- pending

(* Hold [r], newer than the executed request, unless an equal or newer
   one is held already. *)
let hold t cr (r : M.request) ~now =
  match cr.pending with
  | Some p when p.timestamp >= r.timestamp -> ()
  | Some _ | None ->
    if cr.pending = None then cr.pending_since <- now;
    set_pending t cr (Some r)

(* [f] on each record, in client-id order. *)
let iter t f = Array.iter (function Some cr -> f cr | None -> ()) t.slots

type arrival = Stale | Done | First | Repeat

let admit t (r : M.request) ~digest ~now =
  let cr = find t r.client in
  if r.timestamp < cr.last_ts then Stale
  else if Int64.equal r.timestamp cr.last_ts then Done
  else begin
    hold t cr r ~now;
    let retransmitted = Int64.equal r.timestamp cr.heard.timestamp in
    if r.timestamp >= cr.heard.timestamp then begin
      cr.heard <- r;
      cr.heard_digest <- digest
    end;
    if retransmitted then Repeat else First
  end

let last_result t c = (find t c).last_result

(* The digest [admit] recorded, for the very request it recorded: the same
   value, or one equal in every field.  Any other request, altered or
   unheard, is hashed. *)
let request_digest t (r : M.request) =
  let i = slot t r.client in
  match if i >= 0 && i < Array.length t.slots then t.slots.(i) else None with
  | Some { heard; heard_digest; _ }
    when heard == r
         || heard.client = r.client
            && Int64.equal heard.timestamp r.timestamp
            && Bool.equal heard.read_only r.read_only
            && String.equal heard.operation r.operation ->
    heard_digest
  | Some _ | None -> M.request_digest r

let batch_digest t requests ~nondet = M.batch_digest_by t.hasher request_digest t requests ~nondet

(* The arrival time of the pending request, forgotten once a PRE-PREPARE
   carries the client's request: a backup vouches for none of those. *)
let pre_prepared cr =
  let since = cr.pending_since in
  cr.pending_since <- -1L;
  since

let backup_holds t (r : M.request) =
  let cr = find t r.client in
  let since = pre_prepared cr in
  if r.timestamp > cr.last_ts then hold t cr r ~now:(-1L);
  since

let proposable t (r : M.request) =
  let cr = find t r.client in
  r.timestamp >= cr.assigned_ts && r.timestamp > cr.last_ts

let assigned_seq t (r : M.request) =
  let cr = find t r.client in
  if Int64.equal r.timestamp cr.assigned_ts then cr.assigned_seq else -1

let assign t (r : M.request) ~seq =
  let cr = find t r.client in
  cr.assigned_ts <- r.timestamp;
  cr.assigned_seq <- seq;
  pre_prepared cr

let claim t (r : M.request) =
  let cr = find t r.client in
  let fresh = r.timestamp > cr.assigned_ts && r.timestamp > cr.last_ts in
  if fresh then cr.assigned_ts <- r.timestamp;
  fresh

let iter_pending t f = iter t (fun cr -> Option.iter f cr.pending)

let executed t (r : M.request) = r.timestamp <= (find t r.client).last_ts

(* A pending request is always newer than the executed one, so only
   moving [last_ts] up to it retires it. *)
let set_executed t cr ts result =
  cr.last_ts <- ts;
  cr.last_result <- result;
  match cr.pending with
  | Some p when p.timestamp <= ts -> set_pending t cr None
  | Some _ | None -> ()

let record t (r : M.request) result =
  set_executed t (find t r.client) r.timestamp
    (if Types.is_internal_client r.client then None else Some result)

let vouch t ~sender (r : M.request) ~digest ~now =
  let cr = find t r.client in
  r.timestamp > cr.last_ts && r.timestamp > cr.assigned_ts
  && (match cr.pending with Some p -> p.timestamp < r.timestamp | None -> true)
  && begin
       if Array.length cr.vouchers = 0 then cr.vouchers <- Array.make t.config.n None;
       cr.vouchers.(sender) <- Some digest;
       Types.count_matching cr.vouchers digest >= Types.weak_quorum t.config
       && begin
            Array.fill cr.vouchers 0 (Array.length cr.vouchers) None;
            hold t cr r ~now;
            true
          end
     end

let iter_to_vouch t ~after f =
  iter t (fun cr ->
      match cr.pending with
      | Some r when Int64.compare cr.pending_since after > 0 && r.timestamp > cr.vouched_ts ->
        cr.vouched_ts <- r.timestamp;
        f r
      | Some _ | None -> ())

(* A request that arrived during the transfer stays pending unless the
   transferred table shows it executed. *)
let merge t rows =
  iter t (fun cr ->
      cr.last_ts <- -1L;
      cr.last_result <- None);
  List.iter
    (fun (c, ts, result) -> if is_client t.config c then set_executed t (find t c) ts (Some result))
    rows

(* Only external clients have results, and their slots come first. *)
let rows t =
  let rows = ref [] in
  for i = n_external t.config - 1 downto 0 do
    match t.slots.(i) with
    | Some { last_ts; last_result = Some result; _ } ->
      rows := (Types.group_size t.config + i, last_ts, result) :: !rows
    | Some _ | None -> ()
  done;
  !rows

(* A correct primary batches each request once. *)
let rec batch_sane config = function
  | [] -> true
  | (r : M.request) :: rest ->
    admissible config r.client
    && (not
          (List.exists
             (fun (r' : M.request) -> r'.client = r.client && Int64.equal r'.timestamp r.timestamp)
             rest))
    && batch_sane config rest
