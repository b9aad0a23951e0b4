(** Request intake: the client table and its rules.

    Per client, the table holds the request a replica has pending, the
    newest one it executed with its result, and what the primary assigned
    or a backup vouched for.  These functions only decide: they send
    nothing and read no clock; {!Replica} passes the time in and does every
    send.  A client id looked up must be an external client's or an
    internal one's (doc/PROTOCOL.md, "Request intake"). *)

val is_client : Types.config -> int -> bool
(** Whether an id is an external client's: [group_size <= id < n_principals].
    Only such a principal sends its own requests. *)

val batch_sane : Types.config -> Message.request list -> bool
(** What a correct primary proposes: no [(client, timestamp)] twice, and
    every client id admissible, that is an external client's, an internal
    client's of an existing shard ({!Types.internal_client}), or -1, the
    null request's. *)

type t

val create : Types.config -> t
(** An empty table, with a slot for every client id of the group. *)

val n_pending : t -> int
(** The number of clients with a request pending, kept by the table. *)

val pending : t -> client:int -> bool
(** Whether [client] has a request received and not yet executed. *)

(** A client's own request, next to the table. *)
type arrival =
  | Stale  (** older than the newest executed request *)
  | Done  (** the newest executed request: resend its result *)
  | First  (** not executed and first heard: now pending *)
  | Repeat  (** not executed and heard before: a retransmission *)

val admit : t -> Message.request -> now:int64 -> arrival
(** A [First] or [Repeat] request is pending from [now] on, unless a newer
    one is. *)

val last_result : t -> int -> string option
(** The result of a client's newest executed request. *)

val backup_holds : t -> Message.request -> int64
(** An accepted PRE-PREPARE carries the request: pending unless executed or
    older than the one held.  Returns the arrival time of the pending
    request (-1 when unknown) and forgets it, so no voucher follows. *)

val proposable : t -> Message.request -> bool
(** Neither executed nor older than the newest request assigned a slot. *)

val assigned_seq : t -> Message.request -> Types.seqno
(** The slot the primary assigned the request, or -1. *)

val assign : t -> Message.request -> seq:Types.seqno -> int64
(** The primary puts the request in slot [seq]; returns as {!backup_holds}. *)

val claim : t -> Message.request -> bool
(** Mark a queued request assigned, unless it is assigned or executed, so
    no queued copy of it joins a batch. *)

val iter_pending : t -> (Message.request -> unit) -> unit
(** Every pending request, in client-id order. *)

val executed : t -> Message.request -> bool
(** Whether the request, or a newer one of its client, executed. *)

val record : t -> Message.request -> string -> unit
(** The request executed with this result; it is no longer pending. *)

val vouch : t -> sender:int -> Message.request -> now:int64 -> bool
(** The primary counts replica [sender]'s voucher for a request newer than
    the client's assigned and pending ones.  [true] when f+1 replicas
    vouched for the identical request, which is pending from [now] on. *)

val iter_to_vouch : t -> after:int64 -> (Message.request -> unit) -> unit
(** A backup's pending requests that arrived from their client later than
    [after], rode in no PRE-PREPARE and were not vouched for, in client-id
    order; each is marked vouched. *)

val merge : t -> (int * int64 * string) list -> unit
(** Install a transferred table's rows.  A pending request stays pending
    unless its row shows it executed. *)

val rows : t -> (int * int64 * string) list
(** The [(client, timestamp, result)] rows of every client with a result,
    in client-id order. *)
