(** PBFT's view-change decisions as pure functions.

    Each function reads only the messages it is given and the group's
    {!Types.config}: no replica state, no clock, no mutation.  The replica
    ({!Replica}) keeps the tables these decisions are made from, the timers
    and every send; this module answers what to do.  The properties they
    are tested against are listed in doc/PROTOCOL.md §4. *)

val compute_o :
  Types.config -> Types.view -> Message.view_change list -> Types.seqno * Message.pre_prepare list
(** [compute_o config v' vcs] is [(min_s, o)]: [min_s] is the highest
    stable checkpoint any of [vcs] claims, and [o] re-proposes in view [v']
    every slot of [(min_s, max_s]], in seqno order, where [max_s] is the
    highest prepared seqno in [vcs].  A slot takes the PRE-PREPARE that
    prepared in the highest view (the first one listed among equals); a
    slot nothing prepared at gets an empty batch.  [o] holds at most
    [config.log_window] slots, the top ones: honest VIEW-CHANGEs never
    reach past that cap (see {!vc_sane}). *)

val vc_sane : Types.config -> Message.view_change -> bool
(** Whether a VIEW-CHANGE's claims are mutually plausible: a non-negative
    stable checkpoint, and every prepared PRE-PREPARE of at most
    [batch_max] requests, in a view below the one asked for, and within
    one log window above the claimed checkpoint — the only place an honest
    replica can have prepared anything.  One outside that range could
    otherwise widen the reconstructed window to an attacker-chosen span. *)

(** What a backup does with a NEW-VIEW. *)
type verdict =
  | Install of Types.seqno  (** install the view with this stable checkpoint, [min_s] *)
  | Insane  (** the message's claims are implausible: count it, move on a view *)
  | Mismatch  (** it disagrees with the VIEW-CHANGEs held: move on a view *)

val new_view_verdict :
  Types.config -> held:Message.view_change list -> Message.new_view -> verdict
(** [new_view_verdict config ~held nv] judges [nv] against the VIEW-CHANGEs
    for its view that this replica holds.  It is [Insane] unless every
    claimed stable seqno is non-negative and every re-proposed PRE-PREPARE
    lies in the new view, within one log window above [min_s], the highest
    claimed checkpoint.  When [held] covers every replica of the summary,
    [compute_o] over the held copies must give [nv]'s [min_s], and its O
    slot for slot and digest for digest; otherwise it is a [Mismatch].  A
    summary that misstates a seqno but not the highest one is harmless
    (neither [min_s] nor O depends on it) and passes.  When it does not, the replica trusts a
    summary of at least [2f + 1] VIEW-CHANGEs, the quorum a correct primary
    needs (a known limit: doc/PROTOCOL.md §7). *)

val join_target :
  Types.config -> view:Types.view -> (Types.view * int list) list -> Types.view option
(** The f+1 join rule.  [join_target config ~view votes], where [votes]
    pairs each view with the replicas that asked for it, is the smallest
    view above [view] that some replica asked for, when at least [f + 1]
    distinct replicas asked for views above [view]; a view with no voters
    is ignored. *)

val abandon_target :
  Types.config -> view:Types.view -> Types.view list -> Message.pre_prepare list -> Types.view option
(** View abandonment.  [abandon_target config ~view peers prepared], where
    [peers] are the views the other replicas last reported and [prepared]
    the PRE-PREPAREs that prepared here, is the highest of the peer views
    below [view], when at least [2f] peers report one and no PRE-PREPARE
    of [prepared] prepared in a view above it.  A replica that escalated
    alone can never gather 2f + 1 VIEW-CHANGEs; nothing can have committed
    in the views it abandons. *)
