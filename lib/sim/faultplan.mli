(** Declarative fault plans: a timed schedule of faults to inject into a
    running system.

    A plan is a list of events, each firing at a virtual-time offset from
    the start of the run.  The DSL is line-oriented (one event per line,
    [#] starts a comment); times and durations take a [us]/[ms]/[s]
    suffix.  Link endpoints are node ids or [*] (any node):

    {v
    # crash-fault schedule
    at 500ms crash 0
    at 900ms reboot 0
    at 700ms promote 4
    at 750ms crash-standby 4
    at 1s partition 0 1 / 2 3
    at 2s heal
    at 1s delay 1->2 extra=300us for 500ms
    at 1s drop *->2 p=0.3 for 500ms
    at 1s corrupt 1->* p=0.25 for 200ms
    at 1s behavior 0 equivocate
    at 1s behavior 1 mute shard=1
    at 1s attack-preprepare 0 mute=0.5 delay=2ms for 1s
    v}

    The module is deliberately protocol-agnostic: it names node ids and
    abstract behaviours, never replica types, so it lives with the
    simulator and is interpreted by the BASE runtime
    ([Base_core.Runtime.apply_faultplan]). *)

(** Abstract replica behaviours; the runtime maps these onto the protocol's
    fault-injection modes. *)
type behavior = B_honest | B_mute | B_lie | B_equivocate

type action =
  | Crash of int  (** fail-stop: the node loses every message and timer *)
  | Reboot of int  (** the crashed node comes back with its state intact *)
  | Promote of int
      (** migration recovery: promote warm standby [id] into the next slot
          of the runtime's rolling cursor (see
          [Base_core.Runtime.apply_faultplan]); used to stage promotion
          races against [crash-standby] *)
  | Crash_standby of int
      (** fail-stop a warm standby — like [Crash] but validated against the
          standby id range by the executor, so plans read unambiguously *)
  | Partition of int list * int list  (** block traffic between two groups *)
  | Heal  (** remove the current partition *)
  | Delay_link of { src : int; dst : int; extra_us : int; for_us : int }
      (** add [extra_us] of delay on matching links for [for_us] *)
  | Drop_link of { src : int; dst : int; p : float; for_us : int }
  | Corrupt_link of { src : int; dst : int; p : float; for_us : int }
  | Set_behavior of { node : int; behavior : behavior; shard : int option }
      (** [shard]: when the object space is sharded, restrict the behaviour
          to the node's replica cell for that one agreement instance
          (["behavior 0 mute shard=1"]); [None] applies it across every
          shard the node hosts *)
  | Attack_pre_prepare of {
      node : int;
      mute_p : float;
      delay_us : int;
      for_us : int;
      shard : int option;
    }
      (** Byzantine primary: while the window is open, node [node] mutes
          each of its pre-prepares with probability [mute_p] and delays the
          ones it does send by [delay_us].  [shard] restricts the attack to
          pre-prepares of one agreement instance
          (["attack-preprepare 0 mute=0.5 delay=2ms shard=1 for 1s"]). *)

type event = { at_us : int; action : action }

type t = event list

val parse : string -> (t, string) result
(** Parse DSL text; errors carry the 1-based line number.  Events keep
    their textual order (the executor's timers order them by [at_us]
    anyway). *)

val to_string : t -> string
(** Canonical rendering, one event per line with every duration in [us];
    [parse (to_string p)] reproduces [p] whenever the plan's probabilities
    have short decimal forms (the round-trip property fuzzed by the test
    suite). *)

val behavior_name : behavior -> string
