(* U1 fixture: four exports, each reached a different way (or not at all)
   by the units posing as its consumers in test_lint.ml. *)

val via_alias : unit -> int
(** Used through [module X = U1_export]. *)

val via_open : unit -> int
(** Used after [open U1_export]. *)

val via_test : unit -> int
(** Used only by a unit under test/: a U1 finding. *)

val internal_only : unit -> int
(** Used only inside this module: a U1 finding. *)
