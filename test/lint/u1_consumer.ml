(* U1 fixture consumer: exports used through a module alias (also a local
   one) and through an open.  None of the three may count as a use of the
   whole module, which would keep every export alive. *)

module X = U1_export

let alias_use = X.via_alias ()

let local_alias_use =
  let module Y = U1_export in
  Y.via_alias ()

open U1_export

let open_use = via_open ()
