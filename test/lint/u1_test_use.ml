(* U1 fixture consumer posing as a test: test/ is not a consumer, so this
   use keeps nothing alive. *)

let test_use = U1_export.via_test ()
