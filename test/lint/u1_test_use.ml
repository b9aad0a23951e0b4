(* U1 fixture consumer posing as a test: test/ counts as a consumer. *)

let test_use = U1_export.via_test ()
