(* The known answers under the bytecode runtime; exits 1 on a mismatch. *)

let () =
  let failed =
    List.filter
      (fun (name, msg, expected) ->
        let got = Base_crypto.Sha256.hex msg in
        let ok = String.equal got expected in
        if not ok then Printf.eprintf "sha256 %s: expected %s, got %s\n" name expected got;
        not ok)
      Sha256_kat.vectors
  in
  if failed <> [] then exit 1
