(* The known answers under the bytecode runtime; exits 1 on a mismatch. *)

let mismatch what expected got =
  let ok = String.equal got expected in
  if not ok then Printf.eprintf "%s: expected %s, got %s\n" what expected got;
  not ok

let () =
  let sha256 =
    List.filter
      (fun (name, msg, expected) ->
        mismatch ("sha256 " ^ name) expected
          (Base_util.Hex.encode (Base_crypto.Sha256.digest msg)))
      Sha256_kat.vectors
  in
  let siphash =
    List.filter
      (fun (n, suffix, expected) ->
        mismatch (Printf.sprintf "siphash length %d" n) expected
          (Siphash_kat.hex ?suffix (Siphash_kat.message n)))
      Siphash_kat.vectors
  in
  if sha256 <> [] || siphash <> [] then exit 1
