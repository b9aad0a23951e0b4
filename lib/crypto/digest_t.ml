type t = string

let of_string s = Sha256.digest s

let of_list ss = Sha256.digest_list ss

let of_raw s =
  if String.length s <> 32 then invalid_arg "Digest_t.of_raw: expected 32 bytes";
  s

let raw t = t

let zero = String.make 32 '\000'

let equal = String.equal

let combine ds = Sha256.digest_list ds

let to_hex t = Base_util.Hex.encode t

let pp ppf t = Format.pp_print_string ppf (Base_util.Hex.short t)
