type t = int64

let zero = 0L

let of_us n = Int64.of_int n

let of_ms n = Int64.mul (Int64.of_int n) 1_000L

let of_sec s = Int64.of_float (s *. 1e6)

let to_sec t = Int64.to_float t /. 1e6

let to_ms t = Int64.to_float t /. 1e3

let add = Int64.add

let sub = Int64.sub

let compare = Int64.compare

let ( < ) a b = Int64.compare a b < 0

let ( <= ) a b = Int64.compare a b <= 0
