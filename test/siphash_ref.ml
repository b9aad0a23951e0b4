(* SipHash-2-4 written straight from the paper (Aumasson and Bernstein,
   "SipHash: a fast short-input PRF", 2012) over [Int64], one message word
   at a time: the materialised message, padding included, is split into
   little-endian words, with no tail buffer and no suffix argument.  The
   oracle for the differential suite (test_sha256_diff.ml), which the C
   kernel behind [Base_crypto.Siphash] must match on every key, length and
   suffix. *)

let rotl x b = Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

let word s i = String.get_int64_le s i

(* [mac ~k0 ~k1 msg] is the tag of [msg] under the key words [k0], [k1]. *)
let mac ~k0 ~k1 msg =
  let v0 = ref (Int64.logxor 0x736f6d6570736575L k0) in
  let v1 = ref (Int64.logxor 0x646f72616e646f6dL k1) in
  let v2 = ref (Int64.logxor 0x6c7967656e657261L k0) in
  let v3 = ref (Int64.logxor 0x7465646279746573L k1) in
  let round () =
    v0 := Int64.add !v0 !v1;
    v1 := rotl !v1 13;
    v1 := Int64.logxor !v1 !v0;
    v0 := rotl !v0 32;
    v2 := Int64.add !v2 !v3;
    v3 := rotl !v3 16;
    v3 := Int64.logxor !v3 !v2;
    v0 := Int64.add !v0 !v3;
    v3 := rotl !v3 21;
    v3 := Int64.logxor !v3 !v0;
    v2 := Int64.add !v2 !v1;
    v1 := rotl !v1 17;
    v1 := Int64.logxor !v1 !v2;
    v2 := rotl !v2 32
  in
  (* Zero-fill to 7 mod 8, then the length byte: the last word is the
     message's tail with [len mod 256] in its top byte. *)
  let len = String.length msg in
  let padded = msg ^ String.make (7 - (len mod 8)) '\000' ^ String.make 1 (Char.chr (len land 0xff)) in
  for w = 0 to (String.length padded / 8) - 1 do
    let m = word padded (8 * w) in
    v3 := Int64.logxor !v3 m;
    round ();
    round ();
    v0 := Int64.logxor !v0 m
  done;
  v2 := Int64.logxor !v2 0xffL;
  for _ = 1 to 4 do
    round ()
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)
