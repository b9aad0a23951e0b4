#!/usr/bin/env bash
# Regenerate the SipHash-2-4 known answers from OpenSSL's implementation,
# which shares no code with this repository (needs OpenSSL >= 3.0, for
# `openssl mac`):
#
#   bash test/kat/gen_siphash_kat.sh > test/kat/siphash_kat.ml
#
# Messages are the bytes 00 01 02 ... (byte i is i mod 256) of each length
# 0-64 under the key 00 01 ... 0f, the setting of the published reference
# vectors, then of longer lengths that cross word and block boundaries up
# to past 8 KB, the size of a whole reply; the suffix cases append one more
# byte, as shard k > 0 does to what it MACs.
set -euo pipefail
key=000102030405060708090a0b0c0d0e0f
msg=$(mktemp)
block=$(mktemp)
trap 'rm -f "$msg" "$block"' EXIT

# One period of the message bytes: 00 .. ff.
for ((i = 0; i < 256; i++)); do printf "\\$(printf '%03o' "$i")"; done >"$block"

# [bytes n] writes the first n message bytes to stdout.
bytes() {
  local k
  for ((k = 0; k < $1 / 256; k++)); do cat "$block"; done
  head -c $(($1 % 256)) "$block"
}

tag() { openssl mac -macopt "hexkey:$key" -macopt size:8 -in "$msg" SIPHASH | tr 'A-F' 'a-f'; }

cat <<'HEAD'
(* SipHash-2-4 known answers, generated by gen_siphash_kat.sh with OpenSSL;
   do not edit.  Each entry is [(n, suffix, expected lowercase hex tag)]:
   the message is [message n], whose byte i is i mod 256, with [suffix]
   appended when present, under the key 00 01 .. 0f. *)

let message n = String.init n (fun i -> Char.chr (i land 255))

(* The tag under that key, as the lowercase hex of its 8 wire bytes. *)
let hex ?suffix msg =
  let key = String.init 16 Char.chr and tag = Bytes.create 8 in
  let suffix = match suffix with Some c -> Char.code c | None -> -1 in
  Bytes.set_int64_le tag 0
    (Base_crypto.Siphash.mac ~k0:(String.get_int64_le key 0) ~k1:(String.get_int64_le key 8) msg
       ~suffix);
  Base_util.Hex.encode (Bytes.to_string tag)

let vectors =
  [
HEAD
for n in $(seq 0 64) 255 256 1023 4096 8199; do
  bytes "$n" >"$msg"
  printf '    (%d, None, "%s");\n' "$n" "$(tag)"
done
for case in 0:ff 6:80 7:01 8:fe 15:01 31:00 32:00 32:01 32:02 32:ff 63:07 \
  255:01 256:ff 1023:80 4096:03 8199:fe; do
  n=${case%:*} c=${case#*:}
  { bytes "$n"; printf "\\$(printf '%03o' "0x$c")"; } >"$msg"
  printf "    (%d, Some '\\\\x%s', \"%s\");\n" "$n" "$c" "$(tag)"
done
cat <<'TAIL'
  ]
TAIL
