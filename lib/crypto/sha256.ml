(* SHA-256 over 32-bit words; the state words are OCaml ints holding 32-bit
   values.  The compression function (FIPS 180-4 section 6.2.2) is the C
   kernel in sha256_stubs.c; padding, buffering and output are here. *)

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer; the final block is padded in place *)
  mutable buf_len : int;
  mutable total : int; (* bytes processed *)
}

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

let init () = { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

(* [compress_blocks h data pos nblocks] runs the compression function over
   the [nblocks] 64-byte blocks of [data] starting at [pos], updating [h].
   It reads the buffer unchecked, so every call goes through [compress]. *)
external compress_blocks :
  int array -> bytes -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "base_sha256_compress_blocks_byte" "base_sha256_compress_blocks"
[@@noalloc]

(* Written so that no sum can overflow: [pos + 64 * nblocks] would wrap
   for a [pos] near [max_int] and pass. *)
let compress ctx block pos nblocks =
  Base_util.Invariant.require
    (pos >= 0 && pos <= Bytes.length block - (64 * nblocks))
    "Sha256.compress: block out of bounds";
  compress_blocks ctx.h block pos nblocks

let update_bytes ctx data ~pos ~len =
  Base_util.Invariant.require
    (pos >= 0 && len >= 0 && pos <= Bytes.length data - len)
    "Sha256.update_bytes: range out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref pos and remaining = ref len in
  (* Fill a partially filled block buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  let whole = !remaining land lnot 63 in
  if whole > 0 then begin
    compress ctx data !pos (whole lsr 6);
    pos := !pos + whole;
    remaining := !remaining - whole
  end;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s = update_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Padding (0x80, zeros, 64-bit big-endian bit length) is written into the
   block buffer itself; when fewer than 9 bytes remain in the current block
   the length spills into one more.  [total] counts message bytes only. *)
let finalize ctx =
  let out = Bytes.create 32 in
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.unsafe_set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0 1;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  let bit_len = ctx.total lsl 3 in
  for i = 0 to 7 do
    Bytes.unsafe_set buf (56 + i) (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx buf 0 1;
  ctx.buf_len <- 0;
  for i = 0 to 7 do
    let v = Array.unsafe_get ctx.h i and j = 4 * i in
    Bytes.unsafe_set out j (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.unsafe_set out (j + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set out (j + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set out (j + 3) (Char.unsafe_chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

(* One-shot digests run start to finish without calling out, so they share
   one context; only the 32-byte result is allocated. *)
let scratch = init ()

let digest s =
  reset scratch;
  update scratch s;
  finalize scratch

let digest_list ss =
  reset scratch;
  List.iter (fun s -> update scratch s) ss;
  finalize scratch
