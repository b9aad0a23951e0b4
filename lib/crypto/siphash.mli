(** SipHash-2-4, a pseudorandom function on short inputs with a 128-bit
    key and a 64-bit output (Aumasson and Bernstein, 2012).  {!Auth} uses
    it as the MAC of every authenticator slot.

    The C kernel is called directly, with its key halves and its result
    unboxed, so where it is called nothing is allocated. *)

external mac :
  k0:(int64[@unboxed]) -> k1:(int64[@unboxed]) -> string -> suffix:(int[@untagged]) ->
  (int64[@unboxed]) = "base_siphash24_byte" "base_siphash24"
[@@noalloc]
(** [mac ~k0 ~k1 msg ~suffix] is the SipHash-2-4 tag of [msg] under the key
    whose first and last 8 bytes are the little-endian words [k0] and [k1];
    the tag's own little-endian bytes are the published tag bytes.  A
    [suffix] in [0 .. 255] appends that byte to the message, without
    building the longer string; [-1] appends nothing. *)
