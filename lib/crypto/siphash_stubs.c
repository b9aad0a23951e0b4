/* SipHash-2-4 (Aumasson and Bernstein, "SipHash: a fast short-input
   PRF", 2012) with a 64-bit output.

   Portable C99, like the SHA-256 kernel beside it: message words are
   loaded little-endian byte by byte, so nothing depends on alignment or
   host byte order.  The key arrives as its two little-endian 64-bit
   words.  The message is the whole OCaml string, followed by one
   more byte (the low 8 bits of [suffix]) when [suffix] is not negative.

   Only the message string is read, to its own length.  Nothing here
   allocates, raises or releases the runtime lock, which is what makes
   the [@@noalloc] declaration sound. */

#include <stdint.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

#define ROTL(x, b) (((x) << (b)) | ((x) >> (64 - (b))))

#define SIPROUND                                                  \
  do {                                                            \
    v0 += v1; v1 = ROTL(v1, 13); v1 ^= v0; v0 = ROTL(v0, 32);     \
    v2 += v3; v3 = ROTL(v3, 16); v3 ^= v2;                        \
    v0 += v3; v3 = ROTL(v3, 21); v3 ^= v0;                        \
    v2 += v1; v1 = ROTL(v1, 17); v1 ^= v2; v2 = ROTL(v2, 32);     \
  } while (0)

static uint64_t load_le64(const unsigned char *p)
{
  uint64_t w = 0;
  int i;
  for (i = 7; i >= 0; i--) w = (w << 8) | p[i];
  return w;
}

CAMLprim int64_t base_siphash24(int64_t key0, int64_t key1, value msg,
                                intnat suffix)
{
  const unsigned char *p = (const unsigned char *)String_val(msg);
  uintnat len = caml_string_length(msg);
  uint64_t k0 = (uint64_t)key0, k1 = (uint64_t)key1;
  uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  uint64_t v3 = 0x7465646279746573ULL ^ k1;
  uint64_t total = len + (suffix >= 0);
  /* Whole words of the string first; the tail (at most 7 string bytes and
     the suffix) is gathered into [tail], which can fill one more word. */
  unsigned char tail[8];
  uintnat whole = len & ~(uintnat)7, rest = len - whole, i;
  uint64_t m, b;

  for (i = 0; i < whole; i += 8) {
    m = load_le64(p + i);
    v3 ^= m; SIPROUND; SIPROUND; v0 ^= m;
  }
  for (i = 0; i < rest; i++) tail[i] = p[whole + i];
  if (suffix >= 0) tail[rest++] = (unsigned char)suffix;
  if (rest == 8) {
    m = load_le64(tail);
    v3 ^= m; SIPROUND; SIPROUND; v0 ^= m;
    rest = 0;
  }
  b = total << 56;
  for (i = 0; i < rest; i++) b |= (uint64_t)tail[i] << (8 * i);
  v3 ^= b; SIPROUND; SIPROUND; v0 ^= b;
  v2 ^= 0xff;
  SIPROUND; SIPROUND; SIPROUND; SIPROUND;
  return (int64_t)(v0 ^ v1 ^ v2 ^ v3);
}

CAMLprim value base_siphash24_byte(value k0, value k1, value msg,
                                   value suffix)
{
  return caml_copy_int64(
    base_siphash24(Int64_val(k0), Int64_val(k1), msg, Long_val(suffix)));
}
