/* SHA-256 compression function (FIPS 180-4 section 6.2.2) over whole
   64-byte blocks.

   Portable C99: message words are loaded big-endian byte by byte, so the
   kernel makes no assumption about alignment or host byte order, and the
   message schedule lives on the C stack.  The chaining state stays in the
   OCaml context as an [int array] of eight 32-bit words; the kernel reads
   it once, runs every block, and writes it back.

   The OCaml side checks that [pos, pos + 64 * nblocks) lies inside the
   buffer before calling; nothing here allocates, raises or releases the
   runtime lock, which is what makes the [@@noalloc] declaration sound. */

#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t k[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void compress(uint32_t s[8], const unsigned char *block)
{
  uint32_t w[64];
  uint32_t a, b, c, d, e, f, g, h;
  int t;

  for (t = 0; t < 16; t++) w[t] = load_be32(block + 4 * t);
  for (t = 16; t < 64; t++) {
    uint32_t w15 = w[t - 15], w2 = w[t - 2];
    uint32_t s0 = ROTR(w15, 7) ^ ROTR(w15, 18) ^ (w15 >> 3);
    uint32_t s1 = ROTR(w2, 17) ^ ROTR(w2, 19) ^ (w2 >> 10);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }
  a = s[0]; b = s[1]; c = s[2]; d = s[3];
  e = s[4]; f = s[5]; g = s[6]; h = s[7];
  for (t = 0; t < 64; t++) {
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                  + ((e & f) ^ (~e & g)) + k[t] + w[t];
    uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                  + ((a & b) ^ (a & c) ^ (b & c));
    h = g; g = f; f = e; e = d + t1;
    d = c; c = b; b = a; a = t1 + t2;
  }
  s[0] += a; s[1] += b; s[2] += c; s[3] += d;
  s[4] += e; s[5] += f; s[6] += g; s[7] += h;
}

/* The eight state words are immediate OCaml ints, so they are stored
   back without a write barrier. */
CAMLprim value base_sha256_compress_blocks(value h, value data, intnat pos,
                                           intnat nblocks)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(data) + pos;
  uint32_t s[8];
  intnat i;

  for (i = 0; i < 8; i++) s[i] = (uint32_t)Long_val(Field(h, i));
  for (i = 0; i < nblocks; i++, p += 64) compress(s, p);
  for (i = 0; i < 8; i++) Field(h, i) = Val_long((intnat)s[i]);
  return Val_unit;
}

CAMLprim value base_sha256_compress_blocks_byte(value h, value data,
                                                value pos, value nblocks)
{
  return base_sha256_compress_blocks(h, data, Long_val(pos), Long_val(nblocks));
}
