/* SHA-256 (FIPS 180-4) in C: the compression function and the two
 * batched kernels built on it.
 *
 * The OCaml side (sha256.ml) keeps the streaming state — buffering,
 * padding, length suffix — and calls down here for whole 64-byte
 * blocks. The two hottest loops of the repository run here entirely,
 * one stub call per batch instead of one per message:
 *
 *   - ac3_sha256_wots_chains_stub walks every hash chain of one WOTS
 *     key (key generation, signing, verification);
 *   - ac3_sha256_pow_grind_stub searches proof-of-work nonces over a
 *     serialized block header, from a midstate of its constant prefix.
 *
 * Both feed two independent messages through one 2-lane compression:
 * each SHA-256 round depends on the one before, so a single stream
 * leaves the SHA unit idle between dependent instructions, and a second
 * stream interleaved quad-round by quad-round fills those gaps.
 *
 * Two implementations live behind one dispatch:
 *
 *   - SHA-NI: x86 SHA extensions (sha256rnds2 et al.) with the
 *     Intel-documented round/message-schedule interleaving, written
 *     once as a per-lane quad-round and instantiated for one lane and
 *     for two;
 *   - scalar: portable C, used when the CPU lacks the extensions (or
 *     on non-x86 builds); its "two lanes" run one after the other.
 *
 * Both compute the identical FIPS 180-4 function, so digests are
 * bit-for-bit the same whichever runs; the test suite's NIST vectors
 * and differential tests exercise the path the host selects. The
 * dispatch is resolved once, the first time anything is hashed.
 *
 * No stub allocates on the OCaml heap or raises (the OCaml wrappers
 * validate every length first), and int arrays hold immediates, so all
 * externals are [@@noalloc] and write fields directly.
 */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static const uint32_t IV[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

static const uint32_t K[64] __attribute__((aligned(16))) = {
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

/* --- portable scalar implementation --------------------------------- */

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void sha256_blocks_c(uint32_t state[8], const unsigned char *data,
                            size_t nblocks)
{
    uint32_t w[64];
    while (nblocks--) {
        for (int i = 0; i < 16; i++)
            w[i] = ((uint32_t)data[4 * i] << 24) | ((uint32_t)data[4 * i + 1] << 16)
                 | ((uint32_t)data[4 * i + 2] << 8) | (uint32_t)data[4 * i + 3];
        for (int i = 16; i < 64; i++) {
            uint32_t s0 = ROTR(w[i - 15], 7) ^ ROTR(w[i - 15], 18) ^ (w[i - 15] >> 3);
            uint32_t s1 = ROTR(w[i - 2], 17) ^ ROTR(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }
        uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (int i = 0; i < 64; i++) {
            uint32_t s1 = ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25);
            uint32_t ch = (e & f) ^ (~e & g);
            uint32_t t1 = h + s1 + ch + K[i] + w[i];
            uint32_t s0 = ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22);
            uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            uint32_t t2 = s0 + maj;
            h = g; g = f; f = e; e = d + t1;
            d = c; c = b; b = a; a = t1 + t2;
        }
        state[0] += a; state[1] += b; state[2] += c; state[3] += d;
        state[4] += e; state[5] += f; state[6] += g; state[7] += h;
        data += 64;
    }
}

static void sha256_blocks2_c(uint32_t sa[8], uint32_t sb[8],
                             const unsigned char *da, const unsigned char *db,
                             size_t nblocks)
{
    sha256_blocks_c(sa, da, nblocks);
    sha256_blocks_c(sb, db, nblocks);
}

/* --- x86 SHA extensions ---------------------------------------------- */

#if defined(__x86_64__) || defined(__i386__)
#define AC3_SHANI_POSSIBLE 1
#include <immintrin.h>

#define SHANI __attribute__((target("sha,sse4.1,ssse3")))
#define SHANI_INLINE static inline __attribute__((always_inline, target("sha,sse4.1,ssse3")))

/* H0..H7 to and from the ABEF/CDGH register pair sha256rnds2 works on. */
SHANI_INLINE void shani_load(const uint32_t st[8], __m128i *abef, __m128i *cdgh)
{
    __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]), 0xB1);
    __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]), 0x1B);
    *abef = _mm_alignr_epi8(cdab, efgh, 8);
    *cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

SHANI_INLINE void shani_store(uint32_t st[8], __m128i abef, __m128i cdgh)
{
    __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(dchg, feba, 8));
}

/* One lane of the compression: working state, the state saved at block
 * start, and the rolling message schedule (w[q % 4] holds W[4q..4q+3]
 * during quad-round q). */
struct shani_lane {
    __m128i abef, cdgh, abef0, cdgh0, w[4];
};

SHANI_INLINE void lane_begin(struct shani_lane *x, const unsigned char *block)
{
    const __m128i MASK = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    x->abef0 = x->abef;
    x->cdgh0 = x->cdgh;
    x->w[0] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 0)), MASK);
    x->w[1] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 16)), MASK);
    x->w[2] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 32)), MASK);
    x->w[3] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 48)), MASK);
}

/* Quad-round q (rounds 4q..4q+3), extending the schedule in the same
 * step: msg2 completes W[4q+4..], msg1 starts W[4q+12..]. */
SHANI_INLINE void lane_quad(struct shani_lane *x, int q)
{
    __m128i msg = _mm_add_epi32(x->w[q & 3], _mm_load_si128((const __m128i *)&K[4 * q]));
    x->cdgh = _mm_sha256rnds2_epu32(x->cdgh, x->abef, msg);
    if (q >= 3 && q <= 14) {
        __m128i next = _mm_add_epi32(x->w[(q + 1) & 3],
                                     _mm_alignr_epi8(x->w[q & 3], x->w[(q + 3) & 3], 4));
        x->w[(q + 1) & 3] = _mm_sha256msg2_epu32(next, x->w[q & 3]);
    }
    x->abef = _mm_sha256rnds2_epu32(x->abef, x->cdgh, _mm_shuffle_epi32(msg, 0x0E));
    if (q >= 1 && q <= 12)
        x->w[(q + 3) & 3] = _mm_sha256msg1_epu32(x->w[(q + 3) & 3], x->w[q & 3]);
}

SHANI_INLINE void lane_end(struct shani_lane *x)
{
    x->abef = _mm_add_epi32(x->abef, x->abef0);
    x->cdgh = _mm_add_epi32(x->cdgh, x->cdgh0);
}

/* The 16 quad-rounds of a block, each expanded for every lane in turn so
 * the lanes' dependency chains interleave. Literal q keeps every
 * schedule index constant, so the lanes live in registers. */
#define QUAD_ROUNDS(QUAD)                                                   \
    QUAD(0) QUAD(1) QUAD(2) QUAD(3) QUAD(4) QUAD(5) QUAD(6) QUAD(7)         \
    QUAD(8) QUAD(9) QUAD(10) QUAD(11) QUAD(12) QUAD(13) QUAD(14) QUAD(15)

SHANI static void sha256_blocks_shani(uint32_t state[8], const unsigned char *data,
                                      size_t nblocks)
{
    struct shani_lane a;
    shani_load(state, &a.abef, &a.cdgh);
    for (; nblocks--; data += 64) {
        lane_begin(&a, data);
#define QUAD1(q) lane_quad(&a, q);
        QUAD_ROUNDS(QUAD1)
#undef QUAD1
        lane_end(&a);
    }
    shani_store(state, a.abef, a.cdgh);
}

SHANI static void sha256_blocks2_shani(uint32_t sa[8], uint32_t sb[8],
                                       const unsigned char *da, const unsigned char *db,
                                       size_t nblocks)
{
    struct shani_lane a, b;
    shani_load(sa, &a.abef, &a.cdgh);
    shani_load(sb, &b.abef, &b.cdgh);
    for (; nblocks--; da += 64, db += 64) {
        lane_begin(&a, da);
        lane_begin(&b, db);
#define QUAD2(q) lane_quad(&a, q); lane_quad(&b, q);
        QUAD_ROUNDS(QUAD2)
#undef QUAD2
        lane_end(&a);
        lane_end(&b);
    }
    shani_store(sa, a.abef, a.cdgh);
    shani_store(sb, b.abef, b.cdgh);
}

static int have_shani(void)
{
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
        && __builtin_cpu_supports("ssse3");
}
#endif /* x86 */

/* --- dispatch --------------------------------------------------------- */

struct impl {
    /* one lane: [nblocks] blocks of [data] into [state] */
    void (*one)(uint32_t[8], const unsigned char *, size_t);
    /* two independent lanes, the same block count each */
    void (*two)(uint32_t[8], uint32_t[8], const unsigned char *, const unsigned char *, size_t);
};

static const struct impl scalar_impl = { sha256_blocks_c, sha256_blocks2_c };
#ifdef AC3_SHANI_POSSIBLE
static const struct impl shani_impl = { sha256_blocks_shani, sha256_blocks2_shani };
#endif

/* Set once by the first caller; racing domains store the same pointer. */
static const struct impl *impl = NULL;

static const struct impl *resolve(void)
{
#ifdef AC3_SHANI_POSSIBLE
    if (have_shani()) return &shani_impl;
#endif
    return &scalar_impl;
}

static const struct impl *kernels(void)
{
    if (impl == NULL) impl = resolve();
    return impl;
}

/* --- message helpers -------------------------------------------------- */

/* Blocks a message tail of [used] bytes occupies once padded. */
static size_t padded_blocks(size_t used) { return (used + 9 + 63) / 64; }

/* Pad a zero-filled buffer holding [used] message bytes out to
 * [nblocks] blocks, for a whole message of [total] bytes. */
static void pad(unsigned char *buf, size_t used, size_t nblocks, uint64_t total)
{
    uint64_t bits = total * 8;
    buf[used] = 0x80;
    for (int i = 0; i < 8; i++) buf[64 * nblocks - 1 - i] = (unsigned char)(bits >> (8 * i));
}

static void put_digest(unsigned char out[32], const uint32_t st[8])
{
    for (int i = 0; i < 8; i++) {
        out[4 * i] = (unsigned char)(st[i] >> 24);
        out[4 * i + 1] = (unsigned char)(st[i] >> 16);
        out[4 * i + 2] = (unsigned char)(st[i] >> 8);
        out[4 * i + 3] = (unsigned char)st[i];
    }
}

/* --- the streaming layer's block function ------------------------------ */

/* [vh] is an 8-element OCaml int array holding H0..H7; [vbuf] a Bytes.t
 * with [vnblocks] whole 64-byte blocks at [voff]. */
CAMLprim value ac3_sha256_compress_stub(value vh, value vbuf, value voff,
                                        value vnblocks)
{
    uint32_t st[8];
    for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(vh, i));
    kernels()->one(st, (const unsigned char *)Bytes_val(vbuf) + Long_val(voff),
                   (size_t)Long_val(vnblocks));
    for (int i = 0; i < 8; i++) Field(vh, i) = Val_long((long)st[i]);
    return Val_unit;
}

/* --- two one-shot digests through the 2-lane compression --------------- */

/* A message as a sequence of padded blocks: whole blocks straight from
 * the input, the last one or two from [tail]. */
struct padded {
    const unsigned char *data;
    size_t full, nblocks;
    unsigned char tail[128];
};

static void padded_init(struct padded *p, const unsigned char *data, size_t len)
{
    size_t rem = len % 64;
    p->data = data;
    p->full = len / 64;
    p->nblocks = p->full + padded_blocks(rem);
    memset(p->tail, 0, sizeof p->tail);
    memcpy(p->tail, data + 64 * p->full, rem);
    pad(p->tail, rem, padded_blocks(rem), len);
}

static const unsigned char *padded_block(const struct padded *p, size_t i)
{
    return i < p->full ? p->data + 64 * i : p->tail + 64 * (i - p->full);
}

/* Digests of strings [va] and [vb] into the 64-byte [vout], block i of
 * both messages in one 2-lane call while both have one. */
CAMLprim value ac3_sha256_pair_stub(value va, value vb, value vout)
{
    const struct impl *k = kernels();
    struct padded p[2];
    uint32_t st[2][8];
    size_t i;
    padded_init(&p[0], (const unsigned char *)String_val(va), caml_string_length(va));
    padded_init(&p[1], (const unsigned char *)String_val(vb), caml_string_length(vb));
    memcpy(st[0], IV, sizeof IV);
    memcpy(st[1], IV, sizeof IV);
    for (i = 0; i < p[0].nblocks && i < p[1].nblocks; i++)
        k->two(st[0], st[1], padded_block(&p[0], i), padded_block(&p[1], i), 1);
    for (int l = 0; l < 2; l++)
        for (size_t j = i; j < p[l].nblocks; j++) k->one(st[l], padded_block(&p[l], j), 1);
    put_digest(Bytes_val(vout), st[0]);
    put_digest(Bytes_val(vout) + 32, st[1]);
    return Val_unit;
}

/* --- WOTS chain kernel ----------------------------------------------- */

/* One chain in flight: its frame, padded, with the step and chain value
 * patched in place each step. Frames are at most 119 bytes, so the
 * padded message is one or two blocks. */
struct chain_lane {
    unsigned char msg[128];
    unsigned char *frame;
    long step, to;
};

/* Load the next chain with a non-empty range into [ln]; 0 if none is left. */
static int chain_next(struct chain_lane *ln, unsigned char *frames, size_t flen,
                      value vranges, long n, long *next)
{
    while (*next < n) {
        long i = (*next)++;
        long from = Long_val(Field(vranges, 2 * i)), to = Long_val(Field(vranges, 2 * i + 1));
        if (from >= to) continue;
        ln->frame = frames + i * flen;
        memcpy(ln->msg, ln->frame, flen);
        ln->msg[flen - 36] = (unsigned char)(i >> 8);
        ln->msg[flen - 35] = (unsigned char)i;
        ln->step = from;
        ln->to = to;
        return 1;
    }
    return 0;
}

/* [vframes] holds n frames of [vflen] bytes, frame i ending
 *   u16 chain | u16 step | 32-byte x
 * and [vranges] is the int array [from0; to0; from1; to1; ...]. Frame i's
 * x is replaced by chain i walked over steps [from_i, to_i): each step
 * hashes the frame with chain = i, step = s and x = the current value,
 * and the digest becomes the next value. An empty range leaves x as is.
 * The two lanes each pull the next unfinished chain, so mixed ranges
 * keep both busy until the last chain. */
CAMLprim value ac3_sha256_wots_chains_stub(value vframes, value vflen, value vranges)
{
    const struct impl *k = kernels();
    unsigned char *frames = Bytes_val(vframes);
    size_t flen = (size_t)Long_val(vflen), nb = padded_blocks(flen);
    long n = (long)(Wosize_val(vranges) / 2), next = 0;
    struct chain_lane ln[2];
    int live[2];

    for (int l = 0; l < 2; l++) {
        memset(ln[l].msg, 0, sizeof ln[l].msg);
        pad(ln[l].msg, flen, nb, flen);
        live[l] = chain_next(&ln[l], frames, flen, vranges, n, &next);
    }
    while (live[0] || live[1]) {
        uint32_t st[2][8];
        for (int l = 0; l < 2; l++) {
            if (!live[l]) continue;
            ln[l].msg[flen - 34] = (unsigned char)(ln[l].step >> 8);
            ln[l].msg[flen - 33] = (unsigned char)ln[l].step;
            memcpy(st[l], IV, sizeof IV);
        }
        if (live[0] && live[1]) {
            k->two(st[0], st[1], ln[0].msg, ln[1].msg, nb);
        } else {
            int l = live[0] ? 0 : 1;
            k->one(st[l], ln[l].msg, nb);
        }
        for (int l = 0; l < 2; l++) {
            if (!live[l]) continue;
            put_digest(ln[l].msg + flen - 32, st[l]);
            if (++ln[l].step == ln[l].to) {
                memcpy(ln[l].frame + flen - 32, ln[l].msg + flen - 32, 32);
                live[l] = chain_next(&ln[l], frames, flen, vranges, n, &next);
            }
        }
    }
    return Val_unit;
}

/* --- PoW grinder ------------------------------------------------------ */

/* Big-endian 256-bit comparison of a digest state against the target. */
static int meets_target(const uint32_t h[8], const uint32_t target[8])
{
    for (int i = 0; i < 8; i++)
        if (h[i] != target[i]) return h[i] < target[i];
    return 1;
}

/* [vhdr] is a serialized header whose last 8 bytes are the nonce,
 * big-endian. Returns the lowest nonce in [first, first + count) whose
 * double SHA-256 is <= the 32-byte [vtarget] (big-endian), or -1. Every
 * block that ends before the nonce is hashed once, as a midstate; each
 * nonce then costs the one or two tail blocks plus the one-block outer
 * hash, and consecutive nonces run as lane pairs. A target that is not
 * 32 bytes is met by no hash. */
CAMLprim value ac3_sha256_pow_grind_stub(value vhdr, value vtarget, value vfirst,
                                         value vcount)
{
    const struct impl *k = kernels();
    const unsigned char *hdr = (const unsigned char *)String_val(vhdr);
    const unsigned char *tb = (const unsigned char *)String_val(vtarget);
    size_t len = caml_string_length(vhdr), nonce_off = len - 8;
    size_t mid = nonce_off / 64, tail_len = len - 64 * mid, ntail = padded_blocks(tail_len);
    long first = Long_val(vfirst), count = Long_val(vcount);
    uint32_t target[8], midstate[8];
    unsigned char tail[2][128], outer[2][64];

    if (caml_string_length(vtarget) != 32) return Val_long(-1);
    for (int i = 0; i < 8; i++)
        target[i] = ((uint32_t)tb[4 * i] << 24) | ((uint32_t)tb[4 * i + 1] << 16)
                  | ((uint32_t)tb[4 * i + 2] << 8) | (uint32_t)tb[4 * i + 3];
    memcpy(midstate, IV, sizeof IV);
    k->one(midstate, hdr, mid);
    for (int l = 0; l < 2; l++) {
        memset(tail[l], 0, sizeof tail[l]);
        memcpy(tail[l], hdr + 64 * mid, tail_len);
        pad(tail[l], tail_len, ntail, len);
        memset(outer[l], 0, sizeof outer[l]);
        pad(outer[l], 32, 1, 32);
    }
    for (long base = 0; base < count; base += 2) {
        int lanes = count - base >= 2 ? 2 : 1;
        uint32_t st[2][8];
        for (int l = 0; l < lanes; l++) {
            uint64_t nonce = (uint64_t)(first + base + l);
            for (int i = 0; i < 8; i++)
                tail[l][tail_len - 1 - i] = (unsigned char)(nonce >> (8 * i));
            memcpy(st[l], midstate, sizeof midstate);
        }
        if (lanes == 2) k->two(st[0], st[1], tail[0], tail[1], ntail);
        else k->one(st[0], tail[0], ntail);
        for (int l = 0; l < lanes; l++) {
            put_digest(outer[l], st[l]);
            memcpy(st[l], IV, sizeof IV);
        }
        if (lanes == 2) k->two(st[0], st[1], outer[0], outer[1], 1);
        else k->one(st[0], outer[0], 1);
        for (int l = 0; l < lanes; l++)
            if (meets_target(st[l], target)) return Val_long(first + base + l);
    }
    return Val_long(-1);
}

/* Exposed so the benchmark harness can report which path is measured. */
CAMLprim value ac3_sha256_shani_available_stub(value unit)
{
    (void)unit;
#ifdef AC3_SHANI_POSSIBLE
    return Val_bool(have_shani());
#else
    return Val_false;
#endif
}
