/* SHA-256 (FIPS 180-4) in C: the compression function and the batched
 * kernels built on it.
 *
 * The OCaml side (sha256.ml) keeps the streaming state — buffering,
 * padding, length suffix — and calls down here for whole 64-byte
 * blocks. The two hottest loops of the repository run here entirely,
 * one stub call per batch instead of one per message:
 *
 *   - ac3_sha256_wots_chains_stub walks the hash chains of one or more
 *     WOTS keys (key generation, signing, verification), optionally
 *     expanding each chain's secret element first;
 *   - ac3_sha256_pow_grind_stub searches proof-of-work nonces over a
 *     serialized block header, from a midstate of its constant prefix.
 *
 * Both run N independent messages at once through an N-lane
 * compression. Lane data is word-major: row j of a lane buffer holds
 * word j (a big-endian message word, as a native integer) of every
 * lane, so a lane's chain value goes from one step's digest into the
 * next step's message without a byte round trip, and the wide kernel
 * loads a row as one vector.
 *
 * Three compressions live behind one dispatch, resolved once, the first
 * time anything is hashed, from what the CPU provides:
 *
 *   - AVX-512F: 16 lanes, one per 32-bit element of a 512-bit vector,
 *     written once with GCC vector extensions;
 *   - SHA-NI: x86 SHA extensions (sha256rnds2 et al.) with the
 *     Intel-documented round/message-schedule interleaving, written
 *     once as a per-lane quad-round and instantiated for one lane and
 *     for two (the lanes' dependency chains interleave);
 *   - scalar: portable C, used when the CPU lacks both (or on non-x86
 *     builds); its two lanes run one after the other.
 *
 * The lane kernel is AVX-512F when the CPU has it, else the 2-lane
 * SHA-NI or scalar pair; the one-lane streaming path is SHA-NI or
 * scalar. On a SHA-NI host the same vector code built for AVX2 is about
 * twice as slow per chain step as the 2-lane SHA-NI pair, and built for
 * baseline x86-64 about five times, so only AVX-512F displaces it.
 * Every path computes the identical FIPS 180-4 function, so digests are
 * bit-for-bit the same whichever runs; the test suite's NIST vectors
 * and differential tests exercise the path the host selects.
 *
 * Vectors never cross a function boundary by value: functions compiled
 * for different targets disagree on how a 64-byte vector is passed, so
 * lane data moves between them through memory (lane_row pointers).
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

/* The widest lane kernel's lane count: every lane buffer has this many
 * columns, of which a kernel with fewer lanes uses the first. */
#define MAX_LANES 16

/* Word j of every lane (a message or state word per row). */
typedef uint32_t lane_row[MAX_LANES];

/* [nblocks] consecutive blocks of each lane's message — block b is rows
 * 16b..16b+15 of [w] — into that lane's state (rows 0..7 of [st]).
 * When [wk] is not NULL the last block is the same in every lane and
 * wk[i] = W_i + K_i is its message schedule plus round constants: a
 * kernel may run that block from [wk] instead of its rows (which still
 * hold it). */
typedef void lanes_fn(lane_row st[8], lane_row *w, size_t nblocks, const uint32_t *wk);

static uint32_t be32(const unsigned char *p)
{
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8)
         | (uint32_t)p[3];
}

/* --- portable scalar implementation --------------------------------- */

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

/* The message schedule W_0..W_63 of one block of message words. */
static void schedule(const uint32_t m[16], uint32_t w[64])
{
    memcpy(w, m, 16 * sizeof *m);
    for (int i = 16; i < 64; i++) {
        uint32_t s0 = ROTR(w[i - 15], 7) ^ ROTR(w[i - 15], 18) ^ (w[i - 15] >> 3);
        uint32_t s1 = ROTR(w[i - 2], 17) ^ ROTR(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
}

/* One block of message words [m] into [state]. */
static void compress_c(uint32_t state[8], const uint32_t m[16])
{
    uint32_t w[64];
    schedule(m, w);
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
}

static void sha256_blocks_c(uint32_t state[8], const unsigned char *data, size_t nblocks)
{
    uint32_t m[16];
    for (; nblocks--; data += 64) {
        for (int i = 0; i < 16; i++) m[i] = be32(data + 4 * i);
        compress_c(state, m);
    }
}

static void sha256_lanes2_c(lane_row st[8], lane_row *w, size_t nblocks,
                            const uint32_t *wk)
{
    (void)wk;
    for (int l = 0; l < 2; l++) {
        uint32_t s[8], m[16];
        for (int j = 0; j < 8; j++) s[j] = st[j][l];
        for (size_t b = 0; b < nblocks; b++) {
            for (int j = 0; j < 16; j++) m[j] = w[16 * b + j][l];
            compress_c(s, m);
        }
        for (int j = 0; j < 8; j++) st[j][l] = s[j];
    }
}

/* --- x86: SHA extensions and AVX-512F ---------------------------------- */

#if defined(__x86_64__) || defined(__i386__)
#define AC3_X86 1
#include <immintrin.h>

#define SHANI __attribute__((target("sha,sse4.1,ssse3")))
#define SHANI_INLINE static inline __attribute__((always_inline, target("sha,sse4.1,ssse3")))

/* H0..H3 and H4..H7 to and from the ABEF/CDGH register pair
 * sha256rnds2 works on. */
SHANI_INLINE void shani_load(__m128i h0123, __m128i h4567, __m128i *abef, __m128i *cdgh)
{
    __m128i cdab = _mm_shuffle_epi32(h0123, 0xB1);
    __m128i efgh = _mm_shuffle_epi32(h4567, 0x1B);
    *abef = _mm_alignr_epi8(cdab, efgh, 8);
    *cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

SHANI_INLINE void shani_store(__m128i abef, __m128i cdgh, __m128i *h0123, __m128i *h4567)
{
    __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    *h0123 = _mm_blend_epi16(feba, dchg, 0xF0);
    *h4567 = _mm_alignr_epi8(dchg, feba, 8);
}

/* Lanes 0 and 1 of four consecutive lane rows, one vector per lane. */
SHANI_INLINE void rows_get2(lane_row *r, __m128i *l0, __m128i *l1)
{
    __m128i ab = _mm_unpacklo_epi32(_mm_loadl_epi64((const __m128i *)r[0]),
                                    _mm_loadl_epi64((const __m128i *)r[1]));
    __m128i cd = _mm_unpacklo_epi32(_mm_loadl_epi64((const __m128i *)r[2]),
                                    _mm_loadl_epi64((const __m128i *)r[3]));
    *l0 = _mm_unpacklo_epi64(ab, cd);
    *l1 = _mm_unpackhi_epi64(ab, cd);
}

SHANI_INLINE void rows_put2(lane_row *r, __m128i l0, __m128i l1)
{
    __m128i lo = _mm_unpacklo_epi32(l0, l1), hi = _mm_unpackhi_epi32(l0, l1);
    _mm_storel_epi64((__m128i *)r[0], lo);
    _mm_storel_epi64((__m128i *)r[1], _mm_unpackhi_epi64(lo, lo));
    _mm_storel_epi64((__m128i *)r[2], hi);
    _mm_storel_epi64((__m128i *)r[3], _mm_unpackhi_epi64(hi, hi));
}

/* One lane of the compression: working state, the state saved at block
 * start, and the rolling message schedule (w[q % 4] holds W[4q..4q+3]
 * during quad-round q). A block starts by saving the state; its caller
 * then loads the message words into w. */
struct shani_lane {
    __m128i abef, cdgh, abef0, cdgh0, w[4];
};

SHANI_INLINE void lane_begin(struct shani_lane *x)
{
    x->abef0 = x->abef;
    x->cdgh0 = x->cdgh;
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
    const __m128i MASK = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    struct shani_lane a;
    __m128i h0123, h4567;
    shani_load(_mm_loadu_si128((const __m128i *)&state[0]),
               _mm_loadu_si128((const __m128i *)&state[4]), &a.abef, &a.cdgh);
    for (; nblocks--; data += 64) {
        lane_begin(&a);
        for (int i = 0; i < 4; i++)
            a.w[i] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 16 * i)), MASK);
#define QUAD1(q) lane_quad(&a, q);
        QUAD_ROUNDS(QUAD1)
#undef QUAD1
        lane_end(&a);
    }
    shani_store(a.abef, a.cdgh, &h0123, &h4567);
    _mm_storeu_si128((__m128i *)&state[0], h0123);
    _mm_storeu_si128((__m128i *)&state[4], h4567);
}

SHANI static void sha256_lanes2_shani(lane_row st[8], lane_row *w, size_t nblocks,
                                      const uint32_t *wk)
{
    struct shani_lane a, b;
    __m128i a0123, a4567, b0123, b4567;
    (void)wk;
    rows_get2(st, &a0123, &b0123);
    rows_get2(st + 4, &a4567, &b4567);
    shani_load(a0123, a4567, &a.abef, &a.cdgh);
    shani_load(b0123, b4567, &b.abef, &b.cdgh);
    for (; nblocks--; w += 16) {
        lane_begin(&a);
        lane_begin(&b);
        for (int i = 0; i < 4; i++) rows_get2(w + 4 * i, &a.w[i], &b.w[i]);
#define QUAD2(q) lane_quad(&a, q); lane_quad(&b, q);
        QUAD_ROUNDS(QUAD2)
#undef QUAD2
        lane_end(&a);
        lane_end(&b);
    }
    shani_store(a.abef, a.cdgh, &a0123, &a4567);
    shani_store(b.abef, b.cdgh, &b0123, &b4567);
    rows_put2(st, a0123, b0123);
    rows_put2(st + 4, a4567, b4567);
}

static int have_shani(void)
{
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
        && __builtin_cpu_supports("ssse3");
}

/* 16 lanes: the scalar compression on 512-bit vectors, lane l in
 * element l. GCC lowers the rotates to vprord and the boolean
 * functions to vpternlogd. */
#define AVX512 __attribute__((target("avx512f")))

typedef uint32_t v16 __attribute__((vector_size(64)));

#define VROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

/* One round on rotating working variables, [m] being W_i + K_i. */
#define VROUND(a, b, c, d, e, f, g, h, m)                                        \
    do {                                                                         \
        v16 t1 = h + (VROTR(e, 6) ^ VROTR(e, 11) ^ VROTR(e, 25))                 \
               + ((e & f) ^ (~e & g)) + (m);                                     \
        d += t1;                                                                 \
        h = t1 + (VROTR(a, 2) ^ VROTR(a, 13) ^ VROTR(a, 22))                     \
          + ((a & b) ^ (a & c) ^ (b & c));                                       \
    } while (0)

/* W_i + K_i from the rolling schedule (W[i & 15] holds W_i), which
 * rounds 16.. first extend in place. */
#define VMSG(i)                                                                  \
    ((i) >= 16 ? (W[(i) & 15] += (VROTR(W[((i) - 2) & 15], 17)                  \
                                  ^ VROTR(W[((i) - 2) & 15], 19)                 \
                                  ^ (W[((i) - 2) & 15] >> 10))                   \
                                 + W[((i) - 7) & 15]                             \
                                 + (VROTR(W[((i) - 15) & 15], 7)                 \
                                    ^ VROTR(W[((i) - 15) & 15], 18)              \
                                    ^ (W[((i) - 15) & 15] >> 3)))                \
               : W[(i) & 15]) + K[i]

/* W_i + K_i of a block shared by every lane, precomputed. */
#define VMSG_SHARED(i) wk[i]

#define VROUND8(MSG, i)                                   \
    VROUND(a, b, c, d, e, f, g, h, MSG(i));               \
    VROUND(h, a, b, c, d, e, f, g, MSG((i) + 1));         \
    VROUND(g, h, a, b, c, d, e, f, MSG((i) + 2));         \
    VROUND(f, g, h, a, b, c, d, e, MSG((i) + 3));         \
    VROUND(e, f, g, h, a, b, c, d, MSG((i) + 4));         \
    VROUND(d, e, f, g, h, a, b, c, MSG((i) + 5));         \
    VROUND(c, d, e, f, g, h, a, b, MSG((i) + 6));         \
    VROUND(b, c, d, e, f, g, h, a, MSG((i) + 7));

#define VROUNDS(MSG)                                                     \
    VROUND8(MSG, 0) VROUND8(MSG, 8) VROUND8(MSG, 16) VROUND8(MSG, 24)    \
    VROUND8(MSG, 32) VROUND8(MSG, 40) VROUND8(MSG, 48) VROUND8(MSG, 56)

AVX512 static void sha256_lanes16_avx512(lane_row st[8], lane_row *w, size_t nblocks,
                                         const uint32_t *wk)
{
    v16 s[8], W[16];
    for (int j = 0; j < 8; j++) memcpy(&s[j], st[j], sizeof s[j]);
    for (size_t blk = 0; blk < nblocks; blk++, w += 16) {
        v16 a = s[0], b = s[1], c = s[2], d = s[3], e = s[4], f = s[5], g = s[6], h = s[7];
        if (wk != NULL && blk + 1 == nblocks) {
            VROUNDS(VMSG_SHARED)
        } else {
            for (int j = 0; j < 16; j++) memcpy(&W[j], w[j], sizeof W[j]);
            VROUNDS(VMSG)
        }
        s[0] += a; s[1] += b; s[2] += c; s[3] += d;
        s[4] += e; s[5] += f; s[6] += g; s[7] += h;
    }
    for (int j = 0; j < 8; j++) memcpy(st[j], &s[j], sizeof s[j]);
}

static int have_avx512(void) { return __builtin_cpu_supports("avx512f"); }
#endif /* x86 */

/* --- dispatch --------------------------------------------------------- */

struct impl {
    /* one lane: [nblocks] blocks of [data] into [state] (the streaming layer) */
    void (*one)(uint32_t[8], const unsigned char *, size_t);
    /* the lane kernel and its lane count */
    lanes_fn *many;
    int lanes;
};

static const struct impl scalar_impl = { sha256_blocks_c, sha256_lanes2_c, 2 };
#ifdef AC3_X86
static const struct impl shani_impl = { sha256_blocks_shani, sha256_lanes2_shani, 2 };
static const struct impl avx512_impl = { sha256_blocks_c, sha256_lanes16_avx512, 16 };
static const struct impl avx512_shani_impl = { sha256_blocks_shani, sha256_lanes16_avx512, 16 };
#endif

/* Set once by the first caller; racing domains store the same pointer. */
static const struct impl *impl = NULL;

static const struct impl *resolve(void)
{
#ifdef AC3_X86
    if (have_avx512()) return have_shani() ? &avx512_shani_impl : &avx512_impl;
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

/* --- lane buffers ------------------------------------------------------- */

/* A lane kernel's working set: up to two blocks of message rows and the
 * state rows, aligned for whole-row vector loads. */
struct lanes {
    lane_row w[32] __attribute__((aligned(64)));
    lane_row st[8] __attribute__((aligned(64)));
};

static void lanes_clear(struct lanes *x) { memset(x, 0, sizeof *x); }

/* Column [l] of the message rows from [nblocks] blocks of bytes. */
static void lane_load(struct lanes *x, int l, const unsigned char *data, size_t nblocks)
{
    for (size_t j = 0; j < 16 * nblocks; j++) x->w[j][l] = be32(data + 4 * j);
}

/* The row loops below take the lane count as an argument but are
 * entered through a test for the widest kernel, so for it the count is
 * a constant and the loops compile to whole-row vector code. */
#define ROW_LOOP(F, lanes, ...) \
    ((lanes) == MAX_LANES ? F(MAX_LANES, __VA_ARGS__) : F((lanes), __VA_ARGS__))

/* The state of lanes [0, lanes) set to the same eight words. */
static inline __attribute__((always_inline)) void set_state(int lanes, struct lanes *x,
                                                            const uint32_t h[8])
{
    for (int j = 0; j < 8; j++) {
        uint32_t v = h[j];
        for (int l = 0; l < lanes; l++) x->st[j][l] = v;
    }
}

static void lanes_set_state(struct lanes *x, int lanes, const uint32_t h[8])
{
    ROW_LOOP(set_state, lanes, x, h);
}

static void lane_state(const struct lanes *x, int l, uint32_t h[8])
{
    for (int j = 0; j < 8; j++) h[j] = x->st[j][l];
}

static void lane_digest(unsigned char out[32], const struct lanes *x, int l)
{
    uint32_t h[8];
    lane_state(x, l, h);
    put_digest(out, h);
}

/* The [n] big-endian words of rows [src] written over the message bytes
 * [off, off + 4n) of lanes [0, lanes). All lanes share the offset, so
 * this is row arithmetic: with s = off mod 4, each row takes the words
 * shifted right by s bytes, and the rows the span only partly covers
 * keep their other bytes. */
static inline __attribute__((always_inline)) void put_words(int lanes, struct lanes *x,
                                                            size_t off,
                                                            lane_row *restrict src, int n)
{
    lane_row *restrict w = x->w + off / 4;
    int s = 8 * (int)(off & 3);
    if (s == 0) {
        for (int j = 0; j < n; j++)
            for (int l = 0; l < lanes; l++) w[j][l] = src[j][l];
        return;
    }
    uint32_t keep_hi = ~(0xFFFFFFFFu >> s), keep_lo = 0xFFFFFFFFu >> s;
    for (int l = 0; l < lanes; l++) w[0][l] = (w[0][l] & keep_hi) | (src[0][l] >> s);
    for (int j = 1; j < n; j++)
        for (int l = 0; l < lanes; l++)
            w[j][l] = (src[j - 1][l] << (32 - s)) | (src[j][l] >> s);
    for (int l = 0; l < lanes; l++) w[n][l] = (src[n - 1][l] << (32 - s)) | (w[n][l] & keep_lo);
}

static void lanes_put_words(struct lanes *x, int lanes, size_t off, lane_row *src, int n)
{
    ROW_LOOP(put_words, lanes, x, off, src, n);
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

/* --- two one-shot digests through the lane kernel ---------------------- */

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

/* Digests of strings [va] and [vb] into the 64-byte [vout]: block i of
 * both messages in lanes 0 and 1 of one lane-kernel call while both
 * have one, the longer message's rest one lane at a time. */
CAMLprim value ac3_sha256_pair_stub(value va, value vb, value vout)
{
    const struct impl *k = kernels();
    struct padded p[2];
    struct lanes x;
    uint32_t st[2][8];
    size_t i;
    padded_init(&p[0], (const unsigned char *)String_val(va), caml_string_length(va));
    padded_init(&p[1], (const unsigned char *)String_val(vb), caml_string_length(vb));
    lanes_clear(&x);
    lanes_set_state(&x, k->lanes, IV);
    for (i = 0; i < p[0].nblocks && i < p[1].nblocks; i++) {
        for (int l = 0; l < 2; l++) lane_load(&x, l, padded_block(&p[l], i), 1);
        k->many(x.st, x.w, 1, NULL);
    }
    for (int l = 0; l < 2; l++) {
        lane_state(&x, l, st[l]);
        for (size_t j = i; j < p[l].nblocks; j++) k->one(st[l], padded_block(&p[l], j), 1);
    }
    put_digest(Bytes_val(vout), st[0]);
    put_digest(Bytes_val(vout) + 32, st[1]);
    return Val_unit;
}

/* --- WOTS chain driver ------------------------------------------------ */

/* One chain in flight in a lane: its frame, its index within its key,
 * and the next step to take and the step to stop before. */
struct chain {
    unsigned char *frame;
    uint32_t index;
    long step, to;
};

struct wots_job {
    unsigned char *frames;
    size_t flen, nb;
    value ranges;
    long n, next;
    unsigned char msg[128]; /* a frame padded: bytes past [flen] stay padding */
};

/* Load the next chain with a non-empty range into lane [l]; 0 if none
 * is left. */
static int chain_next(struct wots_job *job, struct lanes *x, struct chain *c, int l)
{
    while (job->next < job->n) {
        long i = job->next++;
        long from = Long_val(Field(job->ranges, 2 * i));
        long to = Long_val(Field(job->ranges, 2 * i + 1));
        if (from >= to) continue;
        c->frame = job->frames + i * job->flen;
        c->index = ((uint32_t)c->frame[job->flen - 36] << 8) | c->frame[job->flen - 35];
        c->step = from;
        c->to = to;
        memcpy(job->msg, c->frame, job->flen);
        job->msg[job->flen - 34] = (unsigned char)(from >> 8);
        job->msg[job->flen - 33] = (unsigned char)from;
        lane_load(x, l, job->msg, job->nb);
        return 1;
    }
    c->frame = NULL;
    return 0;
}

/* Frame i's x set to the HMAC-SHA256, under key (i / per_key)'s pad
 * midstates, of its chain index rendered as 16 lowercase hex digits:
 * the inner hash is one block (the 64-byte pad is in the midstate, the
 * 16 digits and the padding in the block), the outer one block over the
 * inner digest. */
static void wots_expand(const struct impl *k, struct wots_job *job, value vpads)
{
    static const char hex[] = "0123456789abcdef";
    long per_key = job->n / (long)(Wosize_val(vpads) / 16);
    struct lanes in, out;
    lanes_clear(&in);
    lanes_clear(&out);
    for (int l = 0; l < k->lanes; l++) {
        for (int j = 0; j < 3; j++) in.w[j][l] = 0x30303030; /* "0000" */
        in.w[4][l] = 0x80000000;
        in.w[15][l] = (64 + 16) * 8;
        out.w[8][l] = 0x80000000;
        out.w[15][l] = (64 + 32) * 8;
    }
    for (long base = 0; base < job->n; base += k->lanes) {
        int m = job->n - base < k->lanes ? (int)(job->n - base) : k->lanes;
        for (int l = 0; l < m; l++) {
            const unsigned char *frame = job->frames + (base + l) * job->flen;
            unsigned c = ((unsigned)frame[job->flen - 36] << 8) | frame[job->flen - 35];
            long key = (base + l) / per_key;
            for (int j = 0; j < 8; j++) {
                in.st[j][l] = (uint32_t)Long_val(Field(vpads, 16 * key + j));
                out.st[j][l] = (uint32_t)Long_val(Field(vpads, 16 * key + 8 + j));
            }
            in.w[3][l] = ((uint32_t)hex[(c >> 12) & 15] << 24)
                       | ((uint32_t)hex[(c >> 8) & 15] << 16)
                       | ((uint32_t)hex[(c >> 4) & 15] << 8) | (uint32_t)hex[c & 15];
        }
        k->many(in.st, in.w, 1, NULL);
        lanes_put_words(&out, k->lanes, 0, in.st, 8);
        k->many(out.st, out.w, 1, NULL);
        for (int l = 0; l < m; l++)
            lane_digest(job->frames + (base + l) * job->flen + job->flen - 32, &out, l);
    }
}

/* The first [vn] frames of [vframes], [vflen] bytes each, are walked;
 * frame i ends
 *   u16 chain | u16 step | 32-byte x
 * and [vranges] starts with the int array [from0; to0; from1; to1; ...]
 * of those n chains. Either buffer may be longer (a reused scratch);
 * the bytes and words past the n chains are not touched. When
 * [vpads] is not empty, every frame's x is first set to its secret
 * element (wots_expand). Frame i's x is then replaced by chain i walked
 * over steps [from_i, to_i): each step hashes the frame with step = s
 * and x = the current value, and the digest becomes the next value; an
 * empty range leaves x as is. Each lane pulls the next unfinished chain,
 * so mixed ranges keep every lane busy until the last chains. */
CAMLprim value ac3_sha256_wots_chains_stub(value vframes, value vflen, value vn,
                                           value vranges, value vpads)
{
    const struct impl *k = kernels();
    struct wots_job job;
    struct lanes x;
    struct chain c[MAX_LANES];
    lane_row chain_step;
    uint32_t wk[64];
    const uint32_t *shared = NULL;
    int live = 0;
    size_t xoff;

    job.frames = Bytes_val(vframes);
    job.flen = (size_t)Long_val(vflen);
    job.nb = padded_blocks(job.flen);
    job.ranges = vranges;
    job.n = Long_val(vn);
    job.next = 0;
    memset(job.msg, 0, sizeof job.msg);
    pad(job.msg, job.flen, job.nb, job.flen);
    xoff = job.flen - 32;
    if (Wosize_val(vpads) > 0) wots_expand(k, &job, vpads);

    /* A 56..64-byte frame fills the first block, so the second holds
     * only padding, the same in every lane at every step. */
    if (job.nb == 2 && job.flen <= 64) {
        uint32_t m[16];
        for (int i = 0; i < 16; i++) m[i] = be32(job.msg + 64 + 4 * i);
        schedule(m, wk);
        for (int i = 0; i < 64; i++) wk[i] += K[i];
        shared = wk;
    }

    lanes_clear(&x);
    memset(c, 0, sizeof c);
    for (int l = 0; l < k->lanes; l++) live += chain_next(&job, &x, &c[l], l);
    while (live > 0) {
        lanes_set_state(&x, k->lanes, IV);
        k->many(x.st, x.w, job.nb, shared);
        /* the next step's message: chain | step + 1 | this digest */
        for (int l = 0; l < k->lanes; l++)
            chain_step[l] = (c[l].index << 16) | ((uint32_t)(c[l].step + 1) & 0xFFFF);
        lanes_put_words(&x, k->lanes, job.flen - 36, &chain_step, 1);
        lanes_put_words(&x, k->lanes, xoff, x.st, 8);
        for (int l = 0; l < k->lanes; l++) {
            if (c[l].frame == NULL || ++c[l].step < c[l].to) continue;
            lane_digest(c[l].frame + xoff, &x, l);
            if (!chain_next(&job, &x, &c[l], l)) live--;
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
 * hash. Consecutive nonces fill the lanes in order and the lanes are
 * checked in that order, so the first hit is the lowest. A target that
 * is not 32 bytes is met by no hash. */
CAMLprim value ac3_sha256_pow_grind_stub(value vhdr, value vtarget, value vfirst,
                                         value vcount)
{
    const struct impl *k = kernels();
    const unsigned char *hdr = (const unsigned char *)String_val(vhdr);
    const unsigned char *tb = (const unsigned char *)String_val(vtarget);
    size_t len = caml_string_length(vhdr), nonce_off = len - 8;
    size_t mid = nonce_off / 64, tail_len = len - 64 * mid, ntail = padded_blocks(tail_len);
    long first = Long_val(vfirst), count = Long_val(vcount);
    uint32_t target[8], midstate[8], h[8];
    unsigned char tail[128];
    lane_row nonce[2];
    struct lanes x, outer;

    if (caml_string_length(vtarget) != 32) return Val_long(-1);
    for (int i = 0; i < 8; i++) target[i] = be32(tb + 4 * i);
    memcpy(midstate, IV, sizeof IV);
    k->one(midstate, hdr, mid);
    memset(tail, 0, sizeof tail);
    memcpy(tail, hdr + 64 * mid, tail_len);
    pad(tail, tail_len, ntail, len);
    lanes_clear(&x);
    lanes_clear(&outer);
    for (int l = 0; l < k->lanes; l++) {
        lane_load(&x, l, tail, ntail);
        outer.w[8][l] = 0x80000000;
        outer.w[15][l] = 32 * 8;
    }
    for (long base = 0; base < count; base += k->lanes) {
        int m = count - base < k->lanes ? (int)(count - base) : k->lanes;
        for (int l = 0; l < k->lanes; l++) {
            uint64_t n = (uint64_t)(first + base + l);
            nonce[0][l] = (uint32_t)(n >> 32);
            nonce[1][l] = (uint32_t)n;
        }
        lanes_put_words(&x, k->lanes, tail_len - 8, nonce, 2);
        lanes_set_state(&x, k->lanes, midstate);
        k->many(x.st, x.w, ntail, NULL);
        lanes_put_words(&outer, k->lanes, 0, x.st, 8);
        lanes_set_state(&outer, k->lanes, IV);
        k->many(outer.st, outer.w, 1, NULL);
        for (int l = 0; l < m; l++) {
            lane_state(&outer, l, h);
            if (meets_target(h, target)) return Val_long(first + base + l);
        }
    }
    return Val_long(-1);
}

/* Exposed so the benchmark harness can report which path is measured. */
CAMLprim value ac3_sha256_shani_available_stub(value unit)
{
    (void)unit;
#ifdef AC3_X86
    return Val_bool(have_shani());
#else
    return Val_false;
#endif
}
