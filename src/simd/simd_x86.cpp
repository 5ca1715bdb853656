/**
 * @file
 * x86 vector kernels: AVX2 (Harley-Seal carry-save popcount over the
 * pshufb nibble lookup) and AVX-512 (VPOPCNTDQ). Every function carries
 * a `target` attribute, so this TU compiles with any global -march and
 * the dispatcher only installs a table after CPUID confirms the CPU can
 * execute it. All loads are unaligned-tolerant; the plane containers'
 * 64-byte alignment is a performance guarantee, not a correctness
 * requirement here.
 *
 * Each kernel accumulates exact integer popcounts, so results are
 * bit-identical to the scalar fallback for every input (fuzzed in
 * tests/test_simd.cpp). Per-lane popcounts never exceed 64, and the AVX2
 * byte accumulators are flushed to qwords every 31 blocks (31 * 8 < 256),
 * so no accumulator can saturate.
 *
 * The compressed GEMM's stage-2 tile (compressedGemmTile) runs on
 * 32-bit plane words: VPOPCNTD over int32 lanes at AVX-512, and at AVX2
 * the pshufb byte counts summed into 16-bit lanes for the Horner fold
 * and widened to 32-bit lanes once per group. Its int32 lanes wrap
 * exactly like the scalar oracle's narrowing to int32, so the levels
 * agree on every input.
 *
 * The AVX2 table keeps the scalar weightedPlaneDot/weightedPlaneSum: an
 * eight-word window is too small for a 256-bit lookup popcount to beat
 * eight scalar POPCNTs (measured ~0.8-1.0x), and an honest dispatch
 * table should not pretend otherwise — the per-group amortized forms
 * (compressedGroupDot and compressedGemmTile) are where AVX2 ekes out a
 * win on that shape.
 */
#include "simd/simd.hpp"

#include <algorithm>
#include <bit>

#include "common/bit_utils.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define BBS_SIMD_X86 1
#include <immintrin.h>
// GCC's _mm512_reduce_add_epi64 expands _mm256_undefined_si256(), whose
// deliberately-uninitialized temporary trips -Wuninitialized when inlined
// here — a header artifact, not a real read of uninitialized data. The
// suppression is necessarily TU-wide (the warning fires at the inline
// expansion point during optimization), so to keep it from masking real
// bugs every vector temporary in this file is explicitly initialized;
// do not declare uninitialized __m256i/__m512i locals here.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#else
#define BBS_SIMD_X86 0
#endif

namespace bbs {
namespace detail {

// Defined in simd_scalar.cpp; the AVX2 table borrows the shapes AVX2
// cannot accelerate.
const SimdKernels &scalarKernels();

#if BBS_SIMD_X86

#define BBS_TARGET_AVX2 __attribute__((target("avx2")))
#define BBS_TARGET_AVX512                                                    \
    __attribute__((target("avx512f,avx512bw,avx512vpopcntdq")))

namespace {

// ------------------------------------------------------------------ AVX2

/** Per-byte popcount of a 256-bit vector (pshufb nibble lookup). */
BBS_TARGET_AVX2 inline __m256i
popcntBytes256(__m256i v)
{
    const __m256i lut =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    __m256i lo = _mm256_and_si256(v, low);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

/** Horizontal sum of four int64 lanes. */
BBS_TARGET_AVX2 inline std::int64_t
hsum64x4(__m256i v)
{
    __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
    return _mm_cvtsi128_si64(s);
}

/** Popcount of one vector as a qword-lane vector. */
BBS_TARGET_AVX2 inline __m256i
popcnt64x4(__m256i v)
{
    return _mm256_sad_epu8(popcntBytes256(v), _mm256_setzero_si256());
}

/** Carry-save adder: (h, l) = a + b + c per bit position. */
BBS_TARGET_AVX2 inline void
csa256(__m256i &h, __m256i &l, __m256i a, __m256i b, __m256i c)
{
    __m256i u = _mm256_xor_si256(a, b);
    h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
    l = _mm256_xor_si256(u, c);
}

/** Loader functors: vector i of a word stream / an ANDed word-stream
 *  pair / a byte stream. operator() must carry the target attribute —
 *  it is instantiated inside the Harley-Seal template below. */
struct PlainLoader
{
    const std::uint64_t *p;
    BBS_TARGET_AVX2 __m256i
    operator()(std::int64_t i) const
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + 4 * i));
    }
};

struct AndLoader
{
    const std::uint64_t *a;
    const std::uint64_t *w;
    BBS_TARGET_AVX2 __m256i
    operator()(std::int64_t i) const
    {
        return _mm256_and_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + 4 * i)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(w + 4 * i)));
    }
};

struct ByteLoader
{
    const std::int8_t *p;
    BBS_TARGET_AVX2 __m256i
    operator()(std::int64_t i) const
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + 32 * i));
    }
};

/**
 * Harley-Seal popcount over @p nVecs 256-bit vectors: carry-save adders
 * compress eight vectors into one "eights" vector per block, so the
 * lookup popcount runs once per eight vectors instead of once per
 * vector. Bytes of "eights" accumulate for up to 31 blocks (31 * 8 <
 * 256) before one psadbw flush.
 */
template <typename Loader>
BBS_TARGET_AVX2 std::int64_t
hsPopcountAvx2(const Loader &load, std::int64_t nVecs)
{
    const __m256i zero = _mm256_setzero_si256();
    __m256i ones = zero, twos = zero, fours = zero;
    __m256i eightsBytes = zero;
    __m256i total = zero; // qword totals of flushed eights (weight 8)
    __m256i twosA = zero, twosB = zero, foursA = zero, foursB = zero;
    __m256i eights = zero;
    std::int64_t i = 0;
    int blocks = 0;
    for (; i + 8 <= nVecs; i += 8) {
        csa256(twosA, ones, ones, load(i), load(i + 1));
        csa256(twosB, ones, ones, load(i + 2), load(i + 3));
        csa256(foursA, twos, twos, twosA, twosB);
        csa256(twosA, ones, ones, load(i + 4), load(i + 5));
        csa256(twosB, ones, ones, load(i + 6), load(i + 7));
        csa256(foursB, twos, twos, twosA, twosB);
        csa256(eights, fours, fours, foursA, foursB);
        eightsBytes = _mm256_add_epi8(eightsBytes, popcntBytes256(eights));
        if (++blocks == 31) {
            total = _mm256_add_epi64(total,
                                     _mm256_sad_epu8(eightsBytes, zero));
            eightsBytes = zero;
            blocks = 0;
        }
    }
    std::int64_t s = 0;
    if (i > 0) { // skip the residual flush when no CSA block ever ran
        total = _mm256_add_epi64(total,
                                 _mm256_sad_epu8(eightsBytes, zero));
        s = 8 * hsum64x4(total);
        s += 4 * hsum64x4(popcnt64x4(fours));
        s += 2 * hsum64x4(popcnt64x4(twos));
        s += hsum64x4(popcnt64x4(ones));
    }
    for (; i < nVecs; ++i)
        s += hsum64x4(popcnt64x4(load(i)));
    return s;
}

BBS_TARGET_AVX2 std::int64_t
popcountSumAvx2(const std::uint64_t *w, std::int64_t n)
{
    std::int64_t vecs = n / 4;
    std::int64_t s = hsPopcountAvx2(PlainLoader{w}, vecs);
    for (std::int64_t i = 4 * vecs; i < n; ++i)
        s += std::popcount(w[i]);
    return s;
}

BBS_TARGET_AVX2 std::int64_t
popcountSumBytesAvx2(const std::int8_t *p, std::int64_t n)
{
    std::int64_t vecs = n / 32;
    std::int64_t s = hsPopcountAvx2(ByteLoader{p}, vecs);
    for (std::int64_t i = 32 * vecs; i < n; ++i)
        s += std::popcount(static_cast<unsigned>(p[i]) & 0xffu);
    return s;
}

BBS_TARGET_AVX2 std::int64_t
byteSumAvx2(const std::int8_t *p, std::int64_t n)
{
    // psadbw sums unsigned bytes; xor 0x80 biases int8 v to v + 128, so
    // each 32-byte block contributes sum(v) + 32 * 128 exactly.
    const __m256i zero = _mm256_setzero_si256();
    const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
    __m256i acc = zero;
    std::int64_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i));
        acc = _mm256_add_epi64(acc,
                               _mm256_sad_epu8(_mm256_xor_si256(x, bias),
                                               zero));
    }
    std::int64_t s = hsum64x4(acc) - 128 * i;
    for (; i < n; ++i)
        s += p[i];
    return s;
}

BBS_TARGET_AVX2 std::int64_t
andPopcountAccumulateAvx2(const std::uint64_t *a, const std::uint64_t *w,
                          std::int64_t n)
{
    std::int64_t vecs = n / 4;
    std::int64_t s = hsPopcountAvx2(AndLoader{a, w}, vecs);
    for (std::int64_t i = 4 * vecs; i < n; ++i)
        s += std::popcount(a[i] & w[i]);
    return s;
}

BBS_TARGET_AVX2 void
andPopcountTileAvx2(const std::uint64_t *a0, const std::uint64_t *a1,
                    const std::uint64_t *w0, const std::uint64_t *w1,
                    std::int64_t n, std::int64_t out[4])
{
    // Four AND streams share every load; each stream runs a shallow
    // carry-save tree (to "fours") so the lookup popcount runs once per
    // four vectors per stream. Deeper trees win nothing here: registers
    // are the binding constraint with four parallel streams.
    const __m256i zero = _mm256_setzero_si256();
    __m256i ones00 = zero, twos00 = zero, acc00 = zero;
    __m256i ones01 = zero, twos01 = zero, acc01 = zero;
    __m256i ones10 = zero, twos10 = zero, acc10 = zero;
    __m256i ones11 = zero, twos11 = zero, acc11 = zero;
    __m256i tA = zero, tB = zero, f = zero;
    std::int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const std::uint64_t *pa0 = a0 + i, *pa1 = a1 + i;
        const std::uint64_t *pw0 = w0 + i, *pw1 = w1 + i;
        __m256i va0[4], va1[4], vw0[4], vw1[4];
        for (int v = 0; v < 4; ++v) {
            va0[v] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pa0 + 4 * v));
            va1[v] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pa1 + 4 * v));
            vw0[v] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pw0 + 4 * v));
            vw1[v] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(pw1 + 4 * v));
        }
        csa256(tA, ones00, ones00, _mm256_and_si256(va0[0], vw0[0]),
               _mm256_and_si256(va0[1], vw0[1]));
        csa256(tB, ones00, ones00, _mm256_and_si256(va0[2], vw0[2]),
               _mm256_and_si256(va0[3], vw0[3]));
        csa256(f, twos00, twos00, tA, tB);
        acc00 = _mm256_add_epi64(acc00, popcnt64x4(f));
        csa256(tA, ones01, ones01, _mm256_and_si256(va0[0], vw1[0]),
               _mm256_and_si256(va0[1], vw1[1]));
        csa256(tB, ones01, ones01, _mm256_and_si256(va0[2], vw1[2]),
               _mm256_and_si256(va0[3], vw1[3]));
        csa256(f, twos01, twos01, tA, tB);
        acc01 = _mm256_add_epi64(acc01, popcnt64x4(f));
        csa256(tA, ones10, ones10, _mm256_and_si256(va1[0], vw0[0]),
               _mm256_and_si256(va1[1], vw0[1]));
        csa256(tB, ones10, ones10, _mm256_and_si256(va1[2], vw0[2]),
               _mm256_and_si256(va1[3], vw0[3]));
        csa256(f, twos10, twos10, tA, tB);
        acc10 = _mm256_add_epi64(acc10, popcnt64x4(f));
        csa256(tA, ones11, ones11, _mm256_and_si256(va1[0], vw1[0]),
               _mm256_and_si256(va1[1], vw1[1]));
        csa256(tB, ones11, ones11, _mm256_and_si256(va1[2], vw1[2]),
               _mm256_and_si256(va1[3], vw1[3]));
        csa256(f, twos11, twos11, tA, tB);
        acc11 = _mm256_add_epi64(acc11, popcnt64x4(f));
    }
    // Residuals: "fours" accumulators carry weight 4, twos 2, ones 1.
    // Skipped entirely for depths below one 16-word block — a shallow
    // GEMM depth must not pay vector flushes on empty accumulators.
    std::int64_t p00 = 0, p01 = 0, p10 = 0, p11 = 0;
    if (i > 0) {
        p00 = 4 * hsum64x4(acc00) + 2 * hsum64x4(popcnt64x4(twos00)) +
              hsum64x4(popcnt64x4(ones00));
        p01 = 4 * hsum64x4(acc01) + 2 * hsum64x4(popcnt64x4(twos01)) +
              hsum64x4(popcnt64x4(ones01));
        p10 = 4 * hsum64x4(acc10) + 2 * hsum64x4(popcnt64x4(twos10)) +
              hsum64x4(popcnt64x4(ones10));
        p11 = 4 * hsum64x4(acc11) + 2 * hsum64x4(popcnt64x4(twos11)) +
              hsum64x4(popcnt64x4(ones11));
    }
    for (; i < n; ++i) {
        std::uint64_t av0 = a0[i], av1 = a1[i];
        std::uint64_t wv0 = w0[i], wv1 = w1[i];
        p00 += std::popcount(av0 & wv0);
        p01 += std::popcount(av0 & wv1);
        p10 += std::popcount(av1 & wv0);
        p11 += std::popcount(av1 & wv1);
    }
    out[0] = p00;
    out[1] = p01;
    out[2] = p10;
    out[3] = p11;
}

/**
 * The activation-significance weighting of eight per-plane lane sums
 * (@p lo: planes 0-3, @p hi: planes 4-7): sum over c of 2^c * lane c,
 * the sign plane (c = 7) negative.
 */
BBS_TARGET_AVX2 inline std::int64_t
weighActivationPlanesAvx2(__m256i lo, __m256i hi)
{
    __m256i shLo = _mm256_sllv_epi64(lo, _mm256_setr_epi64x(0, 1, 2, 3));
    __m256i shHi = _mm256_sllv_epi64(hi, _mm256_setr_epi64x(4, 5, 6, 7));
    // Lane 3 of shHi is the activation sign plane: subtract it.
    __m256i neg = _mm256_sub_epi64(_mm256_setzero_si256(), shHi);
    __m256i signedHi = _mm256_blend_epi32(shHi, neg, 0xC0);
    return hsum64x4(_mm256_add_epi64(shLo, signedHi));
}

BBS_TARGET_AVX2 std::int64_t
compressedGroupDotAvx2(const std::uint64_t *planes, int bits,
                       const std::uint64_t *aw)
{
    // Lane c of (accLo, accHi) collects sum over weight planes b of
    // columnWeight(b, bits) * popcount(planes[b] & aw[c]); the final
    // activation-significance weighting (shift by c, sign lane negates)
    // runs once per group instead of once per weight plane.
    const __m256i zero = _mm256_setzero_si256();
    __m256i awLo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(aw));
    __m256i awHi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(aw + 4));
    __m256i accLo = zero, accHi = zero;
    for (int b = 0; b < bits; ++b) {
        std::uint64_t wb = planes[b];
        if (wb == 0)
            continue; // binary pruning leaves many empty planes
        __m256i vb = _mm256_set1_epi64x(static_cast<long long>(wb));
        __m256i pcLo = _mm256_slli_epi64(
            popcnt64x4(_mm256_and_si256(awLo, vb)), b);
        __m256i pcHi = _mm256_slli_epi64(
            popcnt64x4(_mm256_and_si256(awHi, vb)), b);
        if (b == bits - 1) { // stored sign column weighs -2^b
            accLo = _mm256_sub_epi64(accLo, pcLo);
            accHi = _mm256_sub_epi64(accHi, pcHi);
        } else {
            accLo = _mm256_add_epi64(accLo, pcLo);
            accHi = _mm256_add_epi64(accHi, pcHi);
        }
    }
    return weighActivationPlanesAvx2(accLo, accHi);
}

/** Per-16-bit-lane popcount: the pshufb byte counts, summed in
 *  adjacent byte pairs. */
BBS_TARGET_AVX2 inline __m256i
popcnt16x16(__m256i v)
{
    return _mm256_maddubs_epi16(popcntBytes256(v), _mm256_set1_epi8(1));
}

/**
 * The activation-significance weighting of one sample's eight int32
 * plane lanes: sum over c of 2^c * lane c, the sign lane (c = 7)
 * negative, in wrapping int32 arithmetic.
 */
BBS_TARGET_AVX2 inline std::int32_t
weighActivationPlanes32Avx2(__m256i lanes)
{
    __m256i sh = _mm256_sllv_epi32(lanes,
                                   _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    __m256i sgn = _mm256_sign_epi32(
        sh, _mm256_setr_epi32(1, 1, 1, 1, 1, 1, 1, -1));
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(sgn),
                              _mm256_extracti128_si256(sgn, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
    return _mm_cvtsi128_si32(s);
}

/**
 * One weight row's group against two sample pairs' blocks (@p va[word]:
 * pair 0 even sample, pair 0 odd, pair 1 even, pair 1 odd). Horner over
 * the stored planes (the sign plane enters negated, each lower plane
 * after one doubling) runs in 16-bit lanes — a 16-bit lane's popcount is
 * at most 32 over two words, so |h| <= 32 * 2^7 fits — and one pmaddwd
 * widens it to lane c = sum over b of columnWeight(b, bits) *
 * popcount(plane b & window c) per sample. That is shifted by the
 * pruned-column count and added into @p lanes (the layout of @p va).
 */
template <int PW>
BBS_TARGET_AVX2 inline void
foldGroupAvx2(const std::uint32_t *planes, int bits, int shift,
              const __m256i (&va)[PW][4], __m256i (&lanes)[4])
{
    const __m256i zero = _mm256_setzero_si256();
    __m256i h[4] = {zero, zero, zero, zero};
    int b = bits - 1;
    if (b >= 0) {
        for (int word = 0; word < PW; ++word) {
            __m256i wb = _mm256_set1_epi32(
                static_cast<int>(planes[b * PW + word]));
            for (int v = 0; v < 4; ++v)
                h[v] = _mm256_sub_epi16(
                    h[v], popcnt16x16(_mm256_and_si256(va[word][v], wb)));
        }
    }
    for (--b; b >= 0; --b) {
        for (int v = 0; v < 4; ++v)
            h[v] = _mm256_add_epi16(h[v], h[v]);
        for (int word = 0; word < PW; ++word) {
            __m256i wb = _mm256_set1_epi32(
                static_cast<int>(planes[b * PW + word]));
            for (int v = 0; v < 4; ++v)
                h[v] = _mm256_add_epi16(
                    h[v], popcnt16x16(_mm256_and_si256(va[word][v], wb)));
        }
    }
    const __m256i ones16 = _mm256_set1_epi16(1);
    __m128i sh = _mm_cvtsi32_si128(shift);
    for (int v = 0; v < 4; ++v)
        lanes[v] = _mm256_add_epi32(
            lanes[v], _mm256_sll_epi32(_mm256_madd_epi16(h[v], ones16), sh));
}

template <int PW>
BBS_TARGET_AVX2 void
compressedGemmTileAvx2(const CompressedRowRef w[2], const WindowPairRef a[2],
                       std::int64_t numGroups, int stride,
                       std::int32_t out[8])
{
    // lanesI[2 * j + s]: output (row I, pair j, sample s)'s
    // per-activation-plane partial sums, carried across every group and
    // weighed and reduced once; cI lane 2 * j + s its constant x
    // sum-of-activations term.
    const CompressedRowRef w0 = w[0], w1 = w[1];
    const WindowPairRef a0 = a[0], a1 = a[1];
    const __m256i zero = _mm256_setzero_si256();
    __m256i lanes0[4] = {zero, zero, zero, zero};
    __m256i lanes1[4] = {zero, zero, zero, zero};
    __m128i c0 = _mm_setzero_si128(), c1 = _mm_setzero_si128();
    const std::int64_t groupWords = static_cast<std::int64_t>(stride) * PW;
    for (std::int64_t g = 0; g < numGroups; ++g) {
        __m256i va[PW][4] = {};
        for (int word = 0; word < PW; ++word) {
            const std::int64_t at = (g * PW + word) * 16;
            va[word][0] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a0.windows + at));
            va[word][1] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a0.windows + at + 8));
            va[word][2] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a1.windows + at));
            va[word][3] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a1.windows + at + 8));
        }
        foldGroupAvx2<PW>(w0.planes + g * groupWords, w0.bits[g],
                          w0.shifts[g], va, lanes0);
        foldGroupAvx2<PW>(w1.planes + g * groupWords, w1.bits[g],
                          w1.shifts[g], va, lanes1);
        __m128i sums = _mm_unpacklo_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(a0.sums + 2 * g)),
            _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(a1.sums + 2 * g)));
        c0 = _mm_add_epi32(
            c0, _mm_mullo_epi32(_mm_set1_epi32(w0.constants[g]), sums));
        c1 = _mm_add_epi32(
            c1, _mm_mullo_epi32(_mm_set1_epi32(w1.constants[g]), sums));
    }
    alignas(16) std::int32_t ct[8] = {};
    _mm_store_si128(reinterpret_cast<__m128i *>(ct), c0);
    _mm_store_si128(reinterpret_cast<__m128i *>(ct + 4), c1);
    for (int v = 0; v < 4; ++v) {
        out[v] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(weighActivationPlanes32Avx2(lanes0[v])) +
            static_cast<std::uint32_t>(ct[v]));
        out[4 + v] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(weighActivationPlanes32Avx2(lanes1[v])) +
            static_cast<std::uint32_t>(ct[4 + v]));
    }
}

BBS_TARGET_AVX2 void
compressedGemmTileAvx2Dispatch(const CompressedRowRef w[2],
                               const WindowPairRef a[2],
                               std::int64_t numGroups, int stride,
                               int planeWords, std::int32_t out[8])
{
    if (planeWords == 1)
        compressedGemmTileAvx2<1>(w, a, numGroups, stride, out);
    else
        compressedGemmTileAvx2<2>(w, a, numGroups, stride, out);
}

BBS_TARGET_AVX2 std::int64_t
effectualOpsSumAvx2(const std::uint64_t *w, std::int64_t n, int groupSize)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i full = _mm256_set1_epi64x(groupSize);
    __m256i acc0 = zero, acc1 = zero;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) { // two streams hide the psadbw latency
        __m256i pc0 = popcnt64x4(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + i)));
        __m256i pc1 = popcnt64x4(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + i + 4)));
        __m256i o0 = _mm256_sub_epi64(full, pc0);
        __m256i o1 = _mm256_sub_epi64(full, pc1);
        acc0 = _mm256_add_epi64(
            acc0, _mm256_blendv_epi8(pc0, o0,
                                     _mm256_cmpgt_epi64(pc0, o0)));
        acc1 = _mm256_add_epi64(
            acc1, _mm256_blendv_epi8(pc1, o1,
                                     _mm256_cmpgt_epi64(pc1, o1)));
    }
    std::int64_t s = hsum64x4(_mm256_add_epi64(acc0, acc1));
    for (; i < n; ++i) {
        int ones = std::popcount(w[i]);
        s += std::min(ones, groupSize - ones);
    }
    return s;
}

BBS_TARGET_AVX2 std::int64_t
sparseBitsSumAvx2(const std::uint64_t *w, std::int64_t n, int groupSize)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i full = _mm256_set1_epi64x(groupSize);
    __m256i acc0 = zero, acc1 = zero;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i pc0 = popcnt64x4(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + i)));
        __m256i pc1 = popcnt64x4(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + i + 4)));
        __m256i o0 = _mm256_sub_epi64(full, pc0);
        __m256i o1 = _mm256_sub_epi64(full, pc1);
        acc0 = _mm256_add_epi64(
            acc0, _mm256_blendv_epi8(o0, pc0,
                                     _mm256_cmpgt_epi64(pc0, o0)));
        acc1 = _mm256_add_epi64(
            acc1, _mm256_blendv_epi8(o1, pc1,
                                     _mm256_cmpgt_epi64(pc1, o1)));
    }
    std::int64_t s = hsum64x4(_mm256_add_epi64(acc0, acc1));
    for (; i < n; ++i) {
        int ones = std::popcount(w[i]);
        s += std::max(ones, groupSize - ones);
    }
    return s;
}

// ---------------------------------------------------------------- AVX-512

BBS_TARGET_AVX512 inline __mmask8
tailMask8(std::int64_t rem)
{
    return static_cast<__mmask8>((1u << rem) - 1u);
}

BBS_TARGET_AVX512 std::int64_t
popcountSumAvx512(const std::uint64_t *w, std::int64_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_loadu_si512(w + i)));
    if (i < n)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(
                     _mm512_maskz_loadu_epi64(tailMask8(n - i), w + i)));
    return _mm512_reduce_add_epi64(acc);
}

BBS_TARGET_AVX512 std::int64_t
popcountSumBytesAvx512(const std::int8_t *p, std::int64_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::int64_t i = 0;
    for (; i + 64 <= n; i += 64)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_loadu_si512(p + i)));
    if (i < n) {
        __mmask64 m = (~0ull) >> (64 - (n - i));
        acc = _mm512_add_epi64(
            acc,
            _mm512_popcnt_epi64(_mm512_maskz_loadu_epi8(m, p + i)));
    }
    return _mm512_reduce_add_epi64(acc);
}

BBS_TARGET_AVX512 std::int64_t
byteSumAvx512(const std::int8_t *p, std::int64_t n)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
    __m512i acc = zero;
    std::int64_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m512i x = _mm512_loadu_si512(p + i);
        acc = _mm512_add_epi64(acc,
                               _mm512_sad_epu8(_mm512_xor_si512(x, bias),
                                               zero));
    }
    std::int64_t s = _mm512_reduce_add_epi64(acc) - 128 * i;
    for (; i < n; ++i)
        s += p[i];
    return s;
}

BBS_TARGET_AVX512 std::int64_t
andPopcountAccumulateAvx512(const std::uint64_t *a, const std::uint64_t *w,
                            std::int64_t n)
{
    __m512i acc = _mm512_setzero_si512();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_and_si512(
                     _mm512_loadu_si512(a + i), _mm512_loadu_si512(w + i))));
    if (i < n) {
        __mmask8 m = tailMask8(n - i);
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_and_si512(
                     _mm512_maskz_loadu_epi64(m, a + i),
                     _mm512_maskz_loadu_epi64(m, w + i))));
    }
    return _mm512_reduce_add_epi64(acc);
}

BBS_TARGET_AVX512 void
andPopcountTileAvx512(const std::uint64_t *a0, const std::uint64_t *a1,
                      const std::uint64_t *w0, const std::uint64_t *w1,
                      std::int64_t n, std::int64_t out[4])
{
    const __m512i zero = _mm512_setzero_si512();
    __m512i acc00 = zero, acc01 = zero, acc10 = zero, acc11 = zero;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i va0 = _mm512_loadu_si512(a0 + i);
        __m512i va1 = _mm512_loadu_si512(a1 + i);
        __m512i vw0 = _mm512_loadu_si512(w0 + i);
        __m512i vw1 = _mm512_loadu_si512(w1 + i);
        acc00 = _mm512_add_epi64(
            acc00, _mm512_popcnt_epi64(_mm512_and_si512(va0, vw0)));
        acc01 = _mm512_add_epi64(
            acc01, _mm512_popcnt_epi64(_mm512_and_si512(va0, vw1)));
        acc10 = _mm512_add_epi64(
            acc10, _mm512_popcnt_epi64(_mm512_and_si512(va1, vw0)));
        acc11 = _mm512_add_epi64(
            acc11, _mm512_popcnt_epi64(_mm512_and_si512(va1, vw1)));
    }
    if (i < n) {
        __mmask8 m = tailMask8(n - i);
        __m512i va0 = _mm512_maskz_loadu_epi64(m, a0 + i);
        __m512i va1 = _mm512_maskz_loadu_epi64(m, a1 + i);
        __m512i vw0 = _mm512_maskz_loadu_epi64(m, w0 + i);
        __m512i vw1 = _mm512_maskz_loadu_epi64(m, w1 + i);
        acc00 = _mm512_add_epi64(
            acc00, _mm512_popcnt_epi64(_mm512_and_si512(va0, vw0)));
        acc01 = _mm512_add_epi64(
            acc01, _mm512_popcnt_epi64(_mm512_and_si512(va0, vw1)));
        acc10 = _mm512_add_epi64(
            acc10, _mm512_popcnt_epi64(_mm512_and_si512(va1, vw0)));
        acc11 = _mm512_add_epi64(
            acc11, _mm512_popcnt_epi64(_mm512_and_si512(va1, vw1)));
    }
    out[0] = _mm512_reduce_add_epi64(acc00);
    out[1] = _mm512_reduce_add_epi64(acc01);
    out[2] = _mm512_reduce_add_epi64(acc10);
    out[3] = _mm512_reduce_add_epi64(acc11);
}

/** The activation-significance weighting of eight per-plane lane sums:
 *  sum over lanes c of 2^c * lane c, the sign lane (c = 7) negative. */
BBS_TARGET_AVX512 inline std::int64_t
weighActivationPlanesAvx512(__m512i lanes)
{
    __m512i sh = _mm512_sllv_epi64(
        lanes, _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    __m512i sgn = _mm512_mask_sub_epi64(sh, static_cast<__mmask8>(0x80),
                                        _mm512_setzero_si512(), sh);
    return _mm512_reduce_add_epi64(sgn);
}

/** All eight planes in one vector: popcount, then the weighting. */
BBS_TARGET_AVX512 inline std::int64_t
weightedPlaneReduceAvx512(__m512i v)
{
    return weighActivationPlanesAvx512(_mm512_popcnt_epi64(v));
}

BBS_TARGET_AVX512 std::int64_t
weightedPlaneDotAvx512(std::uint64_t wb, const std::uint64_t *aw)
{
    return weightedPlaneReduceAvx512(
        _mm512_and_si512(_mm512_loadu_si512(aw),
                         _mm512_set1_epi64(static_cast<long long>(wb))));
}

BBS_TARGET_AVX512 std::int64_t
weightedPlaneSumAvx512(const std::uint64_t *aw)
{
    return weightedPlaneReduceAvx512(_mm512_loadu_si512(aw));
}

BBS_TARGET_AVX512 std::int64_t
compressedGroupDotAvx512(const std::uint64_t *planes, int bits,
                         const std::uint64_t *aw)
{
    // Lane c of acc collects sum over weight planes b of
    // columnWeight(b, bits) * popcount(planes[b] & aw[c]); one weighted
    // reduce (shift by c, sign lane negates) per group.
    __m512i va = _mm512_loadu_si512(aw);
    __m512i acc = _mm512_setzero_si512();
    for (int b = 0; b < bits; ++b) {
        std::uint64_t wb = planes[b];
        if (wb == 0)
            continue; // binary pruning leaves many empty planes
        __m512i pc = _mm512_popcnt_epi64(_mm512_and_si512(
            va, _mm512_set1_epi64(static_cast<long long>(wb))));
        pc = _mm512_slli_epi64(pc, static_cast<unsigned>(b));
        acc = (b == bits - 1) ? _mm512_sub_epi64(acc, pc)
                              : _mm512_add_epi64(acc, pc);
    }
    return weighActivationPlanesAvx512(acc);
}

/** AND+popcount of one broadcast weight plane word against a pair
 *  block: lane (s, c) = popcount(@p wb & window c of sample s). */
BBS_TARGET_AVX512 inline __m512i
planePopcount32Avx512(__m512i block, __m512i wb)
{
    return _mm512_popcnt_epi32(_mm512_and_si512(block, wb));
}

/**
 * One weight row's group against two sample pairs' blocks (@p va[word]
 * [pair]): Horner over the stored planes (the sign plane enters negated,
 * each lower plane after one doubling) gives lane (s, c) = sum over b of
 * columnWeight(b, bits) * popcount(plane b & window c of sample s),
 * summed over the words; it is shifted by the pruned-column count and
 * added into @p lanes0 / @p lanes1.
 */
template <int PW>
BBS_TARGET_AVX512 inline void
foldGroupAvx512(const std::uint32_t *planes, int bits, int shift,
                const __m512i (&va)[PW][2], __m512i &lanes0,
                __m512i &lanes1)
{
    __m512i h0 = _mm512_setzero_si512(), h1 = _mm512_setzero_si512();
    for (int b = bits - 1; b >= 0; --b) {
        __m512i p0 = _mm512_setzero_si512(), p1 = _mm512_setzero_si512();
        for (int word = 0; word < PW; ++word) {
            __m512i wb = _mm512_set1_epi32(
                static_cast<int>(planes[b * PW + word]));
            p0 = _mm512_add_epi32(p0, planePopcount32Avx512(va[word][0], wb));
            p1 = _mm512_add_epi32(p1, planePopcount32Avx512(va[word][1], wb));
        }
        if (b == bits - 1) { // the stored sign column weighs -2^b
            h0 = _mm512_sub_epi32(h0, p0);
            h1 = _mm512_sub_epi32(h1, p1);
        } else {
            h0 = _mm512_add_epi32(_mm512_add_epi32(h0, h0), p0);
            h1 = _mm512_add_epi32(_mm512_add_epi32(h1, h1), p1);
        }
    }
    __m128i sh = _mm_cvtsi32_si128(shift);
    lanes0 = _mm512_add_epi32(lanes0, _mm512_sll_epi32(h0, sh));
    lanes1 = _mm512_add_epi32(lanes1, _mm512_sll_epi32(h1, sh));
}

/** The activation-significance weighting of a pair block's lanes, then
 *  each sample's eight-lane reduction: lane (s, c) weighs 2^c, the sign
 *  lanes (c = 7) negative. Writes sample 0's sum to @p out[0] and sample
 *  1's to @p out[1], each plus its constant term in @p constantTerm. */
BBS_TARGET_AVX512 inline void
weighPairAvx512(__m512i lanes, const std::int32_t constantTerm[2],
                std::int32_t out[2])
{
    const __m512i shifts =
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7);
    __m512i sh = _mm512_sllv_epi32(lanes, shifts);
    __m512i sgn = _mm512_mask_sub_epi32(sh, static_cast<__mmask16>(0x8080),
                                        _mm512_setzero_si512(), sh);
    for (int s = 0; s < 2; ++s)
        out[s] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(_mm512_mask_reduce_add_epi32(
                static_cast<__mmask16>(0xffu << (8 * s)), sgn)) +
            static_cast<std::uint32_t>(constantTerm[s]));
}

template <int PW>
BBS_TARGET_AVX512 void
compressedGemmTileAvx512(const CompressedRowRef w[2],
                         const WindowPairRef a[2], std::int64_t numGroups,
                         int stride, std::int32_t out[8])
{
    // lIJ lane 8 * s + c: output (row I, pair J, sample s)'s
    // activation-plane-c partial sum, carried across every group and
    // weighed and reduced once; cI lane 2 * J + s its constant x
    // sum-of-activations term. Named registers, not arrays: indexed
    // accumulators would round-trip through memory every group.
    const CompressedRowRef w0 = w[0], w1 = w[1];
    const WindowPairRef a0 = a[0], a1 = a[1];
    __m512i l00 = _mm512_setzero_si512(), l01 = _mm512_setzero_si512();
    __m512i l10 = _mm512_setzero_si512(), l11 = _mm512_setzero_si512();
    __m128i c0 = _mm_setzero_si128(), c1 = _mm_setzero_si128();
    const std::int64_t groupWords = static_cast<std::int64_t>(stride) * PW;
    for (std::int64_t g = 0; g < numGroups; ++g) {
        __m512i va[PW][2] = {};
        for (int word = 0; word < PW; ++word) {
            va[word][0] = _mm512_loadu_si512(a0.windows + (g * PW + word) * 16);
            va[word][1] = _mm512_loadu_si512(a1.windows + (g * PW + word) * 16);
        }
        foldGroupAvx512<PW>(w0.planes + g * groupWords, w0.bits[g],
                            w0.shifts[g], va, l00, l01);
        foldGroupAvx512<PW>(w1.planes + g * groupWords, w1.bits[g],
                            w1.shifts[g], va, l10, l11);
        __m128i sums = _mm_unpacklo_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(a0.sums + 2 * g)),
            _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(a1.sums + 2 * g)));
        c0 = _mm_add_epi32(
            c0, _mm_mullo_epi32(_mm_set1_epi32(w0.constants[g]), sums));
        c1 = _mm_add_epi32(
            c1, _mm_mullo_epi32(_mm_set1_epi32(w1.constants[g]), sums));
    }
    alignas(16) std::int32_t ct[8] = {};
    _mm_store_si128(reinterpret_cast<__m128i *>(ct), c0);
    _mm_store_si128(reinterpret_cast<__m128i *>(ct + 4), c1);
    weighPairAvx512(l00, ct, out);
    weighPairAvx512(l01, ct + 2, out + 2);
    weighPairAvx512(l10, ct + 4, out + 4);
    weighPairAvx512(l11, ct + 6, out + 6);
}

BBS_TARGET_AVX512 void
compressedGemmTileAvx512Dispatch(const CompressedRowRef w[2],
                                 const WindowPairRef a[2],
                                 std::int64_t numGroups, int stride,
                                 int planeWords, std::int32_t out[8])
{
    if (planeWords == 1)
        compressedGemmTileAvx512<1>(w, a, numGroups, stride, out);
    else
        compressedGemmTileAvx512<2>(w, a, numGroups, stride, out);
}

BBS_TARGET_AVX512 std::int64_t
effectualOpsSumAvx512(const std::uint64_t *w, std::int64_t n, int groupSize)
{
    const __m512i full = _mm512_set1_epi64(groupSize);
    __m512i acc = _mm512_setzero_si512();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i pc = _mm512_popcnt_epi64(_mm512_loadu_si512(w + i));
        acc = _mm512_add_epi64(
            acc, _mm512_min_epi64(pc, _mm512_sub_epi64(full, pc)));
    }
    std::int64_t s = _mm512_reduce_add_epi64(acc);
    for (; i < n; ++i) {
        int ones = std::popcount(w[i]);
        s += std::min(ones, groupSize - ones);
    }
    return s;
}

BBS_TARGET_AVX512 std::int64_t
sparseBitsSumAvx512(const std::uint64_t *w, std::int64_t n, int groupSize)
{
    const __m512i full = _mm512_set1_epi64(groupSize);
    __m512i acc = _mm512_setzero_si512();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i pc = _mm512_popcnt_epi64(_mm512_loadu_si512(w + i));
        acc = _mm512_add_epi64(
            acc, _mm512_max_epi64(pc, _mm512_sub_epi64(full, pc)));
    }
    std::int64_t s = _mm512_reduce_add_epi64(acc);
    for (; i < n; ++i) {
        int ones = std::popcount(w[i]);
        s += std::max(ones, groupSize - ones);
    }
    return s;
}

const SimdKernels avx512Table = {
    SimdLevel::Avx512,
    &popcountSumAvx512,
    &popcountSumBytesAvx512,
    &byteSumAvx512,
    &andPopcountAccumulateAvx512,
    &andPopcountTileAvx512,
    &weightedPlaneDotAvx512,
    &weightedPlaneSumAvx512,
    &compressedGroupDotAvx512,
    &compressedGemmTileAvx512Dispatch,
    &effectualOpsSumAvx512,
    &sparseBitsSumAvx512,
};

} // namespace

bool
cpuHasAvx2()
{
    return __builtin_cpu_supports("avx2");
}

bool
cpuHasAvx512()
{
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vpopcntdq");
}

const SimdKernels *
avx2KernelsOrNull()
{
    // weightedPlaneDot/Sum stay scalar: a single 8-word window loses to
    // eight scalar POPCNTs on AVX2 (no vector popcount instruction), so
    // the table says so instead of dispatching a pessimization. The
    // benches gate only kernels whose pointer differs from the scalar
    // table's.
    static const SimdKernels table = [] {
        SimdKernels t = {
            SimdLevel::Avx2,
            &popcountSumAvx2,
            &popcountSumBytesAvx2,
            &byteSumAvx2,
            &andPopcountAccumulateAvx2,
            &andPopcountTileAvx2,
            scalarKernels().weightedPlaneDot,
            scalarKernels().weightedPlaneSum,
            &compressedGroupDotAvx2,
            &compressedGemmTileAvx2Dispatch,
            &effectualOpsSumAvx2,
            &sparseBitsSumAvx2,
        };
        return t;
    }();
    return &table;
}

const SimdKernels *
avx512KernelsOrNull()
{
    return &avx512Table;
}

#else // !BBS_SIMD_X86 — no vector tables on this architecture/compiler.

bool
cpuHasAvx2()
{
    return false;
}

bool
cpuHasAvx512()
{
    return false;
}

const SimdKernels *
avx2KernelsOrNull()
{
    return nullptr;
}

const SimdKernels *
avx512KernelsOrNull()
{
    return nullptr;
}

#endif

} // namespace detail
} // namespace bbs
