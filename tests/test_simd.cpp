/**
 * @file
 * Fuzz suite for the SIMD kernel layer: every vector level the host CPU
 * supports is pinned bit-identical to the scalar fallback across ragged
 * tails, all-zero / all-one words, misaligned spans, and the clean-plane
 * invariants the compressed kernels rely on. Also covers the dispatch
 * machinery itself (level names, CPUID ordering, runtime switching, the
 * BBS_SIMD env override's graceful degradation).
 *
 * CMake registers test_simd (and test_gemm / test_bitplane) once per
 * dispatch level via BBS_SIMD=scalar|avx2|avx512 on top of the default
 * run, so the whole GEMM/bitplane surface is exercised under every
 * installable table; the kernel-level cross-checks here additionally
 * compare every *supported* level in one process regardless of the env.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/bit_utils.hpp"
#include "common/random.hpp"
#include "core/bitplane.hpp"
#include "engine/engine.hpp"
#include "gemm/gemm.hpp"
#include "simd/simd.hpp"

namespace bbs {
namespace {

/** Every level this CPU can execute, scalar first. */
std::vector<SimdLevel>
supportedLevels()
{
    std::vector<SimdLevel> out;
    for (SimdLevel l :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512})
        if (simdLevelSupported(l))
            out.push_back(l);
    return out;
}

/** Interesting span lengths: empty, sub-vector, vector-straddling tails. */
const std::int64_t kLengths[] = {0,  1,  2,  3,  7,  8,  9,  15, 16,
                                 17, 31, 32, 33, 63, 64, 65, 100, 129,
                                 255, 256, 257, 511};

struct Buffers
{
    std::vector<std::uint64_t> a, b;
    std::vector<std::int8_t> bytes;
};

Buffers
makeBuffers(std::uint64_t seed, bool allZero = false, bool allOne = false)
{
    Rng rng(seed);
    Buffers buf;
    buf.a.resize(600);
    buf.b.resize(600);
    buf.bytes.resize(4800);
    for (auto &w : buf.a)
        w = allZero ? 0ull : (allOne ? ~0ull : rng.next());
    for (auto &w : buf.b)
        w = allZero ? 0ull : (allOne ? ~0ull : rng.next());
    for (auto &v : buf.bytes)
        v = allZero ? 0
                    : (allOne ? -1
                              : static_cast<std::int8_t>(
                                    rng.uniformInt(-128, 127)));
    // Guarantee the extremes appear in the byte fuzz.
    if (!allZero && !allOne) {
        buf.bytes[3] = -128;
        buf.bytes[5] = 127;
    }
    return buf;
}

/** Compare one level's kernels against scalar over a buffer set.
 *  @p wordOff / @p byteOff shift the span starts to cover misaligned
 *  pointers (the plane containers align, but the kernels must not
 *  require it). */
void
pinAgainstScalar(const SimdKernels &k, const Buffers &buf,
                 std::int64_t wordOff, std::int64_t byteOff)
{
    const SimdKernels &s = simdKernelsFor(SimdLevel::Scalar);
    const std::uint64_t *a = buf.a.data() + wordOff;
    const std::uint64_t *b = buf.b.data() + wordOff;
    const std::int8_t *bytes = buf.bytes.data() + byteOff;
    for (std::int64_t n : kLengths) {
        ASSERT_EQ(k.popcountSum(a, n), s.popcountSum(a, n)) << "n=" << n;
        ASSERT_EQ(k.andPopcountAccumulate(a, b, n),
                  s.andPopcountAccumulate(a, b, n))
            << "n=" << n;
        std::int64_t tk[4], ts[4];
        k.andPopcountTile(a, a + 50, b, b + 50, n, tk);
        s.andPopcountTile(a, a + 50, b, b + 50, n, ts);
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(tk[i], ts[i]) << "n=" << n << " lane " << i;
        ASSERT_EQ(k.effectualOpsSum(a, n, 64), s.effectualOpsSum(a, n, 64))
            << "n=" << n;
        ASSERT_EQ(k.sparseBitsSum(a, n, 64), s.sparseBitsSum(a, n, 64))
            << "n=" << n;
        // Byte kernels use the same lengths as byte counts (plus a few
        // longer, non-multiple-of-32/64 spans below).
        ASSERT_EQ(k.popcountSumBytes(bytes, n), s.popcountSumBytes(bytes, n))
            << "n=" << n;
        ASSERT_EQ(k.byteSum(bytes, n), s.byteSum(bytes, n)) << "n=" << n;
    }
    for (std::int64_t n : {1000, 1023, 1025, 4097}) {
        ASSERT_EQ(k.popcountSumBytes(bytes, n),
                  s.popcountSumBytes(bytes, n))
            << "n=" << n;
        ASSERT_EQ(k.byteSum(bytes, n), s.byteSum(bytes, n)) << "n=" << n;
    }
    // Window kernels: every 8-word window in the fuzz buffer.
    for (std::int64_t w = 0; w + 8 <= 128; ++w) {
        const std::uint64_t *aw = a + w;
        ASSERT_EQ(k.weightedPlaneSum(aw), s.weightedPlaneSum(aw))
            << "w=" << w;
        ASSERT_EQ(k.weightedPlaneDot(b[w], aw),
                  s.weightedPlaneDot(b[w], aw))
            << "w=" << w;
    }
}

TEST(SimdKernels, AllLevelsMatchScalarOnFuzzedSpans)
{
    for (SimdLevel level : supportedLevels()) {
        const SimdKernels &k = simdKernelsFor(level);
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            Buffers buf = makeBuffers(seed);
            SCOPED_TRACE(simdLevelName(level));
            pinAgainstScalar(k, buf, 0, 0);
        }
    }
}

TEST(SimdKernels, AllLevelsMatchScalarOnMisalignedSpans)
{
    for (SimdLevel level : supportedLevels()) {
        const SimdKernels &k = simdKernelsFor(level);
        Buffers buf = makeBuffers(7);
        SCOPED_TRACE(simdLevelName(level));
        // Word spans off the cache line; byte spans off the word.
        pinAgainstScalar(k, buf, 1, 1);
        pinAgainstScalar(k, buf, 3, 7);
        pinAgainstScalar(k, buf, 7, 13);
    }
}

TEST(SimdKernels, AllLevelsMatchScalarOnAllZeroAndAllOneWords)
{
    for (SimdLevel level : supportedLevels()) {
        const SimdKernels &k = simdKernelsFor(level);
        SCOPED_TRACE(simdLevelName(level));
        Buffers zeros = makeBuffers(0, /*allZero=*/true);
        Buffers ones = makeBuffers(0, false, /*allOne=*/true);
        pinAgainstScalar(k, zeros, 0, 0);
        pinAgainstScalar(k, ones, 0, 0);
        // Degenerate sanity: known closed forms.
        ASSERT_EQ(k.popcountSum(ones.a.data(), 10), 640);
        ASSERT_EQ(k.popcountSum(zeros.a.data(), 10), 0);
        ASSERT_EQ(k.byteSum(ones.bytes.data(), 100), -100);
    }
}

TEST(SimdKernels, EffectualAndSparseScansRespectGroupSize)
{
    // Plane words must satisfy popcount <= groupSize (the clean-plane
    // invariant); generate masked words for every group size.
    Rng rng(99);
    for (SimdLevel level : supportedLevels()) {
        const SimdKernels &k = simdKernelsFor(level);
        const SimdKernels &s = simdKernelsFor(SimdLevel::Scalar);
        SCOPED_TRACE(simdLevelName(level));
        for (int groupSize : {1, 2, 7, 16, 31, 32, 33, 63, 64}) {
            std::uint64_t mask = groupSize >= 64
                                     ? ~0ull
                                     : ((1ull << groupSize) - 1ull);
            std::vector<std::uint64_t> words(173);
            for (auto &w : words)
                w = rng.next() & mask;
            for (std::int64_t n : {0, 1, 7, 8, 9, 100, 173}) {
                ASSERT_EQ(k.effectualOpsSum(words.data(), n, groupSize),
                          s.effectualOpsSum(words.data(), n, groupSize))
                    << "gs=" << groupSize << " n=" << n;
                ASSERT_EQ(k.sparseBitsSum(words.data(), n, groupSize),
                          s.sparseBitsSum(words.data(), n, groupSize))
                    << "gs=" << groupSize << " n=" << n;
            }
        }
    }
}

TEST(SimdKernels, CompressedGroupDotMatchesScalarForEveryStoredWidth)
{
    Rng rng(123);
    for (SimdLevel level : supportedLevels()) {
        const SimdKernels &k = simdKernelsFor(level);
        const SimdKernels &s = simdKernelsFor(SimdLevel::Scalar);
        SCOPED_TRACE(simdLevelName(level));
        for (int bits = 1; bits <= kWeightBits; ++bits) {
            for (int rep = 0; rep < 50; ++rep) {
                std::uint64_t planes[kWeightBits] = {};
                for (int b = 0; b < bits; ++b) {
                    // Mix dense, sparse, empty and full planes.
                    switch (rng.uniformInt(0, 3)) {
                    case 0: planes[b] = 0; break;
                    case 1: planes[b] = ~0ull; break;
                    case 2: planes[b] = rng.next() & rng.next(); break;
                    default: planes[b] = rng.next(); break;
                    }
                }
                std::uint64_t aw[kWeightBits];
                for (auto &w : aw)
                    w = rng.next();
                ASSERT_EQ(k.compressedGroupDot(planes, bits, aw),
                          s.compressedGroupDot(planes, bits, aw))
                    << "bits=" << bits << " rep=" << rep;
            }
        }
    }
}

/** Bits of 32-bit plane word @p w that a group of @p members occupies
 *  (member i at bit i % 32 of word i / 32). */
std::uint32_t
wordMask(int members, int w)
{
    int inWord = std::clamp(members - 32 * w, 0, 32);
    return inWord >= 32 ? ~0u : (1u << inWord) - 1u;
}

/** Members of group @p g: @p groupSize, the last group @p tail. */
int
tileMembers(std::int64_t g, std::int64_t numGroups, int groupSize, int tail)
{
    return g + 1 == numGroups ? tail : groupSize;
}

/** Compact weight rows for the stage-2 tile (CompressedRowPlanes'
 *  layout), owned. */
struct TileRows
{
    std::int64_t numGroups = 0;
    int stride = 0;
    int planeWords = 1;
    std::vector<std::uint32_t> planes;
    std::vector<std::uint8_t> bits;
    std::vector<std::int8_t> shifts;
    std::vector<std::int32_t> constants;

    CompressedRowRef
    ref(std::int64_t o) const
    {
        std::size_t g = static_cast<std::size_t>(o * numGroups);
        return {planes.data() + g * static_cast<std::size_t>(stride) *
                                    static_cast<std::size_t>(planeWords),
                bits.data() + g, shifts.data() + g, constants.data() + g};
    }
};

/**
 * Random rows at @p stride: per group stored bits @p fixedBits (or
 * random in 1..stride, so stride > bits is common), shift @p fixedShift
 * (or random in 0..8 - bits), and random, sparse, empty and all-ones
 * plane words within the member mask (all-ones everywhere when
 * @p allOnes). Slots at and above a group's bits stay zero.
 */
TileRows
randomTileRows(Rng &rng, std::int64_t rows, std::int64_t numGroups,
               int groupSize, int tail, int stride, bool allOnes,
               int fixedBits = 0, int fixedShift = -1)
{
    TileRows t;
    t.numGroups = numGroups;
    t.stride = stride;
    t.planeWords = groupSize > 32 ? 2 : 1;
    t.planes.assign(static_cast<std::size_t>(rows * numGroups * stride *
                                             t.planeWords),
                    0u);
    for (std::int64_t o = 0; o < rows; ++o) {
        for (std::int64_t g = 0; g < numGroups; ++g) {
            int members = tileMembers(g, numGroups, groupSize, tail);
            int bits = fixedBits > 0
                           ? fixedBits
                           : static_cast<int>(rng.uniformInt(1, stride));
            int shift = fixedShift >= 0
                            ? fixedShift
                            : static_cast<int>(
                                  rng.uniformInt(0, kWeightBits - bits));
            std::uint32_t *slots =
                t.planes.data() +
                (o * numGroups + g) * stride * t.planeWords;
            for (int b = 0; b < bits; ++b) {
                for (int w = 0; w < t.planeWords; ++w) {
                    std::uint32_t mask = wordMask(members, w);
                    auto r = static_cast<std::uint32_t>(rng.next());
                    std::uint32_t &word = slots[b * t.planeWords + w];
                    switch (allOnes ? 1 : rng.uniformInt(0, 3)) {
                    case 0: word = 0; break;
                    case 1: word = mask; break;
                    case 2:
                        word = r & static_cast<std::uint32_t>(rng.next()) &
                               mask;
                        break;
                    default: word = r & mask; break;
                    }
                }
            }
            t.bits.push_back(static_cast<std::uint8_t>(bits));
            t.shifts.push_back(static_cast<std::int8_t>(shift));
            t.constants.push_back(
                static_cast<std::int32_t>(rng.uniformInt(-32, 63)));
        }
    }
    return t;
}

/** Stage-1 staging of a batch as the GEMM lays it out, owned. */
struct TileStaging
{
    std::int64_t pairs = 0;
    std::int64_t numGroups = 0;
    std::int64_t pairWords = 0; ///< window words per pair
    std::vector<std::uint32_t> windows;
    std::vector<std::int32_t> sums;

    WindowPairRef
    ref(std::int64_t p) const
    {
        return {windows.data() + p * pairWords,
                sums.data() + p * numGroups * 2};
    }
};

/**
 * @p n samples' random windows (all-ones when @p allOnes) within the
 * member mask: per (pair, group, word) one 16-lane block, the odd lanes
 * zero when the pair has no odd sample, and each sample's sum of
 * activations over the group.
 */
TileStaging
randomTileStaging(Rng &rng, std::int64_t n, std::int64_t numGroups,
                  int groupSize, int tail, bool allOnes)
{
    const int planeWords = groupSize > 32 ? 2 : 1;
    TileStaging t;
    t.pairs = (n + 1) / 2;
    t.numGroups = numGroups;
    t.pairWords = numGroups * planeWords * 16;
    t.windows.assign(static_cast<std::size_t>(t.pairs * t.pairWords), 0u);
    t.sums.assign(static_cast<std::size_t>(t.pairs * numGroups * 2), 0);
    for (std::int64_t r = 0; r < n; ++r) {
        std::int64_t p = r / 2;
        int s = static_cast<int>(r % 2);
        for (std::int64_t g = 0; g < numGroups; ++g) {
            int members = tileMembers(g, numGroups, groupSize, tail);
            std::int64_t sum = 0;
            for (int w = 0; w < planeWords; ++w) {
                std::uint32_t mask = wordMask(members, w);
                std::uint32_t *block = t.windows.data() + p * t.pairWords +
                                       (g * planeWords + w) * 16 + 8 * s;
                for (int c = 0; c < kWeightBits; ++c) {
                    block[c] =
                        allOnes ? mask
                                : static_cast<std::uint32_t>(rng.next()) &
                                      mask;
                    sum += columnWeight(c, kWeightBits) *
                           std::popcount(block[c]);
                }
            }
            t.sums[static_cast<std::size_t>((p * numGroups + g) * 2 + s)] =
                static_cast<std::int32_t>(sum);
        }
    }
    return t;
}

/**
 * Every supported level's tile equals the scalar oracle's over the
 * GEMM's own tile walk: row pairs (the last row passed twice when the
 * row count is odd) x pairs of sample pairs (the last pair passed twice
 * when the pair count is odd).
 */
void
expectTilesMatchScalar(const TileRows &w, std::int64_t rows,
                       const TileStaging &a, const std::string &what)
{
    const SimdKernels &s = simdKernelsFor(SimdLevel::Scalar);
    for (std::int64_t o0 = 0; o0 < rows; o0 += 2) {
        const CompressedRowRef wr[2] = {w.ref(o0),
                                        w.ref(std::min(o0 + 1, rows - 1))};
        for (std::int64_t p0 = 0; p0 < a.pairs; p0 += 2) {
            const WindowPairRef ar[2] = {
                a.ref(p0), a.ref(std::min(p0 + 1, a.pairs - 1))};
            std::int32_t want[8] = {};
            s.compressedGemmTile(wr, ar, w.numGroups, w.stride, w.planeWords,
                                 want);
            for (SimdLevel level : supportedLevels()) {
                std::int32_t got[8] = {};
                simdKernelsFor(level).compressedGemmTile(
                    wr, ar, w.numGroups, w.stride, w.planeWords, got);
                for (int i = 0; i < 8; ++i)
                    ASSERT_EQ(got[i], want[i])
                        << simdLevelName(level) << " " << what << " rows "
                        << o0 << " pairs " << p0 << " out " << i;
            }
        }
    }
}

TEST(SimdKernels, CompressedGemmTileMatchesScalarOverWholeRows)
{
    Rng rng(321);
    const std::int64_t rows = 3;
    for (int groupSize : {1, 5, 32, 33, 64}) {
        for (int stride = 1; stride <= kWeightBits; ++stride) {
            for (std::int64_t n : {1, 2, 3, 5, 17}) {
                for (bool allOnes : {false, true}) {
                    const std::int64_t groupCounts[] = {1, 2, 3, 9, 24, 96};
                    std::int64_t numGroups =
                        groupCounts[rng.uniformInt(0, 5)];
                    int tail = static_cast<int>(
                        rng.uniformInt(1, groupSize));
                    TileRows w =
                        randomTileRows(rng, rows, numGroups, groupSize,
                                       tail, stride, allOnes);
                    TileStaging a = randomTileStaging(
                        rng, n, numGroups, groupSize, tail, allOnes);
                    expectTilesMatchScalar(
                        w, rows, a,
                        "gs=" + std::to_string(groupSize) + " stride=" +
                            std::to_string(stride) + " n=" +
                            std::to_string(n) +
                            (allOnes ? " all-ones" : " random"));
                }
            }
        }
    }
}

TEST(SimdKernels, CompressedGemmTileCoversEveryBitsAndShift)
{
    // Every stored width with every shift the invariant bits + shift <=
    // 8 admits, at full stride (8 slots, the unused ones zero), both
    // plane word counts and an odd batch.
    Rng rng(654);
    for (int groupSize : {32, 64}) {
        for (int bits = 1; bits <= kWeightBits; ++bits) {
            for (int shift = 0; shift + bits <= kWeightBits; ++shift) {
                TileRows w = randomTileRows(rng, 2, 7, groupSize, groupSize,
                                            kWeightBits, false, bits, shift);
                TileStaging a =
                    randomTileStaging(rng, 3, 7, groupSize, groupSize, false);
                expectTilesMatchScalar(w, 2, a,
                                       "gs=" + std::to_string(groupSize) +
                                           " bits=" + std::to_string(bits) +
                                           " shift=" +
                                           std::to_string(shift));
            }
        }
    }
}

TEST(SimdDispatch, LevelNamesAndSupportOrdering)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx512), "avx512");
    // Scalar is always supported, and support is downward-closed.
    EXPECT_TRUE(simdLevelSupported(SimdLevel::Scalar));
    if (simdLevelSupported(SimdLevel::Avx512))
        EXPECT_TRUE(simdLevelSupported(SimdLevel::Avx2));
    // The active level must itself be supported and tables self-report.
    EXPECT_TRUE(simdLevelSupported(activeSimdLevel()));
    for (SimdLevel l : supportedLevels())
        EXPECT_EQ(simdKernelsFor(l).level, l);
}

TEST(SimdDispatch, SetSimdLevelSwitchesTheActiveTable)
{
    SimdLevel original = activeSimdLevel();
    for (SimdLevel l : supportedLevels()) {
        setSimdLevel(l);
        EXPECT_EQ(activeSimdLevel(), l);
        EXPECT_EQ(simdKernels().level, l);
    }
    setSimdLevel(original);
    EXPECT_EQ(activeSimdLevel(), original);
}

TEST(SimdDispatch, GemmBitSerialIsBitIdenticalAcrossLevels)
{
    Rng rng(77);
    auto randomMatrix = [&](std::int64_t rows, std::int64_t cols) {
        Int8Tensor t(Shape{rows, cols});
        for (std::int64_t i = 0; i < t.numel(); ++i)
            t.flat(i) =
                static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        return t;
    };
    // Ragged depth: exercises padded plane words at every level.
    Int8Tensor acts = randomMatrix(5, 133);
    Int8Tensor weights = randomMatrix(7, 133);
    BitSerialMatrix ap = BitSerialMatrix::pack(acts);
    BitSerialMatrix wp = BitSerialMatrix::pack(weights);

    SimdLevel original = activeSimdLevel();
    setSimdLevel(SimdLevel::Scalar);
    Int32Tensor ref = engine::matmulBitSerial(ap, wp);
    for (SimdLevel l : supportedLevels()) {
        setSimdLevel(l);
        Int32Tensor got = engine::matmulBitSerial(ap, wp);
        for (std::int64_t i = 0; i < ref.numel(); ++i)
            ASSERT_EQ(got.flat(i), ref.flat(i))
                << simdLevelName(l) << " i=" << i;
    }
    setSimdLevel(original);
}

} // namespace
} // namespace bbs
