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

#include <cstring>
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
    std::int64_t bk[64], bs[64];
    for (std::int64_t count : {0, 1, 2, 7, 8}) {
        k.weightedPlaneSumBatch(a, count, bk);
        s.weightedPlaneSumBatch(a, count, bs);
        for (std::int64_t i = 0; i < count; ++i)
            ASSERT_EQ(bk[i], bs[i]) << "count=" << count << " i=" << i;
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

/** Low @p members bits set: the columns a group's planes can occupy. */
std::uint64_t
memberMask(int members)
{
    return members >= 64 ? ~0ull : (1ull << members) - 1ull;
}

/** One weight row of the stage-2 tile, owned. */
struct TileRow
{
    std::vector<PackedGroup> groups;
    std::vector<std::int8_t> shifts;
    std::vector<std::int32_t> constants;

    CompressedRowRef
    ref() const
    {
        return {groups.data(), shifts.data(), constants.data()};
    }
};

/** One sample's stage-1 staging, owned. */
struct TileSample
{
    std::vector<std::uint64_t> windows;
    std::vector<std::int64_t> sums;

    WindowRowRef
    ref() const
    {
        return {windows.data(), sums.data()};
    }
};

/** Members of group @p g: @p groupSize, the last group @p tail. */
int
tileMembers(std::int64_t g, std::int64_t numGroups, int groupSize, int tail)
{
    return g + 1 == numGroups ? tail : groupSize;
}

/** Random groups: stored bits 1..8, shifts 0..8 - bits, and random,
 *  sparse, empty and all-ones planes (within the member mask). */
TileRow
randomTileRow(Rng &rng, std::int64_t numGroups, int groupSize, int tail)
{
    TileRow row;
    row.groups.resize(static_cast<std::size_t>(numGroups));
    for (std::int64_t g = 0; g < numGroups; ++g) {
        PackedGroup &pg = row.groups[static_cast<std::size_t>(g)];
        pg.size = tileMembers(g, numGroups, groupSize, tail);
        pg.bits = static_cast<int>(rng.uniformInt(1, kWeightBits));
        std::uint64_t mask = memberMask(pg.size);
        for (int b = 0; b < pg.bits; ++b) {
            std::uint64_t &plane = pg.planes[static_cast<std::size_t>(b)];
            switch (rng.uniformInt(0, 3)) {
            case 0: plane = 0; break;
            case 1: plane = mask; break;
            case 2: plane = rng.next() & rng.next() & mask; break;
            default: plane = rng.next() & mask; break;
            }
        }
        row.shifts.push_back(static_cast<std::int8_t>(
            rng.uniformInt(0, kWeightBits - pg.bits)));
        row.constants.push_back(
            static_cast<std::int32_t>(rng.uniformInt(-128, 127)));
    }
    return row;
}

/** Random windows (one in four all-ones) and their activation sums. */
TileSample
randomTileSample(Rng &rng, std::int64_t numGroups, int groupSize, int tail)
{
    const SimdKernels &s = simdKernelsFor(SimdLevel::Scalar);
    TileSample sample;
    sample.windows.resize(static_cast<std::size_t>(numGroups * kWeightBits));
    for (std::int64_t g = 0; g < numGroups; ++g) {
        std::uint64_t mask =
            memberMask(tileMembers(g, numGroups, groupSize, tail));
        bool allOnes = rng.uniformInt(0, 3) == 0;
        std::uint64_t *aw = sample.windows.data() + g * kWeightBits;
        for (int c = 0; c < kWeightBits; ++c)
            aw[c] = allOnes ? mask : rng.next() & mask;
        sample.sums.push_back(s.weightedPlaneSum(aw));
    }
    return sample;
}

TEST(SimdKernels, CompressedGemmTileMatchesScalarOverWholeRows)
{
    Rng rng(321);
    const SimdKernels &s = simdKernelsFor(SimdLevel::Scalar);
    for (std::int64_t numGroups : {1, 2, 3, 7, 8, 9, 24, 33, 96}) {
        for (int groupSize : {1, 5, 32, 33, 64}) {
            // A full last group, then a short tail group.
            for (int tail : {groupSize,
                             static_cast<int>(rng.uniformInt(1, groupSize))}) {
                TileRow w0 = randomTileRow(rng, numGroups, groupSize, tail);
                TileRow w1 = randomTileRow(rng, numGroups, groupSize, tail);
                TileSample a0 =
                    randomTileSample(rng, numGroups, groupSize, tail);
                TileSample a1 =
                    randomTileSample(rng, numGroups, groupSize, tail);
                // The full tile, then the edge tiles (a row or a sample
                // passed twice).
                const CompressedRowRef rowSets[3][2] = {
                    {w0.ref(), w1.ref()},
                    {w0.ref(), w0.ref()},
                    {w1.ref(), w0.ref()}};
                const WindowRowRef sampleSets[3][2] = {
                    {a0.ref(), a1.ref()},
                    {a1.ref(), a0.ref()},
                    {a1.ref(), a1.ref()}};
                for (int t = 0; t < 3; ++t) {
                    std::int64_t want[4];
                    s.compressedGemmTile(rowSets[t], sampleSets[t],
                                         numGroups, want);
                    for (SimdLevel level : supportedLevels()) {
                        std::int64_t got[4];
                        simdKernelsFor(level).compressedGemmTile(
                            rowSets[t], sampleSets[t], numGroups, got);
                        for (int o = 0; o < 4; ++o)
                            ASSERT_EQ(got[o], want[o])
                                << simdLevelName(level) << " groups="
                                << numGroups << " gs=" << groupSize
                                << " tail=" << tail << " tile=" << t
                                << " out=" << o;
                    }
                }
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
