/**
 * @file
 * Tests for the bit-serial GEMM engine: BitSerialMatrix packing is a
 * lossless round-trip, and both GEMM kernels (dense bit-serial and
 * compressed-domain) are pinned row-by-row against dotReference over
 * fuzzed shapes — including ragged non-multiple-of-64 column tails,
 * all-pruned groups, rows of many groups and the depth limit's extreme
 * products.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "engine/engine.hpp"
#include "gemm/compressed_gemm.hpp"
#include "gemm/gemm.hpp"

namespace bbs {
namespace {

Int8Tensor
randomMatrix(std::int64_t rows, std::int64_t cols, Rng &rng)
{
    Int8Tensor t(Shape{rows, cols});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    return t;
}

/** Row span [begin, begin+len) of a rank-2 tensor. */
std::span<const std::int8_t>
rowSlice(const Int8Tensor &m, std::int64_t r, std::int64_t begin,
         std::int64_t len)
{
    return std::span<const std::int8_t>(&m.at(r, begin),
                                        static_cast<std::size_t>(len));
}

TEST(BitSerialMatrixTest, PackUnpackRoundTrip)
{
    Rng rng(101);
    for (auto [rows, cols] :
         {std::pair<std::int64_t, std::int64_t>{1, 1},
          {3, 64},
          {5, 70},
          {2, 63},
          {7, 129},
          {16, 256}}) {
        Int8Tensor m = randomMatrix(rows, cols, rng);
        Int8Tensor back = BitSerialMatrix::pack(m).unpack();
        ASSERT_TRUE(back.shape() == m.shape());
        for (std::int64_t i = 0; i < m.numel(); ++i)
            ASSERT_EQ(back.flat(i), m.flat(i)) << "i=" << i;
    }
}

TEST(BitSerialMatrixTest, WindowMatchesBits)
{
    Rng rng(202);
    Int8Tensor m = randomMatrix(3, 150, rng);
    BitSerialMatrix bsm = BitSerialMatrix::pack(m);
    // Windows at unaligned offsets, including ones straddling a word.
    for (std::int64_t begin : {0, 1, 31, 60, 63, 64, 100, 120}) {
        int len = static_cast<int>(
            std::min<std::int64_t>(40, m.shape().dim(1) - begin));
        for (std::int64_t r = 0; r < 3; ++r) {
            for (int b = 0; b < kWeightBits; ++b) {
                std::uint64_t w = bsm.window(b, r, begin, len);
                for (int i = 0; i < len; ++i)
                    ASSERT_EQ((w >> i) & 1ull,
                              static_cast<std::uint64_t>(
                                  bitOf(m.at(r, begin + i), b)))
                        << "r=" << r << " b=" << b << " begin=" << begin
                        << " i=" << i;
                // Bits above len must be masked off.
                if (len < 64)
                    ASSERT_EQ(w >> len, 0ull);
            }
        }
    }
}

TEST(BitSerialMatrixTest, RangeSumMatchesDirectSum)
{
    Rng rng(303);
    Int8Tensor m = randomMatrix(4, 130, rng);
    BitSerialMatrix bsm = BitSerialMatrix::pack(m);
    for (std::int64_t begin : {0, 5, 63, 64, 90}) {
        int len = static_cast<int>(
            std::min<std::int64_t>(41, m.shape().dim(1) - begin));
        for (std::int64_t r = 0; r < 4; ++r) {
            std::int64_t direct = 0;
            for (int i = 0; i < len; ++i)
                direct += m.at(r, begin + i);
            EXPECT_EQ(bsm.rangeSum(r, begin, len), direct)
                << "r=" << r << " begin=" << begin;
        }
    }
}

TEST(GemmBitSerialTest, MatchesReferencesOnFuzzedShapes)
{
    Rng rng(404);
    // Shapes chosen to hit 64-aligned, ragged-tail, tiny and odd cases.
    const std::int64_t shapes[][3] = {
        // {N, K, C}
        {1, 1, 1},   {1, 3, 64},  {2, 2, 63},   {5, 7, 65},
        {4, 8, 128}, {3, 5, 127}, {16, 11, 96}, {8, 16, 200},
    };
    for (const auto &s : shapes) {
        Int8Tensor acts = randomMatrix(s[0], s[2], rng);
        Int8Tensor weights = randomMatrix(s[1], s[2], rng);
        Int32Tensor got =
            engine::matmulBitSerial(BitSerialMatrix::pack(acts),
                                    BitSerialMatrix::pack(weights));
        Int32Tensor ref = gemmReferenceBatch(acts, weights);
        ASSERT_TRUE(got.shape() == ref.shape());
        for (std::int64_t r = 0; r < s[0]; ++r) {
            for (std::int64_t o = 0; o < s[1]; ++o) {
                // Row-by-row pin against the scalar dot reference too.
                std::int64_t dot =
                    engine::dot(rowSlice(weights, o, 0, s[2]),
                                rowSlice(acts, r, 0, s[2]),
                                engine::DotMethod::Reference)
                        .value;
                ASSERT_EQ(got.at(r, o), ref.at(r, o))
                    << "N" << s[0] << " K" << s[1] << " C" << s[2];
                ASSERT_EQ(static_cast<std::int64_t>(got.at(r, o)), dot);
            }
        }
    }
}

/** Compress each row of @p weights into flat groups + offsets. */
struct CompressedRows
{
    std::vector<CompressedGroup> groups;
    std::vector<std::int64_t> offsets;
};

CompressedRows
compressRows(const Int8Tensor &weights, std::int64_t groupSize,
             int targetColumns, PruneStrategy strategy)
{
    CompressedRows out;
    out.offsets.push_back(0);
    std::int64_t cols = weights.shape().dim(1);
    for (std::int64_t o = 0; o < weights.shape().dim(0); ++o) {
        for (std::int64_t begin = 0; begin < cols; begin += groupSize) {
            std::int64_t len = std::min(groupSize, cols - begin);
            out.groups.push_back(compressGroup(
                rowSlice(weights, o, begin, len), targetColumns,
                strategy));
        }
        out.offsets.push_back(
            static_cast<std::int64_t>(out.groups.size()));
    }
    return out;
}

/** gemmCompressed pinned against dotReference on decompressed groups. */
void
expectCompressedGemmExact(const Int8Tensor &weights,
                          const Int8Tensor &acts, std::int64_t groupSize,
                          int targetColumns, PruneStrategy strategy)
{
    std::int64_t cols = weights.shape().dim(1);
    CompressedRows rows =
        compressRows(weights, groupSize, targetColumns, strategy);
    CompressedRowPlanes planes = CompressedRowPlanes::prepare(
        rows.groups, rows.offsets, cols, groupSize);
    Int32Tensor got =
        engine::matmulCompressed(planes, BitSerialMatrix::pack(acts));

    for (std::int64_t r = 0; r < acts.shape().dim(0); ++r) {
        for (std::int64_t o = 0; o < weights.shape().dim(0); ++o) {
            std::int64_t want = 0;
            std::int64_t begin = 0;
            for (std::int64_t g = rows.offsets[o]; g < rows.offsets[o + 1];
                 ++g) {
                const CompressedGroup &cg =
                    rows.groups[static_cast<std::size_t>(g)];
                std::int64_t len =
                    static_cast<std::int64_t>(cg.stored.size());
                auto a = rowSlice(acts, r, begin, len);
                std::vector<std::int8_t> dec = cg.decompress();
                std::int64_t ref =
                    engine::dot(dec, a, engine::DotMethod::Reference)
                        .value;
                want += ref;
                // The per-sample kernel is the same arithmetic.
                ASSERT_EQ(engine::dotCompressed(cg, a).value, ref);
                begin += len;
            }
            ASSERT_EQ(static_cast<std::int64_t>(got.at(r, o)), want)
                << "r=" << r << " o=" << o << " gs=" << groupSize
                << " target=" << targetColumns;
        }
    }
}

TEST(GemmCompressedTest, MatchesDotReferenceOnFuzzedShapes)
{
    Rng rng(606);
    const std::int64_t shapes[][3] = {
        // {N, K, C} — C both multiples and non-multiples of groupSize/64
        {1, 2, 32},  {3, 4, 96},   {2, 5, 70},  {4, 3, 33},
        {6, 8, 128}, {5, 6, 200},  {2, 2, 31},  {7, 4, 65},
    };
    for (const auto &s : shapes) {
        for (std::int64_t gs : {16, 32, 64}) {
            for (int target : {0, 2, 4, 6}) {
                PruneStrategy strategy =
                    (target % 4) == 0 ? PruneStrategy::ZeroPointShifting
                                      : PruneStrategy::RoundedAveraging;
                Int8Tensor w = randomMatrix(s[1], s[2], rng);
                Int8Tensor a = randomMatrix(s[0], s[2], rng);
                expectCompressedGemmExact(w, a, gs, target, strategy);
            }
        }
    }
}

TEST(GemmCompressedTest, AllPrunedGroups)
{
    // Constant-valued rows compress to all-zero stored planes at high
    // pruning targets: the whole contribution must flow through the
    // BBS-constant x sum-of-activations term.
    Rng rng(707);
    Int8Tensor w(Shape{3, 64});
    for (std::int64_t o = 0; o < 3; ++o)
        for (std::int64_t i = 0; i < 64; ++i)
            w.at(o, i) = static_cast<std::int8_t>(8 * (o + 1));
    Int8Tensor a = randomMatrix(5, 64, rng);
    for (PruneStrategy strategy : {PruneStrategy::RoundedAveraging,
                                   PruneStrategy::ZeroPointShifting})
        expectCompressedGemmExact(w, a, 32, 6, strategy);

    // All-zero weights: every term (stored and constant) is zero.
    Int8Tensor zero(Shape{2, 48});
    expectCompressedGemmExact(zero, randomMatrix(3, 48, rng), 16, 4,
                              PruneStrategy::RoundedAveraging);
}

TEST(GemmCompressedTest, PrepareFromCompressedTensor)
{
    Rng rng(808);
    Int8Tensor w = randomMatrix(6, 96, rng);
    Int8Tensor a = randomMatrix(4, 96, rng);
    CompressedTensor ct = CompressedTensor::compress(
        w, 32, 3, PruneStrategy::RoundedAveraging);
    CompressedRowPlanes planes = CompressedRowPlanes::prepare(ct);
    Int32Tensor got =
        engine::matmulCompressed(planes, BitSerialMatrix::pack(a));
    Int8Tensor dec = ct.decompress();
    Int32Tensor ref = gemmReferenceBatch(a, dec);
    for (std::int64_t i = 0; i < ref.numel(); ++i)
        EXPECT_EQ(got.flat(i), ref.flat(i)) << "i=" << i;
}

TEST(GemmCompressedTest, DeepRowsMatchReferenceOnDecompressedWeights)
{
    // Rows of many groups: stage 2's lane sums carry across 96 groups
    // of 32, across 16 groups of 64 ending in a 40-column tail, and
    // across 64 groups of 64 (two plane words per slot). Odd sample and
    // weight-row counts leave edge tiles and a missing odd sample.
    Rng rng(1212);
    // Thread caps 1, 2, 3 and the maximum over weight-row and batch
    // counts that give one tile row, odd rows, whole and short stage-2
    // blocks (8 or 26 tile rows at this depth) and one or two pack
    // chunks. The per-dot route rides along at small batches.
    const unsigned maxThreads = maxWorkerThreads();
    for (std::int64_t k : {1, 15, 16, 17, 255, 257}) {
        CompressedRowPlanes planes = CompressedRowPlanes::compress(
            randomMatrix(k, 512, rng), 32, 3,
            PruneStrategy::ZeroPointShifting);
        Int8Tensor dec = planes.decompress();
        engine::MatmulPlan perDot = engine::defaultSession().plan(
            engine::PackedOperand::viewCompressed(planes), {},
            {engine::PlanKind::PerDot});
        for (std::int64_t n : {1, 2, 3, 16, 17}) {
            Int8Tensor a = randomMatrix(n, 512, rng);
            Int32Tensor ref = gemmReferenceBatch(a, dec);
            for (unsigned cap : {1u, 2u, 3u, maxThreads}) {
                setWorkerThreadCap(cap);
                Int32Tensor got = engine::matmulCompressed(
                    planes, BitSerialMatrix::pack(a));
                Int32Tensor dots;
                if (n <= 3)
                    perDot.run(a, dots);
                setWorkerThreadCap(0);
                ASSERT_TRUE(got.shape() == ref.shape());
                for (std::int64_t i = 0; i < ref.numel(); ++i) {
                    ASSERT_EQ(got.flat(i), ref.flat(i))
                        << "K" << k << " N" << n << " cap " << cap
                        << " i=" << i;
                    if (n <= 3)
                        ASSERT_EQ(dots.flat(i), ref.flat(i))
                            << "per-dot K" << k << " N" << n << " cap "
                            << cap << " i=" << i;
                }
            }
        }
    }
    struct DeepShape
    {
        std::int64_t n, k, c, groupSize;
    };
    for (DeepShape s : {DeepShape{17, 129, 3072, 32},
                        DeepShape{3, 5, 1000, 64},
                        DeepShape{9, 33, 4096, 64}}) {
        for (PruneStrategy strategy : {PruneStrategy::RoundedAveraging,
                                       PruneStrategy::ZeroPointShifting}) {
            CompressedRowPlanes planes = CompressedRowPlanes::compress(
                randomMatrix(s.k, s.c, rng), s.groupSize, 3, strategy);
            Int8Tensor a = randomMatrix(s.n, s.c, rng);
            Int32Tensor got =
                engine::matmulCompressed(planes, BitSerialMatrix::pack(a));
            Int32Tensor ref = gemmReferenceBatch(a, planes.decompress());
            ASSERT_TRUE(got.shape() == ref.shape());
            for (std::int64_t i = 0; i < ref.numel(); ++i)
                ASSERT_EQ(got.flat(i), ref.flat(i))
                    << "N" << s.n << " K" << s.k << " C" << s.c
                    << " i=" << i;
        }
    }
}

TEST(GemmCompressedTest, ExtremeProductsAtMaxDepthStayExact)
{
    // The largest |output| the depth limit admits: every activation
    // -128 against the most negative storable weight, -128 (stored -16
    // over 3 pruned columns), at depth kMaxGemmDepth. Each output is
    // 128 * 128 * (2^17 - 1) = 2^31 - 2^14, inside INT32 only by the
    // depth limit, and the sign-plane lane reaches -128 * depth, just
    // inside the int32 lanes' 2^24 bound, so the lane sums and the
    // narrowing must be exact — at one plane word per slot and at two.
    Int8Tensor w(Shape{3, kMaxGemmDepth});
    Int8Tensor a(Shape{3, kMaxGemmDepth});
    for (std::int64_t i = 0; i < w.numel(); ++i)
        w.flat(i) = -128;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        a.flat(i) = -128;
    const std::int64_t want = 128 * 128 * kMaxGemmDepth;
    for (std::int64_t groupSize : {32, 64}) {
        CompressedRowPlanes planes = CompressedRowPlanes::compress(
            w, groupSize, 3, PruneStrategy::RoundedAveraging);
        ASSERT_EQ(planes.bits(0, 0), 5);
        ASSERT_EQ(planes.shift(0, 0), 3);
        Int32Tensor got =
            engine::matmulCompressed(planes, BitSerialMatrix::pack(a));
        Int32Tensor ref = gemmReferenceBatch(a, planes.decompress());
        for (std::int64_t i = 0; i < ref.numel(); ++i) {
            ASSERT_EQ(static_cast<std::int64_t>(got.flat(i)), want)
                << "group " << groupSize << " i=" << i;
            ASSERT_EQ(ref.flat(i), got.flat(i))
                << "group " << groupSize << " i=" << i;
        }
    }
}

#if BBS_OBS
TEST(GemmCompressedTest, SixteenRowPlanRunsStageTwoAsItsOnlyPoolJob)
{
    // At 16 rows a 256 x 256 plan's activation pack (4,096 bytes) and
    // stage 1 (8 pairs of 128 windows) are below kMinChunkWork and run
    // on the caller; stage 2 (128 tile rows) is the one pool job.
    Rng rng(1313);
    CompressedRowPlanes planes = CompressedRowPlanes::compress(
        randomMatrix(256, 256, rng), 32, 3,
        PruneStrategy::ZeroPointShifting);
    engine::MatmulPlan plan = engine::defaultSession().plan(
        engine::PackedOperand::viewCompressed(planes), {},
        {engine::PlanKind::CompressedBatched});
    Int8Tensor a = randomMatrix(16, 256, rng);
    Int32Tensor out;
    plan.run(a, out); // warm the arena
    obs::Counter &jobs =
        obs::Registry::global().counter("bbs_pool_jobs_total");
    const std::uint64_t before = jobs.value();
    plan.run(a, out);
    EXPECT_EQ(jobs.value() - before, maxWorkerThreads() > 1 ? 1u : 0u);
}
#endif

TEST(GemmCompressedDeathTest, PrepareRefusesGroupsPastTheLaneBound)
{
    // bits + shift <= 8 bounds every stored value times 2^shift by 2^7,
    // which keeps stage 2's int32 lanes exact; prepare() refuses a group
    // that breaks it.
    CompressedGroup cg;
    cg.storedBits = 6;
    cg.prunedColumns = 3;
    cg.stored.assign(32, 1);
    const std::vector<std::int64_t> offsets{0, 1};
    EXPECT_DEATH(CompressedRowPlanes::prepare(std::span(&cg, 1), offsets,
                                              32, 32),
                 "bits \\+ pruned <= 8");
}

TEST(ParallelTest, ThreadCapParsing)
{
    // The pure parser behind the cached BBS_THREADS read — one parse
    // path, owned by engine::EngineConfig: only a positive integer
    // strictly below the hardware count clamps.
    using engine::EngineConfig;
    EXPECT_EQ(EngineConfig::parseThreadCap(nullptr, 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("1", 8), 1u);
    EXPECT_EQ(EngineConfig::parseThreadCap("7", 8), 7u);
    EXPECT_EQ(EngineConfig::parseThreadCap("8", 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("99", 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("0", 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("-3", 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("not-a-number", 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("4x", 8), 8u);
}

TEST(ParallelTest, EnvReadOnceAndOverrideRespectedAndHarmless)
{
    // BBS_THREADS is cached on the first maxWorkerThreads() call, so
    // mutating the environment afterwards must be invisible...
    unsigned cached = maxWorkerThreads();
    ASSERT_EQ(setenv("BBS_THREADS", "1", 1), 0);
    EXPECT_EQ(maxWorkerThreads(), cached);
    ASSERT_EQ(unsetenv("BBS_THREADS"), 0);
    EXPECT_EQ(maxWorkerThreads(), cached);

    // ...while the runtime override caps workers without changing
    // results (the primitives are deterministic under any thread count).
    Rng rng(909);
    Int8Tensor w = randomMatrix(5, 128, rng);
    Int8Tensor a = randomMatrix(9, 128, rng);
    Int32Tensor ref = gemmReferenceBatch(a, w);

    setWorkerThreadCap(1);
    EXPECT_EQ(maxWorkerThreads(), 1u);
    Int32Tensor capped =
        engine::matmulBitSerial(BitSerialMatrix::pack(a),
                                BitSerialMatrix::pack(w));
    setWorkerThreadCap(0);
    EXPECT_EQ(maxWorkerThreads(), cached);

    for (std::int64_t i = 0; i < ref.numel(); ++i)
        ASSERT_EQ(capped.flat(i), ref.flat(i)) << "i=" << i;
}

} // namespace
} // namespace bbs
