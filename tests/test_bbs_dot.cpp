/**
 * @file
 * Tests that all bit-serial dot-product forms (Eq. 1-3 and the
 * compressed-domain form) agree exactly with the dense reference —
 * through the engine facade (engine::dot / engine::dotCompressed), which
 * is the canonical route into the kernels.
 */
#include <gtest/gtest.h>

#include "common/bit_utils.hpp"
#include "common/random.hpp"
#include "engine/engine.hpp"

namespace bbs {
namespace {

std::vector<std::int8_t>
randomVec(Rng &rng, std::size_t n)
{
    std::vector<std::int8_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    return v;
}

class DotEquivalence : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DotEquivalence, AllFormsMatchReference)
{
    std::size_t n = GetParam();
    Rng rng(0x5e7 + n);
    for (int iter = 0; iter < 200; ++iter) {
        auto w = randomVec(rng, n);
        auto a = randomVec(rng, n);
        std::int64_t ref =
            engine::dot(w, a, engine::DotMethod::Reference).value;
        EXPECT_EQ(engine::dot(w, a, engine::DotMethod::ZeroSkip).value,
                  ref);
        BbsDotResult bbs = engine::dot(w, a, engine::DotMethod::Bbs);
        EXPECT_EQ(bbs.value, ref);
        // BBS does at most half the total bit work.
        EXPECT_LE(bbs.effectualOps,
                  static_cast<std::int64_t>(n) * kWeightBits / 2);
    }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, DotEquivalence,
                         ::testing::Values(1, 2, 7, 8, 16, 32, 64));

TEST(DotBbs, InvertsColumnsWithDominantOnes)
{
    // All -1 weights: every column is all ones -> all 8 columns inverted
    // and zero effectual adds.
    std::vector<std::int8_t> w(16, -1);
    std::vector<std::int8_t> a(16, 3);
    BbsDotResult r = engine::dot(w, a);
    EXPECT_EQ(r.value,
              engine::dot(w, a, engine::DotMethod::Reference).value);
    EXPECT_EQ(r.invertedColumns, 8);
    EXPECT_EQ(r.effectualOps, 0);
}

TEST(DotBbs, NoInversionForSparseColumns)
{
    std::vector<std::int8_t> w(16, 0);
    w[0] = 1;
    std::vector<std::int8_t> a(16, 5);
    BbsDotResult r = engine::dot(w, a);
    EXPECT_EQ(r.value, 5);
    EXPECT_EQ(r.invertedColumns, 0);
    EXPECT_EQ(r.effectualOps, 1);
}

struct CompressedDotParam
{
    PruneStrategy strategy;
    int targetColumns;
};

class CompressedDot : public ::testing::TestWithParam<CompressedDotParam>
{
};

TEST_P(CompressedDot, EqualsReferenceOnDecompressedWeights)
{
    auto [strategy, target] = GetParam();
    Rng rng(0xd07 + target);
    for (int iter = 0; iter < 200; ++iter) {
        auto w = randomVec(rng, 32);
        auto a = randomVec(rng, 32);
        CompressedGroup cg = compressGroup(w, target, strategy);
        std::vector<std::int8_t> rec = cg.decompress();

        // The compressed-domain execution must match computing with the
        // reconstructed weights exactly — this is the correctness claim
        // behind the BitVert PE's step 4 constant multiplier.
        BbsDotResult r = engine::dotCompressed(cg, a);
        EXPECT_EQ(r.value,
                  engine::dot(rec, a, engine::DotMethod::Reference)
                      .value);
    }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndTargets, CompressedDot,
    ::testing::Values(
        CompressedDotParam{PruneStrategy::RoundedAveraging, 0},
        CompressedDotParam{PruneStrategy::RoundedAveraging, 2},
        CompressedDotParam{PruneStrategy::RoundedAveraging, 4},
        CompressedDotParam{PruneStrategy::ZeroPointShifting, 2},
        CompressedDotParam{PruneStrategy::ZeroPointShifting, 4},
        CompressedDotParam{PruneStrategy::ZeroPointShifting, 6}));

TEST(CompressedDot, FewerEffectualOpsThanUncompressedBbs)
{
    Rng rng(404);
    std::int64_t opsCompressed = 0, opsFull = 0;
    for (int iter = 0; iter < 100; ++iter) {
        auto w = randomVec(rng, 32);
        auto a = randomVec(rng, 32);
        CompressedGroup cg =
            compressGroup(w, 4, PruneStrategy::ZeroPointShifting);
        opsCompressed += engine::dotCompressed(cg, a).effectualOps;
        opsFull += engine::dot(w, a).effectualOps;
    }
    EXPECT_LT(opsCompressed, opsFull);
}

} // namespace
} // namespace bbs
