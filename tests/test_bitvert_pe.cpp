/**
 * @file
 * Tests for the cycle-accurate BitVert PE and its Fig 8 scheduler.
 */
#include <bit>

#include <gtest/gtest.h>

#include "accel/bitvert_pe.hpp"
#include "common/bit_utils.hpp"
#include "common/random.hpp"
#include "engine/engine.hpp"

namespace bbs {
namespace {

class SchedulerCoverage : public ::testing::TestWithParam<int>
{
};

TEST_P(SchedulerCoverage, EveryColumnIsFullyCovered)
{
    // Exhaustive: for every possible sub-group column, the staggered 5:1
    // muxes must cover every effectual bit (BBS bounds them at n/2).
    int n = GetParam();
    for (std::uint32_t col = 0; col < (1u << n); ++col) {
        SubGroupSchedule sched = scheduleSubGroupColumn(col, n);
        std::uint32_t mask = (1u << n) - 1u;
        std::uint32_t effectual =
            sched.inverted ? (~col & mask) : (col & mask);

        std::uint32_t covered = 0;
        for (const LaneSelect &lane : sched.lanes) {
            if (!lane.valid)
                continue;
            // Mux j reaches only positions {j, ..., j+4}.
            int j = static_cast<int>(&lane - sched.lanes.data());
            EXPECT_GE(lane.select, j);
            EXPECT_LE(lane.select, j + 4);
            EXPECT_LT(lane.select, n);
            // No double selection.
            EXPECT_EQ(covered & (1u << lane.select), 0u);
            covered |= 1u << lane.select;
        }
        EXPECT_EQ(covered, effectual) << "col=" << col << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(SubGroupSizes, SchedulerCoverage,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Scheduler, InvertsIffOnesDominate)
{
    EXPECT_FALSE(scheduleSubGroupColumn(0b00001111, 8).inverted);
    EXPECT_TRUE(scheduleSubGroupColumn(0b00011111, 8).inverted);
    EXPECT_FALSE(scheduleSubGroupColumn(0b00000000, 8).inverted);
    EXPECT_TRUE(scheduleSubGroupColumn(0b11111111, 8).inverted);
}

std::vector<std::int8_t>
randomVec(Rng &rng, std::size_t n)
{
    std::vector<std::int8_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    return v;
}

struct PeParam
{
    PruneStrategy strategy;
    int targetColumns;
    std::size_t n;
};

class BitVertPeProperty : public ::testing::TestWithParam<PeParam>
{
};

TEST_P(BitVertPeProperty, MatchesMathematicalDotProduct)
{
    auto [strategy, target, n] = GetParam();
    Rng rng(0xbe + target + n);
    for (int iter = 0; iter < 200; ++iter) {
        auto w = randomVec(rng, n);
        auto a = randomVec(rng, n);
        CompressedGroup cg = compressGroup(w, target, strategy);
        std::vector<std::int8_t> rec = cg.decompress();

        PeRunResult pe = runBitVertPe(cg, a);
        EXPECT_EQ(pe.value,
                  engine::dot(rec, a, engine::DotMethod::Reference)
                      .value);
        // One cycle per stored column.
        EXPECT_EQ(pe.cycles, cg.storedBits);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BitVertPeProperty,
    ::testing::Values(PeParam{PruneStrategy::RoundedAveraging, 2, 16},
                      PeParam{PruneStrategy::RoundedAveraging, 4, 16},
                      PeParam{PruneStrategy::ZeroPointShifting, 4, 16},
                      PeParam{PruneStrategy::ZeroPointShifting, 6, 16},
                      PeParam{PruneStrategy::ZeroPointShifting, 2, 12},
                      PeParam{PruneStrategy::RoundedAveraging, 0, 16}));

TEST(BitVertPe, UncompressedEightBitGroupTakesEightCycles)
{
    Rng rng(0xfe);
    auto w = randomVec(rng, 16);
    auto a = randomVec(rng, 16);
    // Sensitive channels run uncompressed: storedBits = 8, pruned = 0,
    // constant = 0.
    PeRunResult pe = runBitVertPe(w, 8, 0, 0, a);
    EXPECT_EQ(pe.value,
              engine::dot(w, a, engine::DotMethod::Reference).value);
    EXPECT_EQ(pe.cycles, 8);
}

TEST(BitVertPe, HandlesShortGroups)
{
    Rng rng(0xaa);
    for (std::size_t n : {1u, 5u, 8u, 9u, 15u}) {
        auto w = randomVec(rng, n);
        auto a = randomVec(rng, n);
        PeRunResult pe = runBitVertPe(w, 8, 0, 0, a);
        EXPECT_EQ(pe.value,
                  engine::dot(w, a, engine::DotMethod::Reference).value)
            << "n=" << n;
    }
}

} // namespace
} // namespace bbs
