/**
 * @file
 * Tests of the packed bit-plane substrate: pack/unpack round trips, the
 * word-level primitives against their per-element definitions, and exact
 * packed-vs-scalar equivalence of every kernel that was refactored onto
 * the planes (sparsity, all dot-product forms, redundant columns).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bit_utils.hpp"
#include "common/random.hpp"
#include "core/bbs.hpp"
#include "engine/engine.hpp"
#include "core/bitplane.hpp"
#include "core/compressed_tensor.hpp"
#include "sim/prepared_model.hpp"
#include "tensor/tensor.hpp"

namespace bbs {
namespace {

std::vector<std::int8_t>
randomVec(Rng &rng, std::size_t n, int lo = -128, int hi = 127)
{
    std::vector<std::int8_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int8_t>(rng.uniformInt(lo, hi));
    return v;
}

TEST(PackedGroup, RoundTripAllSizes)
{
    Rng rng(0xb17);
    for (std::size_t n = 1; n <= 64; ++n) {
        auto vals = randomVec(rng, n);
        // Force MSB-negative and boundary members into every group.
        vals[0] = -128;
        if (n > 1)
            vals[1] = 127;
        if (n > 2)
            vals[2] = -1;
        PackedGroup pg = packGroup(vals);
        EXPECT_EQ(pg.size, static_cast<int>(n));
        std::vector<std::int8_t> back = unpackGroup(pg);
        EXPECT_EQ(back, vals) << "size " << n;
    }
}

TEST(PackedGroup, RoundTripNarrowWidths)
{
    Rng rng(0xb18);
    for (int bits = 2; bits <= 8; ++bits) {
        int lo = -(1 << (bits - 1));
        int hi = (1 << (bits - 1)) - 1;
        for (std::size_t n : {1u, 7u, 8u, 9u, 33u, 64u}) {
            auto vals = randomVec(rng, n, lo, hi);
            vals[0] = static_cast<std::int8_t>(lo); // most negative
            PackedGroup pg = packGroup(vals, bits);
            EXPECT_EQ(pg.bits, bits);
            EXPECT_EQ(unpackGroup(pg), vals)
                << "bits " << bits << " size " << n;
        }
    }
}

TEST(PackedGroup, PlanesMatchExtractColumn)
{
    Rng rng(0xb19);
    for (int iter = 0; iter < 200; ++iter) {
        std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 64));
        auto vals = randomVec(rng, n);
        PackedGroup pg = packGroup(vals);
        for (int b = 0; b < kWeightBits; ++b) {
            EXPECT_EQ(pg.planes[static_cast<std::size_t>(b)],
                      extractColumn(vals, b))
                << "b=" << b << " n=" << n;
            EXPECT_EQ(packedColumnOnes(pg, b),
                      columnPopcount(extractColumn(vals, b),
                                     static_cast<int>(n)));
        }
    }
}

TEST(PackedGroup, SignMagnitudePlanesMatchScalarEncoding)
{
    Rng rng(0xb1a);
    for (int iter = 0; iter < 100; ++iter) {
        std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 64));
        auto vals = randomVec(rng, n);
        vals[0] = -128; // saturating sign-magnitude case
        PackedGroup sm = packGroupSignMagnitude(vals);
        for (int b = 0; b < kWeightBits; ++b) {
            BitColumn expect = 0;
            for (std::size_t i = 0; i < n; ++i)
                expect |= static_cast<BitColumn>(
                              (toSignMagnitude(vals[i]) >> b) & 1u)
                          << i;
            EXPECT_EQ(sm.planes[static_cast<std::size_t>(b)], expect);
        }
    }
}

TEST(PackedGroup, PrimitivesMatchScalarDefinitions)
{
    Rng rng(0xb1b);
    for (int iter = 0; iter < 300; ++iter) {
        std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 64));
        // Mix dense and sparse groups so zero/non-zero counting is hit.
        auto vals = rng.bernoulli(0.5) ? randomVec(rng, n)
                                       : randomVec(rng, n, -2, 2);
        PackedGroup pg = packGroup(vals);

        int onesTotal = 0, maxOnes = 0, effectual = 0, nnz = 0;
        for (std::size_t i = 0; i < n; ++i)
            nnz += (vals[i] != 0);
        for (int b = 0; b < kWeightBits; ++b) {
            int ones = columnPopcount(extractColumn(vals, b),
                                      static_cast<int>(n));
            onesTotal += ones;
            maxOnes = std::max(maxOnes, ones);
            effectual += std::min(ones, static_cast<int>(n) - ones);
        }
        EXPECT_EQ(packedOnesTotal(pg), onesTotal);
        EXPECT_EQ(packedMaxColumnOnes(pg), maxOnes);
        EXPECT_EQ(packedEffectualOps(pg), effectual);
        EXPECT_EQ(packedNonZeroValues(pg), nnz);
        EXPECT_EQ(countRedundantColumnsPacked(pg),
                  countRedundantColumns(vals));
    }
}

TEST(PackedGroup, GatherSumTouchesOnlySetBits)
{
    Rng rng(0xb1c);
    for (int iter = 0; iter < 100; ++iter) {
        std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 64));
        auto acts = randomVec(rng, n);
        BitColumn word = 0;
        std::int64_t expect = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.bernoulli(0.4)) {
                word |= 1ull << i;
                expect += acts[i];
            }
        }
        EXPECT_EQ(gatherSum(word, acts), expect);
    }
}

TEST(BitPlaneTensor, PerChannelGroupingAndGather)
{
    Rng rng(0xb1d);
    for (int iter = 0; iter < 50; ++iter) {
        std::int64_t channels = rng.uniformInt(1, 8);
        std::int64_t cs = rng.uniformInt(1, 100);
        std::int64_t groupSize = rng.uniformInt(1, 64);
        Int8Tensor codes(Shape{channels, cs});
        for (std::int64_t i = 0; i < codes.numel(); ++i)
            codes.flat(i) =
                static_cast<std::int8_t>(rng.uniformInt(-128, 127));

        BitPlaneTensor planes = BitPlaneTensor::pack(codes, groupSize);
        EXPECT_EQ(planes.numChannels(), channels);
        EXPECT_EQ(planes.groupsPerChannel(),
                  (cs + groupSize - 1) / groupSize);

        // The plane-major total must agree with summing the gathered
        // per-group primitive.
        std::int64_t perGroup = 0;
        for (std::int64_t g = 0; g < planes.numGroups(); ++g)
            perGroup += packedEffectualOps(planes.group(g));
        EXPECT_EQ(packedEffectualOpsTotal(planes), perGroup);

        // Every gathered group must match a direct pack of the channel
        // slice — groups never span two channels.
        for (std::int64_t c = 0; c < channels; ++c) {
            auto ch = codes.channel(c);
            for (std::int64_t i = 0; i < planes.groupsPerChannel(); ++i) {
                std::int64_t begin = i * groupSize;
                std::int64_t len =
                    std::min<std::int64_t>(groupSize, cs - begin);
                PackedGroup direct = packGroup(
                    std::span<const std::int8_t>(
                        ch.data() + begin,
                        static_cast<std::size_t>(len)));
                PackedGroup gathered =
                    planes.group(planes.groupIndex(c, i));
                EXPECT_EQ(gathered.size, direct.size);
                EXPECT_EQ(gathered.planes, direct.planes);
            }
        }
    }
}

TEST(PlaneCache, CopyAndAssignmentNeverServeStalePlanes)
{
    Rng rng(0xb22);
    auto makeLayer = [&](std::int8_t fill) {
        PreparedLayer l;
        l.codes = Int8Tensor(Shape{4, 32});
        for (std::int64_t i = 0; i < l.codes.numel(); ++i)
            l.codes.flat(i) = fill;
        return l;
    };
    PreparedLayer a = makeLayer(3);
    PreparedLayer b = makeLayer(-5);

    // Fill a's cache, then copy-assign b over it: the cache must be
    // re-derived from the new codes, not retain the old planes.
    (void)a.packedPlanes(16);
    a = b;
    PackedGroup got = a.packedPlanes(16).group(0);
    PackedGroup want = packGroup(b.codes.group(0, 16));
    EXPECT_EQ(got.planes, want.planes);

    // Same for move assignment.
    PreparedLayer c = makeLayer(17);
    (void)c.packedPlanes(16);
    c = makeLayer(-60);
    PackedGroup got2 = c.packedPlanes(16).group(0);
    Int8Tensor ref(Shape{4, 32});
    for (std::int64_t i = 0; i < ref.numel(); ++i)
        ref.flat(i) = -60;
    EXPECT_EQ(got2.planes, packGroup(ref.group(0, 16)).planes);
}

TEST(PackedVsScalar, BbsSparsityMatches)
{
    Rng rng(0xb1e);
    for (int iter = 0; iter < 50; ++iter) {
        std::int64_t n = rng.uniformInt(1, 500);
        std::int64_t vectorSize = rng.uniformInt(1, 64);
        Int8Tensor codes(Shape{n});
        for (std::int64_t i = 0; i < n; ++i)
            codes.flat(i) =
                static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        EXPECT_DOUBLE_EQ(bbsSparsity(codes, vectorSize),
                         bbsSparsityScalar(codes, vectorSize))
            << "n=" << n << " vec=" << vectorSize;
    }
}

TEST(PackedVsScalar, DotFormsMatchExactly)
{
    Rng rng(0xb1f);
    for (int iter = 0; iter < 500; ++iter) {
        std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 64));
        auto w = randomVec(rng, n);
        auto a = randomVec(rng, n);
        if (rng.bernoulli(0.3))
            w[0] = -128; // MSB-negative weight

        EXPECT_EQ(engine::dot(w, a, engine::DotMethod::ZeroSkip).value,
                  engine::dot(w, a, engine::DotMethod::ZeroSkipScalar)
                      .value);

        BbsDotResult packed = engine::dot(w, a);
        BbsDotResult scalar =
            engine::dot(w, a, engine::DotMethod::BbsScalar);
        EXPECT_EQ(packed.value, scalar.value);
        EXPECT_EQ(packed.effectualOps, scalar.effectualOps);
        EXPECT_EQ(packed.invertedColumns, scalar.invertedColumns);
        EXPECT_EQ(packed.value,
                  engine::dot(w, a, engine::DotMethod::Reference)
                      .value);
    }
}

TEST(PackedVsScalar, DotCompressedMatchesExactly)
{
    Rng rng(0xb20);
    for (int iter = 0; iter < 300; ++iter) {
        std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 64));
        int target = static_cast<int>(rng.uniformInt(0, 6));
        PruneStrategy strategy =
            rng.bernoulli(0.5) ? PruneStrategy::RoundedAveraging
                               : PruneStrategy::ZeroPointShifting;
        auto w = randomVec(rng, n);
        auto a = randomVec(rng, n);

        CompressedGroup cg = compressGroup(w, target, strategy);
        BbsDotResult packed = engine::dotCompressed(cg, a);
        BbsDotResult scalar = engine::dotCompressed(cg, a, true);
        EXPECT_EQ(packed.value, scalar.value);
        EXPECT_EQ(packed.effectualOps, scalar.effectualOps);
        EXPECT_EQ(packed.invertedColumns, scalar.invertedColumns);

        // The compressed-domain form still equals the dense reference on
        // the reconstructed weights (the repo-wide exactness invariant).
        std::vector<std::int8_t> rec = cg.decompress();
        EXPECT_EQ(packed.value,
                  engine::dot(rec, a, engine::DotMethod::Reference)
                      .value);
    }
}

TEST(PackedVsScalar, CompressedTensorPackedGroupsMatchStoredValues)
{
    Rng rng(0xb21);
    for (int iter = 0; iter < 20; ++iter) {
        std::int64_t n = rng.uniformInt(1, 300);
        std::int64_t groupSize = rng.uniformInt(1, 64);
        int target = static_cast<int>(rng.uniformInt(0, 6));
        Int8Tensor codes(Shape{n});
        for (std::int64_t i = 0; i < n; ++i)
            codes.flat(i) =
                static_cast<std::int8_t>(rng.uniformInt(-128, 127));

        CompressedTensor ct = CompressedTensor::compress(
            codes, groupSize, target, PruneStrategy::RoundedAveraging);
        ASSERT_EQ(ct.packedGroups().size(), ct.groups().size());
        for (std::size_t g = 0; g < ct.groups().size(); ++g) {
            const CompressedGroup &cg = ct.groups()[g];
            const PackedGroup &pg = ct.packedGroups()[g];
            EXPECT_EQ(pg.bits, cg.storedBits);
            EXPECT_EQ(pg.size, static_cast<int>(cg.stored.size()));
            for (int b = 0; b < cg.storedBits; ++b)
                EXPECT_EQ(pg.planes[static_cast<std::size_t>(b)],
                          extractColumn(cg.stored, b));
        }
    }
}

} // namespace
} // namespace bbs
