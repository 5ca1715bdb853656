/**
 * @file
 * Tests for the engine facade (engine/engine.hpp): EngineConfig's single
 * env parse path, plan-kind selection boundaries (batch 1 vs 2 vs 64,
 * all-pruned groups, uncompressed-in-effect operands), bit-identity of
 * every plan kind against the references, PackedOperand's compressed
 * planes pinned to the whole-tensor compressor's, and Session config
 * scoping (thread cap + SIMD level applied per call, restored after).
 */
#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "engine/engine.hpp"
#include "gemm/gemm.hpp"
#include "nn/dataset.hpp"
#include "nn/evaluate.hpp"
#include "nn/int8_infer.hpp"

namespace bbs {
namespace {

using bbs::engine::EngineConfig;
using bbs::engine::MatmulPlan;
using bbs::engine::PackedOperand;
using bbs::engine::PackKind;
using bbs::engine::PackOptions;
using bbs::engine::PlanKind;
using bbs::engine::PlanOptions;
using bbs::engine::Session;
using bbs::engine::ShapeHints;

Int8Tensor
randomMatrix(std::int64_t rows, std::int64_t cols, Rng &rng)
{
    Int8Tensor t(Shape{rows, cols});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    return t;
}

// ----------------------------------------------------------- EngineConfig

TEST(EngineConfigTest, ParseSimdLevel)
{
    EXPECT_EQ(EngineConfig::parseSimdLevel(nullptr), -1);
    EXPECT_EQ(EngineConfig::parseSimdLevel("scalar"),
              static_cast<int>(SimdLevel::Scalar));
    EXPECT_EQ(EngineConfig::parseSimdLevel("avx2"),
              static_cast<int>(SimdLevel::Avx2));
    EXPECT_EQ(EngineConfig::parseSimdLevel("avx512"),
              static_cast<int>(SimdLevel::Avx512));
    EXPECT_EQ(EngineConfig::parseSimdLevel("AVX2"), -1);  // case-sensitive
    EXPECT_EQ(EngineConfig::parseSimdLevel("sse42"), -1); // unknown
    EXPECT_EQ(EngineConfig::parseSimdLevel(""), -1);
}

TEST(EngineConfigTest, ParseThreadCap)
{
    // The one parse path behind BBS_THREADS (parallel.hpp consumes it
    // through threadCapFromEnv): only a positive integer strictly below
    // the hardware count clamps.
    EXPECT_EQ(EngineConfig::parseThreadCap(nullptr, 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("1", 8), 1u);
    EXPECT_EQ(EngineConfig::parseThreadCap("7", 8), 7u);
    EXPECT_EQ(EngineConfig::parseThreadCap("8", 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("99", 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("0", 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("-3", 8), 8u);
    EXPECT_EQ(EngineConfig::parseThreadCap("nope", 8), 8u);
}

TEST(EngineConfigTest, FromEnvSnapshotsResolvedState)
{
    // fromEnv() must only ever produce an applicable config: a supported
    // SIMD level (or inherit) and a thread cap below the ceiling (or
    // inherit). It cannot assert anything env-specific here (the CI
    // matrix legitimately sets BBS_SIMD), only the resolution contract.
    EngineConfig cfg = EngineConfig::fromEnv();
    if (cfg.simdLevel.has_value())
        EXPECT_TRUE(simdLevelSupported(*cfg.simdLevel));
    unsigned resolved = EngineConfig::threadCapFromEnv();
    EXPECT_GE(resolved, 1u);
    if (cfg.threadCap != 0)
        EXPECT_EQ(cfg.threadCap, resolved);
}

// --------------------------------------------------------- plan selection

TEST(PlanSelectionTest, SelectKindTable)
{
    // Dense weights always take the tiled kernel. Compressed weights
    // take per-dot at batch <= 1 (batch 0 is planning before any run;
    // nothing amortizes the activation pack). From batch 2 up they take
    // the tiled kernel when every group kept all 8 columns (the
    // group-windowed kernel would pay overhead for nothing), else the
    // compressed-batched kernel, all-pruned operands (0 stored bits)
    // included.
    const PlanKind D = PlanKind::PerDot;
    const PlanKind T = PlanKind::TiledBitSerial;
    const PlanKind C = PlanKind::CompressedBatched;
    const std::int64_t batches[] = {0, 1, 2, 4, 8, 64};
    // Columns: dense; compressed at 0, 5 and 8 mean stored bits.
    const PlanKind expected[][4] = {
        {T, D, D, D}, // batch 0
        {T, D, D, D}, // batch 1
        {T, C, C, T}, // batch 2
        {T, C, C, T}, // batch 4
        {T, C, C, T}, // batch 8
        {T, C, C, T}, // batch 64
    };
    for (std::size_t b = 0; b < std::size(batches); ++b) {
        std::int64_t batch = batches[b];
        EXPECT_EQ(MatmulPlan::selectKind(batch, false, 8.0), expected[b][0])
            << "dense batch=" << batch;
        const double bits[] = {0.0, 5.0, 8.0};
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_EQ(MatmulPlan::selectKind(batch, true, bits[i]),
                      expected[b][i + 1])
                << "compressed bits=" << bits[i] << " batch=" << batch;
    }

    // Matrix shape plays no part: a 2-row weight matrix batches at 4
    // (heuristic-only, so a deployed BBS_TUNE_CACHE cannot steer it).
    Rng rng(12);
    EngineConfig heuristic;
    heuristic.tuneCachePath = "none";
    Session s(heuristic);
    PackedOperand thin =
        s.pack(randomMatrix(2, 512, rng),
               PackOptions{32, 4, PruneStrategy::ZeroPointShifting});
    ASSERT_LT(thin.meanStoredBits(), 8.0);
    EXPECT_EQ(s.plan(thin).kindForBatch(4), PlanKind::CompressedBatched);
}

TEST(PlanSelectionTest, PlanResolvesKindPerBatchAndHonoursForce)
{
    Rng rng(11);
    Session s;
    Int8Tensor w = randomMatrix(6, 96, rng);
    PackedOperand packed =
        s.pack(w, PackOptions{32, 4, PruneStrategy::ZeroPointShifting});
    EXPECT_EQ(packed.kind(), PackKind::CompressedRows);
    EXPECT_LT(packed.meanStoredBits(), 8.0);

    MatmulPlan plan = s.plan(packed);
    EXPECT_EQ(plan.kindForBatch(1), PlanKind::PerDot);
    EXPECT_EQ(plan.kindForBatch(2), PlanKind::CompressedBatched);
    EXPECT_EQ(plan.kindForBatch(64), PlanKind::CompressedBatched);

    MatmulPlan forced =
        s.plan(packed, {}, PlanOptions{PlanKind::CompressedBatched});
    EXPECT_EQ(forced.kindForBatch(1), PlanKind::CompressedBatched);

    // Uncompressed-in-effect operand (targetColumns 0 keeps every
    // column unless sign-extension redundancy removes some): when the
    // mean stored bits stay at 8, Auto resolves the dense tiled kernel
    // at batch >= 2.
    Int8Tensor full = randomMatrix(4, 64, rng);
    PackedOperand nop =
        s.pack(full, PackOptions{32, 0, PruneStrategy::RoundedAveraging});
    if (nop.meanStoredBits() >= 8.0 - 1e-9) {
        MatmulPlan nopPlan = s.plan(nop);
        EXPECT_EQ(nopPlan.kindForBatch(16), PlanKind::TiledBitSerial);
        EXPECT_EQ(nopPlan.kindForBatch(1), PlanKind::PerDot);
    }
}

// ------------------------------------------------- execution bit-identity

TEST(PlanExecutionTest, AllKindsBitIdenticalAcrossShapes)
{
    Rng rng(22);
    Session s;
    const std::int64_t shapes[][4] = {
        // {N, K, C, groupSize} — C multiples and non-multiples of 64
        {1, 3, 32, 32}, {2, 5, 96, 32}, {7, 4, 70, 35},
        {64, 6, 128, 32}, {3, 2, 33, 11},
    };
    for (const auto &sh : shapes) {
        Int8Tensor acts = randomMatrix(sh[0], sh[2], rng);
        Int8Tensor w = randomMatrix(sh[1], sh[2], rng);
        PackedOperand packed = s.pack(
            w, PackOptions{sh[3], 3, PruneStrategy::ZeroPointShifting});
        MatmulPlan plan = s.plan(packed, ShapeHints{sh[0]});

        Int32Tensor ref =
            gemmReferenceBatch(acts, packed.unpack()); // oracle
        Int32Tensor autoOut = plan.run(acts);
        Int32Tensor perDot, batched, tiled;
        plan.runAs(PlanKind::PerDot, acts, perDot);
        plan.runAs(PlanKind::CompressedBatched, acts, batched);
        plan.runAs(PlanKind::TiledBitSerial, acts, tiled); // escape hatch
        ASSERT_TRUE(autoOut.shape() == ref.shape());
        for (std::int64_t i = 0; i < ref.numel(); ++i) {
            ASSERT_EQ(autoOut.flat(i), ref.flat(i)) << "i=" << i;
            ASSERT_EQ(perDot.flat(i), ref.flat(i)) << "i=" << i;
            ASSERT_EQ(batched.flat(i), ref.flat(i)) << "i=" << i;
            ASSERT_EQ(tiled.flat(i), ref.flat(i)) << "i=" << i;
        }
    }
}

TEST(PlanExecutionTest, AllPrunedGroupsThroughEveryKind)
{
    // Constant rows at target 6 compress to all-pruned groups: the whole
    // output flows through the constant x sum-of-activations term, and
    // every plan kind must still agree with the dense reference.
    Rng rng(33);
    Session s;
    Int8Tensor w(Shape{3, 64});
    for (std::int64_t o = 0; o < 3; ++o)
        for (std::int64_t i = 0; i < 64; ++i)
            w.at(o, i) = static_cast<std::int8_t>(8 * (o + 1));
    for (std::int64_t n : {1, 2, 64}) {
        Int8Tensor acts = randomMatrix(n, 64, rng);
        PackedOperand packed = s.pack(
            w, PackOptions{32, 6, PruneStrategy::ZeroPointShifting});
        MatmulPlan plan = s.plan(packed);
        EXPECT_EQ(plan.kindForBatch(n),
                  n == 1 ? PlanKind::PerDot : PlanKind::CompressedBatched);
        Int32Tensor ref = gemmReferenceBatch(acts, packed.unpack());
        Int32Tensor autoOut = plan.run(acts);
        Int32Tensor perDot, batched;
        plan.runAs(PlanKind::PerDot, acts, perDot);
        plan.runAs(PlanKind::CompressedBatched, acts, batched);
        for (std::int64_t i = 0; i < ref.numel(); ++i) {
            ASSERT_EQ(autoOut.flat(i), ref.flat(i)) << "n=" << n;
            ASSERT_EQ(perDot.flat(i), ref.flat(i)) << "n=" << n;
            ASSERT_EQ(batched.flat(i), ref.flat(i)) << "n=" << n;
        }
    }
}

TEST(PlanExecutionTest, DensePackedOperandRuns)
{
    Rng rng(44);
    Session s;
    Int8Tensor acts = randomMatrix(5, 80, rng);
    Int8Tensor w = randomMatrix(7, 80, rng);
    PackedOperand wOp = s.pack(w);
    EXPECT_EQ(wOp.kind(), PackKind::DenseBitPlanes);
    EXPECT_EQ(wOp.meanStoredBits(), 8.0);
    MatmulPlan plan = s.plan(wOp);
    Int32Tensor got = plan.run(acts);
    Int32Tensor ref = gemmReferenceBatch(acts, w);
    for (std::int64_t i = 0; i < ref.numel(); ++i)
        ASSERT_EQ(got.flat(i), ref.flat(i)) << "i=" << i;

    // Prepacked activations through the same plan.
    Int32Tensor got2;
    plan.run(s.pack(acts), got2);
    for (std::int64_t i = 0; i < ref.numel(); ++i)
        ASSERT_EQ(got2.flat(i), ref.flat(i)) << "i=" << i;
}

TEST(PlanExecutionTest, PackedActivationsAtBatchOneFallBack)
{
    // Auto would pick per-dot at one row, but a prepacked activation
    // operand has no element access — the plan must fall back to the
    // (bit-identical) compressed-batched kernel instead of rejecting.
    Rng rng(99);
    Session s;
    Int8Tensor w = randomMatrix(4, 64, rng);
    Int8Tensor acts = randomMatrix(1, 64, rng);
    PackedOperand packed =
        s.pack(w, PackOptions{32, 3, PruneStrategy::ZeroPointShifting});
    MatmulPlan plan = s.plan(packed);
    ASSERT_EQ(plan.kindForBatch(1), PlanKind::PerDot);
    Int32Tensor got;
    plan.run(s.pack(acts), got);
    Int32Tensor ref = gemmReferenceBatch(acts, packed.unpack());
    for (std::int64_t i = 0; i < ref.numel(); ++i)
        ASSERT_EQ(got.flat(i), ref.flat(i)) << "i=" << i;
}

// ------------------------------------------------------- packed planes

/** Equality of the compact row arrays: plane words, bits, shifts and
 *  constants, element by element. */
void
expectSamePlanes(const CompressedRowPlanes &got,
                 const CompressedRowPlanes &want, const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    ASSERT_EQ(got.groupSize(), want.groupSize()) << what;
    ASSERT_EQ(got.groupsPerRow(), want.groupsPerRow()) << what;
    ASSERT_EQ(got.stride(), want.stride()) << what;
    ASSERT_EQ(got.planeWords(), want.planeWords()) << what;
    ASSERT_EQ(got.planes().size(), want.planes().size()) << what;
    for (std::size_t i = 0; i < want.planes().size(); ++i)
        ASSERT_EQ(got.planes()[i], want.planes()[i]) << what << " word " << i;
    for (std::size_t i = 0; i < want.bits().size(); ++i) {
        ASSERT_EQ(got.bits()[i], want.bits()[i]) << what << " group " << i;
        ASSERT_EQ(got.shifts()[i], want.shifts()[i]) << what << " " << i;
        ASSERT_EQ(got.constants()[i], want.constants()[i])
            << what << " group " << i;
    }
}

TEST(PackedOperandTest, PlanesPinnedAndUnpackExact)
{
    Rng rng(66);
    Session s;
    Int8Tensor m = randomMatrix(5, 130, rng);
    Int8Tensor back = s.pack(m).unpack();
    for (std::int64_t i = 0; i < m.numel(); ++i)
        ASSERT_EQ(back.flat(i), m.flat(i));

    // Row-wise compression yields the same plane words as preparing the
    // whole-tensor compressor's output, wherever that path applies
    // (group size dividing the width), and unpack() reconstructs it.
    // 96 groups: more than one parallelFor chunk.
    for (PruneStrategy strategy :
         {PruneStrategy::RoundedAveraging, PruneStrategy::ZeroPointShifting}) {
        for (int target : {0, 3, 6}) {
            Int8Tensor w = randomMatrix(24, 128, rng);
            PackedOperand packed = s.pack(w, PackOptions{32, target, strategy});
            CompressedTensor ct =
                CompressedTensor::compress(w, 32, target, strategy);
            std::string what = std::string(pruneStrategyName(strategy)) +
                               " target " + std::to_string(target);
            expectSamePlanes(packed.compressedRows(),
                             CompressedRowPlanes::prepare(ct), what);
            Int8Tensor viaOperand = packed.unpack(), direct = ct.decompress();
            for (std::int64_t i = 0; i < direct.numel(); ++i)
                ASSERT_EQ(viaOperand.flat(i), direct.flat(i)) << what;
        }
    }

    // A ragged width (70 = 32 + 32 + 6): rows end in a short group, and
    // every plan kind agrees with the dense oracle on unpack().
    Int8Tensor w = randomMatrix(6, 70, rng);
    Int8Tensor acts = randomMatrix(9, 70, rng);
    PackedOperand packed =
        s.pack(w, PackOptions{32, 4, PruneStrategy::ZeroPointShifting});
    ASSERT_EQ(packed.compressedRows().groupsPerRow(), 3);
    ASSERT_EQ(packed.compressedRows().groupMembers(2), 6);
    Int32Tensor ref = gemmReferenceBatch(acts, packed.unpack());
    MatmulPlan plan = s.plan(packed);
    for (PlanKind kind : {PlanKind::PerDot, PlanKind::CompressedBatched,
                          PlanKind::TiledBitSerial}) {
        Int32Tensor got;
        plan.runAs(kind, acts, got);
        ASSERT_TRUE(got.shape() == ref.shape());
        for (std::int64_t i = 0; i < ref.numel(); ++i)
            ASSERT_EQ(got.flat(i), ref.flat(i))
                << planKindName(kind) << " i=" << i;
    }
}

// -------------------------------------------------------- session config

TEST(SessionConfigTest, ScopedThreadCapAndSimdLevelRestore)
{
    Rng rng(77);
    Int8Tensor w = randomMatrix(5, 128, rng);
    Int8Tensor acts = randomMatrix(16, 128, rng);
    Int32Tensor ref = gemmReferenceBatch(acts, w);

    unsigned capBefore = maxWorkerThreads();
    SimdLevel levelBefore = activeSimdLevel();

    // A single-threaded, scalar-dispatch session: results identical, and
    // the process-wide knobs are restored after every call.
    engine::EngineConfig cfg;
    cfg.threadCap = 1;
    cfg.simdLevel = SimdLevel::Scalar;
    Session scoped(cfg);
    PackedOperand packed = scoped.pack(
        w, PackOptions{32, 3, PruneStrategy::ZeroPointShifting});
    Int32Tensor got =
        scoped.plan(packed).run(acts); // CompressedBatched at batch 16
    Int32Tensor refCompressed = gemmReferenceBatch(acts, packed.unpack());
    for (std::int64_t i = 0; i < refCompressed.numel(); ++i)
        ASSERT_EQ(got.flat(i), refCompressed.flat(i)) << "i=" << i;

    EXPECT_EQ(maxWorkerThreads(), capBefore);
    EXPECT_EQ(activeSimdLevel(), levelBefore);

    // Dense path under the same scoped config.
    Session plain;
    Int32Tensor dense = plain.plan(plain.pack(w)).run(acts);
    Int32Tensor denseScoped = scoped.plan(scoped.pack(w)).run(acts);
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
        ASSERT_EQ(dense.flat(i), ref.flat(i));
        ASSERT_EQ(denseScoped.flat(i), ref.flat(i));
    }
    EXPECT_EQ(maxWorkerThreads(), capBefore);
    EXPECT_EQ(activeSimdLevel(), levelBefore);
}

// ------------------------------------------------ nn policy equivalences

TEST(InferencePolicyTest, PoliciesMatchAcrossExecutionKinds)
{
    Dataset ds = makeClusterDataset(60, 3, 12, 4242);
    Rng rng(5);
    Network net;
    net.add(std::make_unique<Dense>(ds.features, 20, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(20, ds.numClasses, rng));
    TrainOptions opts;
    opts.epochs = 4;
    trainNetwork(net, ds.trainX, ds.trainY, opts);
    Int8Network engine = Int8Network::fromNetwork(
        net, 32, 3, PruneStrategy::ZeroPointShifting);

    for (std::int64_t rows : {std::int64_t{1}, std::int64_t{5}}) {
        Batch x(Shape{rows, ds.features});
        for (std::int64_t i = 0; i < x.numel(); ++i)
            x.flat(i) = ds.testX.flat(i);
        // Per-batch calibration: every execution kind bit-identical.
        Batch autoRun = engine.forward(x);
        Batch perDot = engine.forward(
            x, InferencePolicy{bbs::engine::Calibration::PerBatch,
                               bbs::engine::PlanKind::PerDot});
        Batch batched = engine.forward(
            x,
            InferencePolicy{bbs::engine::Calibration::PerBatch,
                            bbs::engine::PlanKind::CompressedBatched});
        for (std::int64_t i = 0; i < autoRun.numel(); ++i) {
            ASSERT_EQ(autoRun.flat(i), perDot.flat(i)) << "i=" << i;
            ASSERT_EQ(autoRun.flat(i), batched.flat(i)) << "i=" << i;
        }
        // Per-row calibration on one row == per-batch on that row.
        if (rows == 1) {
            Batch rowCal = engine.forward(
                x, InferencePolicy{bbs::engine::Calibration::PerRow,
                                   bbs::engine::PlanKind::Auto});
            for (std::int64_t i = 0; i < autoRun.numel(); ++i)
                ASSERT_EQ(rowCal.flat(i), autoRun.flat(i)) << "i=" << i;
        }
    }
}

} // namespace
} // namespace bbs
