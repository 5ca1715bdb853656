/**
 * @file
 * Tests for integer inference through the compressed-domain kernels: the
 * INT8 engine must track the float network closely, and BBS compression
 * inside it must behave like the fake-quantized path.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "accel/bitvert_array.hpp"
#include "nn/dataset.hpp"
#include "nn/evaluate.hpp"
#include "engine/engine.hpp"
#include "nn/int8_infer.hpp"
#include "quant/quantizer.hpp"

namespace bbs {
namespace {

class Int8InferTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ds_ = makeClusterDataset(100, 4, 16, 909);
        Rng rng(31);
        net_.add(std::make_unique<Dense>(ds_.features, 48, rng));
        net_.add(std::make_unique<ReluLayer>());
        net_.add(std::make_unique<Dense>(48, 24, rng));
        net_.add(std::make_unique<GeluLayer>());
        net_.add(std::make_unique<Dense>(24, ds_.numClasses, rng));
        TrainOptions opts;
        opts.epochs = 12;
        trainNetwork(net_, ds_.trainX, ds_.trainY, opts);
        floatAcc_ = accuracyPercent(net_, ds_.testX, ds_.testY);
    }

    Dataset ds_;
    Network net_;
    double floatAcc_ = 0.0;
};

TEST_F(Int8InferTest, UncompressedInt8TracksFloatNetwork)
{
    // targetColumns = 0: plain INT8 integer inference.
    Int8Network engine = Int8Network::fromNetwork(
        net_, 32, 0, PruneStrategy::RoundedAveraging);
    std::vector<int> pred = engine.predict(ds_.testX);

    std::int64_t hits = 0;
    for (std::size_t i = 0; i < ds_.testY.size(); ++i)
        hits += (pred[i] == ds_.testY[i]);
    double acc = 100.0 * static_cast<double>(hits) /
                 static_cast<double>(ds_.testY.size());
    EXPECT_NEAR(acc, floatAcc_, 4.0);
    EXPECT_NEAR(engine.effectiveBits(), 8.0 + 8.0 / 32.0, 0.3);
}

TEST_F(Int8InferTest, LogitsCloseToFloatReference)
{
    Int8Network engine = Int8Network::fromNetwork(
        net_, 32, 0, PruneStrategy::RoundedAveraging);
    Batch intLogits = engine.forward(ds_.testX);
    Batch floatLogits = net_.forward(ds_.testX);

    // Per-element deviation bounded by accumulated quantization noise.
    double maxAbs = 0.0;
    for (std::int64_t i = 0; i < floatLogits.numel(); ++i)
        maxAbs = std::max(maxAbs,
                          static_cast<double>(
                              std::abs(floatLogits.flat(i))));
    for (std::int64_t i = 0; i < floatLogits.numel(); ++i) {
        double err = std::abs(static_cast<double>(intLogits.flat(i)) -
                              floatLogits.flat(i));
        EXPECT_LE(err, 0.15 * maxAbs + 0.3) << "i=" << i;
    }
}

TEST_F(Int8InferTest, BbsCompressionInsideIntegerPathKeepsAccuracy)
{
    Int8Network cons = Int8Network::fromNetwork(
        net_, 32, 2, PruneStrategy::RoundedAveraging);
    Int8Network mod = Int8Network::fromNetwork(
        net_, 32, 4, PruneStrategy::ZeroPointShifting);

    auto accOf = [&](Int8Network &engine) {
        std::vector<int> pred = engine.predict(ds_.testX);
        std::int64_t hits = 0;
        for (std::size_t i = 0; i < ds_.testY.size(); ++i)
            hits += (pred[i] == ds_.testY[i]);
        return 100.0 * static_cast<double>(hits) /
               static_cast<double>(ds_.testY.size());
    };

    EXPECT_GT(accOf(cons), floatAcc_ - 6.0);
    EXPECT_GT(accOf(mod), floatAcc_ - 8.0);
    EXPECT_NEAR(cons.effectiveBits(), 6.25, 0.3);
    EXPECT_NEAR(mod.effectiveBits(), 4.25, 0.3);
}

TEST_F(Int8InferTest, GemmForwardBitIdenticalToPerDotReference)
{
    // Every execution kind of the per-layer plans is the same integer
    // arithmetic followed by the same float rescale, so logits must be
    // bit-identical — across compression operating points and batch
    // sizes (including one straddling 64-column words).
    const InferencePolicy perDotPolicy{bbs::engine::Calibration::PerBatch,
                                       bbs::engine::PlanKind::PerDot};
    const InferencePolicy batchedPolicy{
        bbs::engine::Calibration::PerBatch, bbs::engine::PlanKind::CompressedBatched};
    for (int target : {0, 3}) {
        Int8Network engine = Int8Network::fromNetwork(
            net_, 32, target, PruneStrategy::ZeroPointShifting);
        for (std::int64_t rows : {std::int64_t{1}, std::int64_t{7},
                                  ds_.testX.shape().dim(0)}) {
            Batch x(Shape{rows, ds_.testX.shape().dim(1)});
            for (std::int64_t i = 0; i < x.numel(); ++i)
                x.flat(i) = ds_.testX.flat(i);
            Batch gemm = engine.forward(x); // Auto execution
            Batch perDot = engine.forward(x, perDotPolicy);
            Batch batched = engine.forward(x, batchedPolicy);
            ASSERT_TRUE(gemm.shape() == perDot.shape());
            for (std::int64_t i = 0; i < gemm.numel(); ++i) {
                ASSERT_EQ(gemm.flat(i), perDot.flat(i))
                    << "target=" << target << " rows=" << rows
                    << " i=" << i;
                ASSERT_EQ(gemm.flat(i), batched.flat(i))
                    << "target=" << target << " rows=" << rows
                    << " i=" << i;
            }
        }
    }
}

TEST_F(Int8InferTest, LayerPlanesMatchPerRowGroupStaging)
{
    // Each layer's planes equal per-row compressGroup() staging prepared
    // into row planes. At group 32 every fixture layer (16, 48 and 24
    // inputs) ends its rows in a short group.
    for (PruneStrategy strategy :
         {PruneStrategy::RoundedAveraging, PruneStrategy::ZeroPointShifting}) {
        for (int target : {0, 4}) {
            Int8Network engine =
                Int8Network::fromNetwork(net_, 32, target, strategy);
            std::size_t li = 0;
            for (const auto &layer : net_.layers()) {
                if (layer->kind() != "dense")
                    continue;
                Int8Tensor codes =
                    quantizePerChannel(*layer->weights(), 8).values;
                std::vector<CompressedGroup> groups;
                std::vector<std::int64_t> rowOffsets{0};
                for (std::int64_t k = 0; k < codes.shape().dim(0); ++k) {
                    std::span<const std::int8_t> row = codes.channel(k);
                    for (std::size_t b = 0; b < row.size(); b += 32)
                        groups.push_back(compressGroup(
                            row.subspan(b, std::min<std::size_t>(
                                               32, row.size() - b)),
                            target, strategy));
                    rowOffsets.push_back(
                        static_cast<std::int64_t>(groups.size()));
                }
                CompressedRowPlanes want = CompressedRowPlanes::prepare(
                    groups, rowOffsets, codes.shape().dim(1), 32);
                const CompressedRowPlanes &got =
                    *engine.layers()[li++].planes;
                ASSERT_EQ(got.rows(), want.rows()) << "layer " << li;
                ASSERT_EQ(got.cols(), want.cols()) << "layer " << li;
                ASSERT_EQ(got.groupsPerRow(), want.groupsPerRow());
                ASSERT_EQ(got.stride(), want.stride()) << "layer " << li;
                ASSERT_TRUE(std::ranges::equal(got.planes(), want.planes()))
                    << "layer " << li;
                ASSERT_TRUE(std::ranges::equal(got.bits(), want.bits()))
                    << "layer " << li;
                ASSERT_TRUE(std::ranges::equal(got.shifts(), want.shifts()))
                    << "layer " << li;
                ASSERT_TRUE(
                    std::ranges::equal(got.constants(), want.constants()))
                    << "layer " << li;
            }
            ASSERT_EQ(li, engine.layers().size());
            EXPECT_EQ(engine.layers().back().inFeatures, 24);
        }
    }
}

TEST_F(Int8InferTest, BatchedEvaluationMatchesWholeSetEvaluation)
{
    Int8Network engine = Int8Network::fromNetwork(
        net_, 32, 0, PruneStrategy::RoundedAveraging);

    // Mini-batched accuracy through the GEMM engine must track the
    // float network like the whole-set path does (activation scales are
    // calibrated per batch, so tiny deviations are expected, not drift).
    double whole = accuracyPercent(engine, ds_.testX, ds_.testY,
                                   ds_.testX.shape().dim(0));
    double batched = accuracyPercent(engine, ds_.testX, ds_.testY, 16);
    EXPECT_NEAR(batched, whole, 8.0);
    EXPECT_NEAR(whole, floatAcc_, 4.0);

    // Perplexity over the integer logits is finite and sane.
    double ppl = perplexity(engine, ds_.testX, ds_.testY, 32);
    EXPECT_GT(ppl, 1.0);
    EXPECT_LT(ppl, static_cast<double>(ds_.numClasses) * 2.0);
}

TEST(BitVertArrayConv, ConvViaIm2colMatchesDirectReference)
{
    Rng rng(77);
    Int8Tensor w(Shape{8, 3, 3, 3});
    Int8Tensor input(Shape{3, 6, 6});
    for (std::int64_t i = 0; i < w.numel(); ++i)
        w.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    for (std::int64_t i = 0; i < input.numel(); ++i)
        input.flat(i) =
            static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    std::vector<float> scales(8, 1.0f);

    GlobalPruneConfig cfg = moderateConfig();
    cfg.beta = 1.0; // lossless: everything sensitive
    BitVertArrayResult res =
        runBitVertArrayConv(w, scales, input, /*pad=*/1, cfg);
    Int32Tensor ref = convReference(w, input, 1);

    ASSERT_TRUE(res.outputs.shape() == ref.shape());
    for (std::int64_t i = 0; i < ref.numel(); ++i)
        EXPECT_EQ(res.outputs.flat(i), ref.flat(i)) << "i=" << i;
}

TEST(BitVertArrayConv, PrunedConvMatchesPrunedReference)
{
    Rng rng(78);
    Int8Tensor w(Shape{32, 4, 3, 3});
    Int8Tensor input(Shape{4, 5, 5});
    for (std::int64_t i = 0; i < w.numel(); ++i)
        w.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    for (std::int64_t i = 0; i < input.numel(); ++i)
        input.flat(i) =
            static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    std::vector<float> scales(32);
    for (auto &s : scales)
        s = static_cast<float>(rng.uniformReal(0.5, 2.0));

    GlobalPruneConfig cfg = moderateConfig();
    BitVertArrayResult res =
        runBitVertArrayConv(w, scales, input, 1, cfg);

    // Reference over the pruned flattened weights.
    Int8Tensor flat(Shape{32, 36});
    std::copy(w.data().begin(), w.data().end(), flat.data().begin());
    std::vector<PrunableLayer> model(1);
    model[0].name = "conv";
    model[0].codes = flat;
    model[0].scales = scales;
    PrunedModel pm = globalBinaryPrune(model, cfg);
    Int32Tensor ref =
        gemmReference(pm.layers[0].codes, im2colInt8(input, 3, 1));

    for (std::int64_t i = 0; i < ref.numel(); ++i)
        EXPECT_EQ(res.outputs.flat(i), ref.flat(i)) << "i=" << i;
}

} // namespace
} // namespace bbs
