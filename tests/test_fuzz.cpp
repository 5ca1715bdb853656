/**
 * @file
 * Randomized cross-module fuzz tests: random shapes, betas, group sizes
 * and operating points hammer the full pipeline, checking only invariants
 * (never golden values), so they hold for any seed.
 */
#include <gtest/gtest.h>

#include <thread>

#include "accel/bitvert_array.hpp"
#include "accel/factory.hpp"
#include "core/serialization.hpp"
#include "engine/session.hpp"
#include "nn/layers.hpp"
#include "quant/quantizer.hpp"
#include "serve/server.hpp"
#include "sim/prepared_model.hpp"
#include "tensor/distribution.hpp"

namespace bbs {
namespace {

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PipelineFuzz, CompressionInvariantsHoldForRandomConfigs)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 10; ++iter) {
        std::int64_t channels = rng.uniformInt(1, 40);
        std::int64_t cs = rng.uniformInt(1, 200);
        int target = static_cast<int>(rng.uniformInt(0, 6));
        std::int64_t groupSize = rng.uniformInt(1, 64);
        PruneStrategy strategy =
            rng.bernoulli(0.5) ? PruneStrategy::RoundedAveraging
                               : PruneStrategy::ZeroPointShifting;

        WeightDistribution dist;
        FloatTensor w =
            generateWeights(Shape{channels, cs}, dist, rng);
        Int8Tensor codes = quantizePerChannel(w, 8).values;

        CompressedTensor ct = CompressedTensor::compress(
            codes, groupSize, target, strategy);
        Int8Tensor rec = ct.decompress();

        // Invariant: reconstruction error bounded by the pruned span.
        double bound = static_cast<double>(1 << target);
        for (std::int64_t i = 0; i < codes.numel(); ++i) {
            double err = std::abs(static_cast<double>(rec.flat(i)) -
                                  codes.flat(i));
            EXPECT_LE(err, bound * 2.0)
                << "i=" << i << " target=" << target;
        }

        // Invariant: effective bits = (8 - target) + 8/groupSize within
        // rounding of the tail group.
        double expectBits = (8.0 - target) +
                            8.0 / static_cast<double>(groupSize);
        EXPECT_NEAR(ct.effectiveBitsPerWeight(), expectBits,
                    expectBits * 0.2 + 0.5);

        // Invariant: serialization round-trips.
        SerializedTensor blob = serializeCompressed(ct);
        Int8Tensor back =
            deserializeCompressed(blob, codes.shape(), groupSize,
                                  target, strategy)
                .decompress();
        for (std::int64_t i = 0; i < rec.numel(); ++i)
            ASSERT_EQ(back.flat(i), rec.flat(i));
    }
}

TEST_P(PipelineFuzz, CompressedDotAlwaysExact)
{
    Rng rng(GetParam() ^ 0xfeed);
    for (int iter = 0; iter < 50; ++iter) {
        std::size_t n = static_cast<std::size_t>(rng.uniformInt(1, 64));
        int target = static_cast<int>(rng.uniformInt(0, 6));
        std::vector<std::int8_t> w(n), a(n);
        for (auto &x : w)
            x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        for (auto &x : a)
            x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        PruneStrategy strategy =
            rng.bernoulli(0.5) ? PruneStrategy::RoundedAveraging
                               : PruneStrategy::ZeroPointShifting;
        CompressedGroup cg = compressGroup(w, target, strategy);
        EXPECT_EQ(engine::dotCompressed(cg, a).value,
                  engine::dot(cg.decompress(), a,
                              engine::DotMethod::Reference)
                      .value);
    }
}

TEST_P(PipelineFuzz, FunctionalArrayExactForRandomShapes)
{
    Rng rng(GetParam() ^ 0xa11a);
    std::int64_t k = rng.uniformInt(1, 48);
    std::int64_t c = rng.uniformInt(1, 120);
    std::int64_t n = rng.uniformInt(1, 6);

    WeightDistribution dist;
    FloatTensor w = generateWeights(Shape{k, c}, dist, rng);
    QuantizedTensor q = quantizePerChannel(w, 8);
    Int8Tensor acts(Shape{c, n});
    for (std::int64_t i = 0; i < acts.numel(); ++i)
        acts.flat(i) =
            static_cast<std::int8_t>(rng.uniformInt(-128, 127));

    GlobalPruneConfig cfg = moderateConfig();
    cfg.beta = rng.uniformReal(0.0, 0.5);
    BitVertArrayResult res =
        runBitVertArray(q.values, q.scales, acts, cfg);

    // Decompressed-weight reference.
    std::vector<PrunableLayer> model(1);
    model[0].name = "l";
    model[0].codes = q.values;
    model[0].scales = q.scales;
    PrunedModel pm = globalBinaryPrune(model, cfg);
    Int32Tensor ref = gemmReference(pm.layers[0].codes, acts);

    for (std::int64_t i = 0; i < ref.numel(); ++i)
        ASSERT_EQ(res.outputs.flat(i), ref.flat(i))
            << "k=" << k << " c=" << c << " n=" << n;
}

TEST_P(PipelineFuzz, SimulatorsProduceFiniteConsistentResults)
{
    Rng rng(GetParam() ^ 0x51f7);
    ModelDesc desc;
    desc.name = "fuzz";
    LayerDesc l;
    l.name = "lin";
    l.kind = LayerKind::Linear;
    l.weightShape = Shape{rng.uniformInt(8, 128),
                          rng.uniformInt(8, 256)};
    l.outputPositions = rng.uniformInt(1, 64);
    l.reluActivations = rng.bernoulli(0.5);
    desc.layers = {l};

    MaterializeOptions opts;
    opts.seed = GetParam();
    MaterializedModel mm = materializeModel(desc, opts);
    GlobalPruneConfig cfg = moderateConfig();
    PreparedModel pm = prepareModel(mm, &cfg);
    SimConfig simCfg;

    for (auto &acc : evaluationLineup()) {
        ModelSim ms = acc->simulateModel(pm, simCfg);
        EXPECT_TRUE(std::isfinite(ms.totalCycles())) << acc->name();
        EXPECT_GT(ms.totalCycles(), 0.0) << acc->name();
        EXPECT_GE(ms.totalCycles(),
                  ms.layers[0].dramCycles - 1e-9)
            << acc->name(); // total = max(compute, dram)
        EXPECT_GE(ms.totalEnergyPj(), 0.0) << acc->name();
        EXPECT_GE(ms.usefulLaneCycles(), 0.0) << acc->name();
        EXPECT_GE(ms.intraPeStallLaneCycles(), -1e-6) << acc->name();
        EXPECT_GE(ms.interPeStallLaneCycles(), -1e-6) << acc->name();
    }
}

TEST_P(PipelineFuzz, BatcherNeverDropsOrDuplicatesRequests)
{
    // Batcher-shape fuzzer: random (numRequests, inputDim, maxBatch,
    // flushDelay) tuples against the serving runtime. Invariants: every
    // request resolves exactly once with Ok, its logits bit-match its
    // own single-sample per-dot-policy oracle (a dropped, duplicated or
    // row-swapped request cannot pass), and the batch-size histogram
    // accounts for every request exactly once.
    Rng rng(GetParam() ^ 0xba7c);
    for (int iter = 0; iter < 3; ++iter) {
        std::int64_t numRequests = rng.uniformInt(1, 80);
        std::int64_t inputDim = rng.uniformInt(4, 48);
        std::int64_t hidden = rng.uniformInt(4, 40);
        std::int64_t classes = rng.uniformInt(2, 10);
        std::int64_t groupSize = rng.uniformInt(4, 64);
        int target = static_cast<int>(rng.uniformInt(0, 4));

        Network net;
        Rng wrng(rng.next());
        net.add(std::make_unique<Dense>(inputDim, hidden, wrng));
        net.add(std::make_unique<ReluLayer>());
        net.add(std::make_unique<Dense>(hidden, classes, wrng));
        auto registry = std::make_shared<ModelRegistry>();
        registry->add("m", Int8Network::fromNetwork(
                               net, groupSize, target,
                               rng.bernoulli(0.5)
                                   ? PruneStrategy::RoundedAveraging
                                   : PruneStrategy::ZeroPointShifting));
        auto engine = registry->find("m");

        // Distinct random inputs and their serial oracles.
        std::vector<std::vector<float>> inputs(
            static_cast<std::size_t>(numRequests));
        std::vector<std::vector<float>> oracle(inputs.size());
        for (std::size_t j = 0; j < inputs.size(); ++j) {
            inputs[j].resize(static_cast<std::size_t>(inputDim));
            for (float &v : inputs[j])
                v = static_cast<float>(rng.uniformReal(-2.0, 2.0));
            Batch x(Shape{1, inputDim});
            for (std::int64_t c = 0; c < inputDim; ++c)
                x.at(0, c) = inputs[j][static_cast<std::size_t>(c)];
            Batch y = engine->forward(
                x, InferencePolicy{bbs::engine::Calibration::PerBatch,
                                   bbs::engine::PlanKind::PerDot});
            oracle[j].resize(static_cast<std::size_t>(classes));
            for (std::int64_t c = 0; c < classes; ++c)
                oracle[j][static_cast<std::size_t>(c)] = y.at(0, c);
        }

        ServerConfig cfg;
        cfg.maxBatch = rng.uniformInt(1, 16);
        cfg.maxDelayUs = rng.uniformInt(0, 2000);
        cfg.workers = 1;
        InferenceServer server(registry, cfg);

        // A few producers interleave the submissions.
        constexpr int kThreads = 4;
        std::vector<std::future<InferenceResponse>> futs(inputs.size());
        std::vector<std::thread> producers;
        for (int t = 0; t < kThreads; ++t) {
            producers.emplace_back([&, t] {
                for (std::size_t j = static_cast<std::size_t>(t);
                     j < inputs.size(); j += kThreads)
                    futs[j] = server.submit("m", inputs[j]);
            });
        }
        for (auto &p : producers)
            p.join();

        for (std::size_t j = 0; j < futs.size(); ++j) {
            InferenceResponse resp = futs[j].get();
            ASSERT_EQ(resp.status, ServeStatus::Ok)
                << serveStatusName(resp.status) << " j=" << j;
            ASSERT_EQ(resp.logits, oracle[j])
                << "j=" << j << " maxBatch=" << cfg.maxBatch
                << " delay=" << cfg.maxDelayUs;
            ASSERT_GE(resp.batchRows, 1);
            ASSERT_LE(resp.batchRows, cfg.maxBatch);
        }
        server.stop();

        StatsSnapshot s = server.stats();
        EXPECT_EQ(s.completed,
                  static_cast<std::uint64_t>(numRequests));
        EXPECT_EQ(s.expired + s.shutdownRejected + s.badRequests, 0u);
        std::uint64_t histRows = 0;
        for (std::size_t n = 0; n < s.batchHist.size(); ++n)
            histRows += s.batchHist[n] * n;
        EXPECT_EQ(histRows, s.completed);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

} // namespace
} // namespace bbs
