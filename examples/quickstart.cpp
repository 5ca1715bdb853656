/**
 * @file
 * Quickstart: the BBS engine API in one file.
 *
 * 1. Quantize a synthetic weight tensor to per-channel INT8.
 * 2. Measure its bi-directional bit sparsity.
 * 3. Open an engine Session, pack the layer at a BBS operating point
 *    (4 columns pruned, zero-point shifting), inspect the footprint, and
 *    verify the compressed-domain dot product is exact.
 * 4. Create a MatmulPlan for the packed weights and execute a whole
 *    activation batch, verified against the naive integer GEMM — then
 *    round-trip the operand through a BBMS container file and show the
 *    mapped operand's plan is bit-identical.
 */
#include <cstdio>
#include <iostream>

#include <unistd.h>

#include "core/bbs.hpp"
#include "common/random.hpp"
#include "engine/engine.hpp"
#include "gemm/gemm.hpp"
#include "quant/quantizer.hpp"
#include "store/container.hpp"
#include "tensor/distribution.hpp"

int
main()
{
    using namespace bbs;

    engine::Session session; // the engine facade's root object
    std::cout << engine::runtimeSummary() << "\n";

    // 1. A synthetic layer: 64 output channels x 288 weights each.
    Rng rng(2024);
    WeightDistribution dist;
    FloatTensor fp32 = generateWeights(Shape{64, 288}, dist, rng);
    QuantizedTensor q = quantizePerChannel(fp32, 8);
    std::cout << "Layer " << q.values.shape().toString() << ", "
              << q.values.numel() << " INT8 weights\n";

    // 2. Inherent sparsity (paper Fig 3).
    std::cout << "  value sparsity:            "
              << valueSparsity(q.values) << "\n"
              << "  zero-bit sparsity (2's c): "
              << bitSparsityTwosComplement(q.values) << "\n"
              << "  BBS (vector size 8):       "
              << bbsSparsity(q.values, 8) << "  (always >= 0.5)\n";

    // 3. Pack at a BBS operating point: the Session BBS-compresses each
    // row into the compressed row-plane representation and reports the
    // footprint.
    engine::PackedOperand weights = session.pack(
        q.values, engine::PackOptions{/*groupSize=*/32, /*targetColumns=*/4,
                                      PruneStrategy::ZeroPointShifting});
    std::cout << "Packed as " << packKindName(weights.kind()) << ": "
              << weights.meanStoredBits()
              << " stored bits/weight (8.0 before)\n";

    // The compressed form executes directly: stored columns bit-serially,
    // pruned columns via the BBS-constant x sum-of-activations term.
    // Shown on one group: the first 32 weights of channel 0.
    std::vector<std::int8_t> activations(32);
    for (auto &a : activations)
        a = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    CompressedGroup g = compressGroup(q.values.channel(0).first(32), 4,
                                      PruneStrategy::ZeroPointShifting);
    BbsDotResult compressed = session.dotCompressed(g, activations);
    std::int64_t reference =
        session.dot(g.decompress(), activations,
                    engine::DotMethod::Reference)
            .value;
    std::cout << "Compressed-domain dot product: " << compressed.value
              << " (reference " << reference << ", "
              << (compressed.value == reference ? "exact" : "MISMATCH")
              << "), effectual bit-ops: " << compressed.effectualOps
              << "\n";

    // 4. Batched inference through a plan: created once from the packed
    // weights, it picks the execution kind per batch — per-dot at one
    // row, the batched compressed-domain GEMM here.
    Int8Tensor batch(Shape{16, 288});
    for (std::int64_t i = 0; i < batch.numel(); ++i)
        batch.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    engine::MatmulPlan plan =
        session.plan(weights, engine::ShapeHints{16});
    std::cout << "Plan kind at batch 16: "
              << planKindName(plan.kindForBatch(16)) << " (batch 1: "
              << planKindName(plan.kindForBatch(1)) << ")\n";
    Int32Tensor product = plan.run(batch);
    Int32Tensor naive = gemmReferenceBatch(batch, weights.unpack());
    std::int64_t mismatches = 0;
    for (std::int64_t i = 0; i < product.numel(); ++i)
        mismatches += (product.flat(i) != naive.flat(i));
    std::cout << "Batched compressed-domain GEMM: "
              << batch.shape().dim(0) << " samples x "
              << q.values.shape().dim(0) << " channels, "
              << (mismatches == 0 ? "exact" : "MISMATCH")
              << " vs the naive integer GEMM\n";
    if (mismatches != 0)
        return 1; // let the CI smoke step gate the exactness claim

    // Write -> map -> run: the operand's BBMS container holds the
    // in-memory plane layout, so the mapped operand replays the plan
    // bit-exactly.
    std::string path =
        "/tmp/bbs_quickstart_" + std::to_string(::getpid()) + ".bbms";
    std::size_t bytes = store::writeOperandContainer({weights}, path);
    Int32Tensor replay =
        session
            .plan(store::mapOperand(store::MappedContainer::open(path), 0))
            .run(batch);
    std::remove(path.c_str());
    std::int64_t drift = 0;
    for (std::int64_t i = 0; i < product.numel(); ++i)
        drift += (replay.flat(i) != product.flat(i));
    std::cout << "Operand round-trip: " << bytes << " B container, "
              << (drift == 0 ? "bit-identical replay" : "MISMATCH")
              << "\n";
    if (drift != 0)
        return 1;

    // Reconstruction error of the whole tensor.
    Int8Tensor rec = weights.unpack();
    double sse = 0.0;
    for (std::int64_t i = 0; i < rec.numel(); ++i) {
        double d = static_cast<double>(rec.flat(i)) - q.values.flat(i);
        sse += d * d;
    }
    std::cout << "Per-weight RMS error on the INT8 grid: "
              << std::sqrt(sse / static_cast<double>(rec.numel()))
              << " codes\n";
    return 0;
}
