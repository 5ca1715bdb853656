/**
 * @file
 * Microbenchmarks (google-benchmark) of the compression and bit-serial
 * kernels, backing the paper's §III-B claim that binary pruning is fast
 * (milliseconds-to-seconds per layer, ~15 s for all of ResNet-50).
 */
#include <benchmark/benchmark.h>

#include "core/compressed_tensor.hpp"
#include "common/random.hpp"
#include "engine/session.hpp"
#include "quant/quantizer.hpp"
#include "tensor/distribution.hpp"

namespace {

using namespace bbs;

Int8Tensor
codes(std::int64_t n, std::uint64_t seed = 1)
{
    Rng rng(seed);
    WeightDistribution dist;
    FloatTensor w = generateWeights(Shape{std::max<std::int64_t>(
                                              1, n / 256),
                                          256},
                                    dist, rng);
    return quantizePerChannel(w, 8).values;
}

void
BM_CompressRoundedAveraging(benchmark::State &state)
{
    Int8Tensor t = codes(state.range(0));
    for (auto _ : state) {
        CompressedTensor ct = CompressedTensor::compress(
            t, 32, 2, PruneStrategy::RoundedAveraging);
        benchmark::DoNotOptimize(ct);
    }
    state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_CompressRoundedAveraging)->Arg(1 << 14)->Arg(1 << 18);

void
BM_CompressZeroPointShifting(benchmark::State &state)
{
    Int8Tensor t = codes(state.range(0));
    for (auto _ : state) {
        CompressedTensor ct = CompressedTensor::compress(
            t, 32, 4, PruneStrategy::ZeroPointShifting);
        benchmark::DoNotOptimize(ct);
    }
    state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_CompressZeroPointShifting)->Arg(1 << 14)->Arg(1 << 18);

void
BM_DotReference(benchmark::State &state)
{
    Rng rng(3);
    std::vector<std::int8_t> w(32), a(32);
    for (auto &x : w)
        x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    for (auto &x : a)
        x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine::dot(w, a, engine::DotMethod::Reference));
}
BENCHMARK(BM_DotReference);

void
BM_DotBitSerialBbs(benchmark::State &state)
{
    Rng rng(3);
    std::vector<std::int8_t> w(32), a(32);
    for (auto &x : w)
        x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    for (auto &x : a)
        x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    for (auto _ : state)
        benchmark::DoNotOptimize(engine::dot(w, a));
}
BENCHMARK(BM_DotBitSerialBbs);

void
BM_DotCompressed(benchmark::State &state)
{
    Rng rng(3);
    std::vector<std::int8_t> w(32), a(32);
    for (auto &x : w)
        x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    for (auto &x : a)
        x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    CompressedGroup cg =
        compressGroup(w, 4, PruneStrategy::ZeroPointShifting);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine::dotCompressed(cg, a));
}
BENCHMARK(BM_DotCompressed);

} // namespace

BENCHMARK_MAIN();
