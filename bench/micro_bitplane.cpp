/**
 * @file
 * Scalar-vs-packed microbenchmark of the bit-plane kernel substrate.
 *
 * Every kernel that was refactored onto packed planes is timed in both
 * forms on the same data, the results are checked for exact equality, and
 * a speedup table is printed. The packed path is the one the library
 * actually runs; the scalar path is the preserved per-element reference
 * (bbsSparsityScalar, and the DotMethod::BbsScalar / scalarReference
 * forms of engine::dot / engine::dotCompressed).
 *
 * A second table compares the SIMD dispatch levels on the word-scan
 * kernels (src/simd/) the packed paths bottom out in: every kernel the
 * active level actually vectorizes is timed against the BBS_SIMD=scalar
 * table on identical L1-resident data, checked bit-identical, and gated
 * at bench_common's per-level geomean target (3x under AVX-512, 1.5x
 * under AVX2, skipped when the dispatch is scalar).
 */
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>

#include "bench/bench_common.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "core/bbs.hpp"
#include "core/bitplane.hpp"
#include "core/compressed_tensor.hpp"
#include "engine/session.hpp"
#include "simd/simd.hpp"

namespace {

using namespace bbs;

double
secondsOf(const std::function<void()> &fn, int reps)
{
    // One warm-up, then the best of `reps` (least-noise estimator).
    fn();
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

Int8Tensor
randomCodes(std::int64_t channels, std::int64_t cs, std::uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor t(Shape{channels, cs});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::jsonInit("micro_bitplane", argc, argv);
    bench::printHeader(
        "micro_bitplane",
        "packed bit-plane kernels are >= 5x faster than the scalar "
        "per-element reference paths they replaced");

    const std::int64_t channels = 256;
    const std::int64_t cs = 1024;
    Int8Tensor codes = randomCodes(channels, cs, 0xbeef);
    const double weights = static_cast<double>(codes.numel());

    Table table({"kernel", "scalar", "packed", "speedup"});
    double logSum = 0.0;
    int kernels = 0;

    auto addRow = [&](const std::string &name, double scalarS,
                      double packedS) {
        double speedup = scalarS / packedS;
        logSum += std::log(speedup);
        ++kernels;
        table.addRow({name,
                      format("%.1f Mw/s", weights / scalarS / 1e6),
                      format("%.1f Mw/s", weights / packedS / 1e6),
                      bench::times(speedup)});
        bench::jsonAdd(name, "packed-vs-scalar-element",
                       {{"scalar_mws", weights / scalarS / 1e6},
                        {"packed_mws", weights / packedS / 1e6},
                        {"speedup", speedup}});
    };

    // ---- bbsSparsity: whole-tensor BBS sparsity measurement (Fig 3).
    {
        volatile double sink = 0.0;
        double scalarS = secondsOf(
            [&] { sink = bbsSparsityScalar(codes, 16); }, 5);
        double refVal = sink;
        double packedS =
            secondsOf([&] { sink = bbsSparsity(codes, 16); }, 5);
        if (sink != refVal)
            BBS_PANIC("bbsSparsity packed/scalar mismatch");
        addRow("bbsSparsity", scalarS, packedS);
    }

    // ---- dotBitSerialBbs: Eq. 2/3 dot product over 32-weight groups.
    {
        Int8Tensor acts = randomCodes(channels, cs, 0xfeed);
        const std::int64_t gs = 32;
        auto run = [&](bool packed) {
            std::int64_t acc = 0;
            for (std::int64_t g = 0; g < codes.numGroups(gs); ++g) {
                auto w = codes.group(g, gs);
                auto a = acts.group(g, gs);
                acc += engine::dot(w, a,
                                   packed ? engine::DotMethod::Bbs
                                          : engine::DotMethod::BbsScalar)
                           .value;
            }
            return acc;
        };
        volatile std::int64_t sink = 0;
        double scalarS = secondsOf([&] { sink = run(false); }, 5);
        std::int64_t refVal = sink;
        double packedS = secondsOf([&] { sink = run(true); }, 5);
        if (sink != refVal)
            BBS_PANIC("dotBitSerialBbs packed/scalar mismatch");
        addRow("dotBitSerialBbs", scalarS, packedS);
    }

    // ---- dotCompressed: compressed-domain dot (PE Fig 7).
    {
        Int8Tensor acts = randomCodes(channels, cs, 0xcafe);
        CompressedTensor ct = CompressedTensor::compress(
            codes, 32, 2, PruneStrategy::RoundedAveraging);
        auto run = [&](bool packed) {
            std::int64_t acc = 0;
            for (std::int64_t g = 0;
                 g < static_cast<std::int64_t>(ct.groups().size()); ++g) {
                const CompressedGroup &cg = ct.group(g);
                auto a = acts.group(g, 32);
                acc += engine::dotCompressed(cg, a, !packed).value;
            }
            return acc;
        };
        volatile std::int64_t sink = 0;
        double scalarS = secondsOf([&] { sink = run(false); }, 5);
        std::int64_t refVal = sink;
        double packedS = secondsOf([&] { sink = run(true); }, 5);
        if (sink != refVal)
            BBS_PANIC("dotCompressed packed/scalar mismatch");
        addRow("dotCompressed", scalarS, packedS);
    }

    // ---- effectual-ops scan: the per-slice work every accelerator
    //      buildWork performs (column popcounts of 16-weight slices).
    {
        auto runScalar = [&] {
            std::int64_t ops = 0;
            for (std::int64_t g = 0; g < codes.numGroups(16); ++g) {
                auto grp = codes.group(g, 16);
                int n = static_cast<int>(grp.size());
                for (int b = 0; b < kWeightBits; ++b)
                    ops += bbsEffectualBits(extractColumn(grp, b), n);
            }
            return ops;
        };
        // repack() reuses one plane allocation across reps — the mmap
        // churn of a fresh megabyte-scale tensor per call would otherwise
        // swamp the kernel being measured.
        auto runPacked = [&, planes = BitPlaneTensor()]() mutable {
            planes.repack(codes.data(), 1, 16);
            return packedEffectualOpsTotal(planes);
        };
        volatile std::int64_t sink = 0;
        double scalarS = secondsOf([&] { sink = runScalar(); }, 5);
        std::int64_t refVal = sink;
        double packedS = secondsOf([&] { sink = runPacked(); }, 5);
        if (sink != refVal)
            BBS_PANIC("effectual-ops packed/scalar mismatch");
        addRow("effectualOps scan", scalarS, packedS);
    }

    table.print(std::cout);
    double geomean = std::exp(logSum / kernels);
    std::cout << "\ngeomean kernel speedup: " << bench::times(geomean)
              << (geomean >= 5.0 ? "  (target >= 5x met)"
                                 : "  (below 5x target!)")
              << "\n";
    bool gatePassed = geomean >= 5.0;

    // ---- SIMD dispatch: the word-scan kernels at the active level vs
    //      the scalar table, on identical L1-resident data.
    {
        const SimdKernels &active = simdKernels();
        const SimdKernels &scalar = simdKernelsFor(SimdLevel::Scalar);
        const std::int64_t nw = 2048;   // 16 KiB of plane words
        const std::int64_t nb = 16384;  // byte-kernel span
        Rng rng(0x51d);
        std::vector<std::uint64_t> wordBuf(
            static_cast<std::size_t>(nw));
        for (auto &w : wordBuf)
            w = rng.next();
        std::vector<std::int8_t> byteBuf(static_cast<std::size_t>(nb));
        for (auto &b : byteBuf)
            b = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        const std::uint64_t *words = wordBuf.data();
        const std::int8_t *bytes = byteBuf.data();

        bench::SimdDispatchBench simdBench;
        if (active.popcountSum != scalar.popcountSum)
            simdBench.row(
                "popcountSum", true,
                [&] { return scalar.popcountSum(words, nw); },
                [&] { return active.popcountSum(words, nw); },
                static_cast<double>(nw));
        if (active.popcountSumBytes != scalar.popcountSumBytes)
            simdBench.row(
                "popcountSumBytes", true,
                [&] { return scalar.popcountSumBytes(bytes, nb); },
                [&] { return active.popcountSumBytes(bytes, nb); },
                static_cast<double>(nb) / 8.0);
        if (active.byteSum != scalar.byteSum)
            simdBench.row(
                "byteSum", true,
                [&] { return scalar.byteSum(bytes, nb); },
                [&] { return active.byteSum(bytes, nb); },
                static_cast<double>(nb) / 8.0);
        if (active.effectualOpsSum != scalar.effectualOpsSum)
            simdBench.row(
                "effectualOpsSum", true,
                [&] { return scalar.effectualOpsSum(words, nw, 64); },
                [&] { return active.effectualOpsSum(words, nw, 64); },
                static_cast<double>(nw));
        if (active.sparseBitsSum != scalar.sparseBitsSum)
            simdBench.row(
                "sparseBitsSum", true,
                [&] { return scalar.sparseBitsSum(words, nw, 64); },
                [&] { return active.sparseBitsSum(words, nw, 64); },
                static_cast<double>(nw));
        gatePassed =
            simdBench.finish(
                std::cout,
                format("SIMD dispatch (%s vs scalar, %lld-word / "
                       "%lld-byte scans)",
                       simdLevelName(active.level),
                       static_cast<long long>(nw),
                       static_cast<long long>(nb))) &&
            gatePassed;
    }

    bench::jsonFlush();
    return gatePassed ? 0 : 1;
}
