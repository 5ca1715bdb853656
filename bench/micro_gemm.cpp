/**
 * @file
 * Batched GEMM engine vs. the per-sample compressed-dot loop.
 *
 * The same BBS-compressed layer (K=256 channels, C=512 features, group
 * 32, 4 pruned columns) is executed over batches of {1, 16, 64, 256}
 * samples two ways:
 *
 *  - per-dot: the pre-GEMM inference inner loop — one
 *    engine::dotCompressed() per (sample, output channel), repacking each
 *    group's planes per call;
 *  - GEMM: BitSerialMatrix::pack once per batch +
 *    engine::matmulCompressed() (packing time included — this is the
 *    end-to-end serving cost).
 *
 * Outputs are checked for exact equality, a throughput table is printed,
 * and the run fails unless the GEMM engine is >= 4x faster at every
 * batch size >= 64 (the CI Release gate).
 *
 * A second section autotunes the bench shape in-process, deploys the
 * resulting tuning cache into one engine::Session and pins a second
 * Session to the hand heuristic (tuneCachePath = "none"), then runs the
 * same plan at batches {1, 8, 64, 256} through both: outputs must be
 * bit-identical and the tuned geomean must be >= 1.0x the heuristic
 * (measured decisions are never allowed to lose to the hand-rolled
 * selection rules — the CI autotune-job gate).
 *
 * A third section compares the SIMD dispatch levels on the GEMM-side
 * kernels (src/simd/): the 2x1x2 AND+popcount tile, the plain
 * AND+popcount stream, the compressed-group dot and the compressed
 * GEMM's stage-2 tile are timed at the active level vs the
 * BBS_SIMD=scalar table on identical L1-resident data (gated at
 * bench_common's per-level geomean target), and both whole GEMMs are
 * re-run under scalar dispatch to report the end-to-end effect with
 * bit-identical outputs.
 */
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>

#include "bench/bench_common.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "engine/engine.hpp"
#include "gemm/compressed_gemm.hpp"
#include "gemm/gemm.hpp"
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
randomCodes(std::int64_t rows, std::int64_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor t(Shape{rows, cols});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::jsonInit("micro_gemm", argc, argv);
    bench::printHeader(
        "micro_gemm",
        "the batched compressed-domain GEMM engine is >= 4x faster than "
        "the per-sample dotCompressed loop at batch >= 64");

    const std::int64_t k = 256;        // output channels
    const std::int64_t c = 512;        // input features
    const std::int64_t groupSize = 32;
    const int targetColumns = 4;

    Int8Tensor codes = randomCodes(k, c, 0x9e3779b9);
    CompressedTensor ct = CompressedTensor::compress(
        codes, groupSize, targetColumns, PruneStrategy::ZeroPointShifting);
    CompressedRowPlanes planes = CompressedRowPlanes::prepare(ct);
    const std::vector<CompressedGroup> &groups = ct.groups();
    const std::int64_t groupsPerRow = c / groupSize;

    // The pre-PR2 inference inner loop, preserved verbatim as baseline.
    auto perDotLoop = [&](const Int8Tensor &acts, Int32Tensor &out) {
        std::int64_t n = acts.shape().dim(0);
        parallelFor(k, [&](std::int64_t o) {
            for (std::int64_t row = 0; row < n; ++row) {
                std::int64_t acc = 0;
                std::int64_t begin = 0;
                for (std::int64_t g = 0; g < groupsPerRow; ++g) {
                    const CompressedGroup &cg =
                        groups[static_cast<std::size_t>(
                            o * groupsPerRow + g)];
                    std::span<const std::int8_t> a(&acts.at(row, begin),
                                                   cg.stored.size());
                    acc += engine::dotCompressed(cg, a).value;
                    begin += static_cast<std::int64_t>(cg.stored.size());
                }
                out.at(row, o) = static_cast<std::int32_t>(acc);
            }
        }, 2);
    };

    Table table({"batch", "per-dot", "GEMM", "speedup"});
    bool gatePassed = true;
    for (std::int64_t batch : {1, 16, 64, 256}) {
        Int8Tensor acts = randomCodes(batch, c, 0xabcd00 + batch);
        const double macs =
            static_cast<double>(batch) * static_cast<double>(k) *
            static_cast<double>(c);

        Int32Tensor refOut(Shape{batch, k});
        double dotS = secondsOf([&] { perDotLoop(acts, refOut); }, 5);

        Int32Tensor gemmOut;
        double gemmS = secondsOf(
            [&] {
                gemmOut = engine::matmulCompressed(
                    planes, BitSerialMatrix::pack(acts));
            },
            5);

        for (std::int64_t i = 0; i < refOut.numel(); ++i)
            if (gemmOut.flat(i) != refOut.flat(i))
                BBS_PANIC("GEMM/per-dot mismatch at batch ", batch,
                          ", i=", i);

        double speedup = dotS / gemmS;
        if (batch >= 64 && speedup < 4.0)
            gatePassed = false;
        table.addRow({format("%lld", static_cast<long long>(batch)),
                      format("%.1f MMAC/s", macs / dotS / 1e6),
                      format("%.1f MMAC/s", macs / gemmS / 1e6),
                      bench::times(speedup)});
        bench::jsonAdd("gemmCompressed-vs-perdot",
                       format("batch=%lld", static_cast<long long>(batch)),
                       {{"perdot_mmacs", macs / dotS / 1e6},
                        {"gemm_mmacs", macs / gemmS / 1e6},
                        {"speedup", speedup}});
    }
    table.print(std::cout);

    // Context row: the dense bit-serial kernel vs the naive int8 GEMM.
    {
        const std::int64_t batch = 64;
        Int8Tensor acts = randomCodes(batch, c, 0xd1ce);
        BitSerialMatrix wp = BitSerialMatrix::pack(codes);
        Int32Tensor bsOut, refOut;
        double bsS = secondsOf(
            [&] {
                bsOut = engine::matmulBitSerial(
                    BitSerialMatrix::pack(acts), wp);
            },
            5);
        double refS = secondsOf(
            [&] { refOut = gemmReferenceBatch(acts, codes); }, 5);
        for (std::int64_t i = 0; i < refOut.numel(); ++i)
            if (bsOut.flat(i) != refOut.flat(i))
                BBS_PANIC("dense bit-serial GEMM mismatch at i=", i);
        std::cout << "\ndense matmulBitSerial vs naive reference at batch "
                  << batch << ": " << bench::times(refS / bsS) << "\n";
    }

    std::cout << (gatePassed
                      ? "\nGEMM speedup target (>= 4x at batch >= 64) met\n"
                      : "\nGEMM speedup BELOW the 4x target at batch >= "
                        "64!\n");

    // ---- Autotuned vs heuristic plan selection: measure this host's
    //      winners for the bench shape, deploy them into one Session,
    //      pin a second to the hand heuristic, and require the tuned
    //      plans to be bit-identical and never slower on geomean.
    {
        engine::AutotuneOptions topts;
        topts.reps = 3;
        topts.groupSize = groupSize;
        topts.targetColumns = targetColumns;
        std::vector<engine::TuneShape> shapes;
        for (std::int64_t batch : {1, 8, 64, 256})
            shapes.push_back({k, c, batch});
        engine::TuningCache cache = engine::autotuneShapes(shapes, topts);

        std::string cachePath =
            (std::filesystem::temp_directory_path() /
             "bbs_micro_gemm_tuning.json")
                .string();
        BBS_REQUIRE(cache.save(cachePath),
                    "cannot write the tuning cache to ", cachePath);

        engine::EngineConfig tunedCfg;
        tunedCfg.tuneCachePath = cachePath;
        engine::Session tuned(tunedCfg);
        BBS_REQUIRE(tuned.tuningCache() != nullptr,
                    "tuned Session failed to load ", cachePath);
        engine::EngineConfig heurCfg;
        heurCfg.tuneCachePath = "none"; // heuristic-only baseline
        engine::Session heuristic(heurCfg);

        engine::PackOptions popts;
        popts.groupSize = groupSize;
        popts.targetColumns = targetColumns;
        engine::PackedOperand wTuned = tuned.pack(codes, popts);
        engine::PackedOperand wHeur = heuristic.pack(codes, popts);

        struct TunedRow
        {
            std::int64_t batch = 0;
            double heurMmacs = 0.0;
            double tunedMmacs = 0.0;
            double ratio = 0.0;
        };
        struct TunedMeasured
        {
            std::vector<TunedRow> rows;
            double geomean = 0.0;
        };
        auto measureTuned = [&]() -> TunedMeasured {
            TunedMeasured m;
            double logSum = 0.0;
            for (std::int64_t batch : {1, 8, 64, 256}) {
                Int8Tensor acts = randomCodes(batch, c, 0x7e57 + batch);
                engine::ShapeHints hints;
                hints.expectedBatch = batch;
                engine::MatmulPlan planTuned = tuned.plan(wTuned, hints);
                engine::MatmulPlan planHeur =
                    heuristic.plan(wHeur, hints);
                Int32Tensor outTuned(Shape{batch, k});
                Int32Tensor outHeur(Shape{batch, k});
                double tunedS = secondsOf(
                    [&] { planTuned.run(acts, outTuned); }, 5);
                double heurS = secondsOf(
                    [&] { planHeur.run(acts, outHeur); }, 5);
                for (std::int64_t i = 0; i < outHeur.numel(); ++i)
                    if (outTuned.flat(i) != outHeur.flat(i))
                        BBS_PANIC("tuned/heuristic mismatch at batch ",
                                  batch, ", i=", i);
                const double macs = static_cast<double>(batch) *
                                    static_cast<double>(k) *
                                    static_cast<double>(c);
                TunedRow row;
                row.batch = batch;
                row.heurMmacs = macs / heurS / 1e6;
                row.tunedMmacs = macs / tunedS / 1e6;
                row.ratio = heurS / tunedS;
                logSum += std::log(row.ratio);
                m.rows.push_back(row);
            }
            m.geomean = std::exp(logSum / 4.0);
            return m;
        };

        // The gate compares two timing ratios on a shared machine;
        // retry a miss up to twice and keep the best attempt (the
        // micro_serve pattern) so one scheduler hiccup cannot fail CI.
        TunedMeasured m = measureTuned();
        for (int attempt = 1; attempt < 3 && m.geomean < 1.0; ++attempt) {
            TunedMeasured again = measureTuned();
            if (again.geomean > m.geomean)
                m = again;
        }

        Table tt({"batch", "heuristic plan", "tuned plan", "tuned/heur"});
        for (const TunedRow &row : m.rows) {
            const engine::TuneEntry *e = cache.lookup(
                k, c, row.batch, 8.0 - targetColumns,
                simdLevelName(activeSimdLevel()), maxWorkerThreads());
            tt.addRow({format("%lld", static_cast<long long>(row.batch)),
                       format("%.1f MMAC/s", row.heurMmacs),
                       format("%.1f MMAC/s (%s)", row.tunedMmacs,
                              e ? engine::planKindName(e->kind) : "?"),
                       bench::times(row.ratio)});
            bench::jsonAdd(
                "tuned-vs-heuristic",
                format("batch=%lld", static_cast<long long>(row.batch)),
                {{"heuristic_mmacs", row.heurMmacs},
                 {"tuned_mmacs", row.tunedMmacs},
                 {"ratio", row.ratio}});
        }
        std::cout << "\nautotuned vs heuristic plan selection "
                     "(bit-identical; cache: "
                  << cachePath << ")\n";
        tt.print(std::cout);
        std::cout << "tuned/heuristic geomean: "
                  << bench::times(m.geomean) << "\n";
        bench::jsonAdd("tuned-vs-heuristic", "geomean",
                       {{"geomean", m.geomean}});
        if (m.geomean < 1.0) {
            std::cout << "autotuned plans LOST to the heuristic on "
                         "geomean!\n";
            gatePassed = false;
        }
    }

    // ---- SIMD dispatch: the GEMM-side kernels at the active level vs
    //      the scalar table, on identical L1-resident data.
    {
        const SimdKernels &active = simdKernels();
        const SimdKernels &scalar = simdKernelsFor(SimdLevel::Scalar);
        const std::int64_t nw = 512; // one depth block: 4 KiB per stream
        Rng rng(0x51d);
        std::vector<std::uint64_t> a0(nw), a1(nw), w0(nw), w1(nw);
        for (auto *buf : {&a0, &a1, &w0, &w1})
            for (auto &w : *buf)
                w = rng.next();
        // Compressed groups: 6 stored planes (clean-planes invariant:
        // planes at and above `bits` stay zero) over 8-plane windows.
        const std::int64_t numGroups = 64;
        const int storedBits = 6;
        std::vector<std::uint64_t> gPlanes(
            static_cast<std::size_t>(numGroups * kWeightBits), 0);
        for (std::int64_t g = 0; g < numGroups; ++g)
            for (int b = 0; b < storedBits; ++b)
                gPlanes[static_cast<std::size_t>(g * kWeightBits + b)] =
                    rng.next() & rng.next(); // pruning-style sparsity
        std::vector<std::uint64_t> windows(
            static_cast<std::size_t>(numGroups * kWeightBits));
        for (auto &w : windows)
            w = rng.next();
        // The stage-2 tile's operands as the GEMM builds them: two
        // compressed rows of 64 groups of 32 at two pruned columns (6
        // stored planes, stride 6), and two sample pairs' random 16-lane
        // window blocks with their sums of activations.
        CompressedRowPlanes tilePlanes = CompressedRowPlanes::compress(
            randomCodes(2, numGroups * 32, 0x711e), 32, 2,
            PruneStrategy::ZeroPointShifting);
        std::vector<std::uint32_t> tileWindows(
            static_cast<std::size_t>(2 * numGroups * 16));
        std::vector<std::int32_t> tileSums(
            static_cast<std::size_t>(2 * numGroups * 2), 0);
        for (std::int64_t b = 0; b < 2 * numGroups; ++b)
            for (int s = 0; s < 2; ++s)
                for (int ch = 0; ch < kWeightBits; ++ch) {
                    auto lane = static_cast<std::uint32_t>(rng.next());
                    tileWindows[static_cast<std::size_t>(16 * b + 8 * s +
                                                         ch)] = lane;
                    tileSums[static_cast<std::size_t>(2 * b + s)] +=
                        static_cast<std::int32_t>(
                            columnWeight(ch, kWeightBits) *
                            std::popcount(lane));
                }
        auto tileRow = [&](std::int64_t o) {
            return CompressedRowRef{
                tilePlanes.groupPlanes(o, 0),
                tilePlanes.bits().data() + o * numGroups,
                tilePlanes.shifts().data() + o * numGroups,
                tilePlanes.constants().data() + o * numGroups};
        };
        const CompressedRowRef tileRows[2] = {tileRow(0), tileRow(1)};
        const WindowPairRef tilePairs[2] = {
            {tileWindows.data(), tileSums.data()},
            {tileWindows.data() + numGroups * 16,
             tileSums.data() + numGroups * 2}};
        const int tileStride = tilePlanes.stride();
        // `gated` rows are the stream kernels whose throughput the
        // tentpole targets: they enter the geomean gate. Window/group
        // kernels (one 8-word window per logical op) are horizontal-
        // reduce-bound — reported, checked bit-identical, and held to
        // bench_common's no-pessimization floor instead.
        bench::SimdDispatchBench simdBench;
        auto simdRow = [&](const char *name, bool gated, auto scalarFn,
                           auto activeFn, double wordsPerCall) {
            simdBench.row(name, gated, scalarFn, activeFn, wordsPerCall);
        };

        if (active.andPopcountTile != scalar.andPopcountTile)
            simdRow(
                "andPopcountTile", true,
                [&] {
                    std::int64_t p[4];
                    scalar.andPopcountTile(a0.data(), a1.data(), w0.data(),
                                           w1.data(), nw, p);
                    return p[0] + p[1] + p[2] + p[3];
                },
                [&] {
                    std::int64_t p[4];
                    active.andPopcountTile(a0.data(), a1.data(), w0.data(),
                                           w1.data(), nw, p);
                    return p[0] + p[1] + p[2] + p[3];
                },
                static_cast<double>(4 * nw));
        if (active.andPopcountAccumulate != scalar.andPopcountAccumulate)
            simdRow(
                "andPopcountAccumulate", true,
                [&] {
                    return scalar.andPopcountAccumulate(a0.data(),
                                                        w0.data(), nw);
                },
                [&] {
                    return active.andPopcountAccumulate(a0.data(),
                                                        w0.data(), nw);
                },
                static_cast<double>(nw));
        if (active.compressedGroupDot != scalar.compressedGroupDot)
            simdRow(
                "compressedGroupDot", false,
                [&] {
                    std::int64_t s = 0;
                    for (std::int64_t g = 0; g < numGroups; ++g)
                        s += scalar.compressedGroupDot(
                            gPlanes.data() + g * kWeightBits, storedBits,
                            windows.data() + g * kWeightBits);
                    return s;
                },
                [&] {
                    std::int64_t s = 0;
                    for (std::int64_t g = 0; g < numGroups; ++g)
                        s += active.compressedGroupDot(
                            gPlanes.data() + g * kWeightBits, storedBits,
                            windows.data() + g * kWeightBits);
                    return s;
                },
                static_cast<double>(numGroups * kWeightBits));
        if (active.compressedGemmTile != scalar.compressedGemmTile)
            simdRow(
                "compressedGemmTile", false,
                [&] {
                    std::int32_t out[8] = {};
                    scalar.compressedGemmTile(tileRows, tilePairs,
                                              numGroups, tileStride, 1,
                                              out);
                    std::int64_t sum = 0;
                    for (std::int32_t v : out)
                        sum += v;
                    return sum;
                },
                [&] {
                    std::int32_t out[8] = {};
                    active.compressedGemmTile(tileRows, tilePairs,
                                              numGroups, tileStride, 1,
                                              out);
                    std::int64_t sum = 0;
                    for (std::int32_t v : out)
                        sum += v;
                    return sum;
                },
                // 32-bit weight plane words x 16-lane blocks, as
                // 64-bit-word equivalents: 2 rows x 2 pairs x groups x
                // stride x 8.
                static_cast<double>(2 * 2 * numGroups * tileStride * 8));

        gatePassed =
            simdBench.finish(
                std::cout,
                format("SIMD dispatch (%s vs scalar, %lld-word streams)",
                       simdLevelName(active.level),
                       static_cast<long long>(nw))) &&
            gatePassed;

        // End-to-end: both GEMMs under scalar dispatch vs the active
        // level, outputs pinned bit-identical.
        if (active.level != SimdLevel::Scalar) {
            const std::int64_t batch = 64;
            Int8Tensor acts = randomCodes(batch, c, 0xe2e);
            BitSerialMatrix ap = BitSerialMatrix::pack(acts);
            BitSerialMatrix wp = BitSerialMatrix::pack(codes);
            Int32Tensor denseActive, denseScalar;
            Int32Tensor compActive, compScalar;
            double denseActiveS = secondsOf(
                [&] { denseActive = engine::matmulBitSerial(ap, wp); }, 5);
            double compActiveS = secondsOf(
                [&] { compActive = engine::matmulCompressed(planes, ap); },
                5);
            setSimdLevel(SimdLevel::Scalar);
            double denseScalarS = secondsOf(
                [&] { denseScalar = engine::matmulBitSerial(ap, wp); }, 5);
            double compScalarS = secondsOf(
                [&] { compScalar = engine::matmulCompressed(planes, ap); },
                5);
            setSimdLevel(active.level);
            for (std::int64_t i = 0; i < denseActive.numel(); ++i)
                if (denseActive.flat(i) != denseScalar.flat(i))
                    BBS_PANIC("matmulBitSerial dispatch mismatch at i=", i);
            for (std::int64_t i = 0; i < compActive.numel(); ++i)
                if (compActive.flat(i) != compScalar.flat(i))
                    BBS_PANIC("matmulCompressed dispatch mismatch at i=",
                              i);
            const double macs = static_cast<double>(batch) *
                                static_cast<double>(k) *
                                static_cast<double>(c);
            std::cout << "\nend-to-end at batch 64 (bit-identical): "
                      << "gemmBitSerial "
                      << bench::times(denseScalarS / denseActiveS)
                      << ", gemmCompressed "
                      << bench::times(compScalarS / compActiveS)
                      << " over scalar dispatch\n";
            bench::jsonAdd("gemmBitSerial", "dispatch-vs-scalar",
                           {{"scalar_mmacs", macs / denseScalarS / 1e6},
                            {"dispatched_mmacs", macs / denseActiveS / 1e6},
                            {"speedup", denseScalarS / denseActiveS}});
            bench::jsonAdd("gemmCompressed", "dispatch-vs-scalar",
                           {{"scalar_mmacs", macs / compScalarS / 1e6},
                            {"dispatched_mmacs", macs / compActiveS / 1e6},
                            {"speedup", compScalarS / compActiveS}});
        }
    }

    bench::jsonFlush();
    return gatePassed ? 0 : 1;
}
