#include "gemm/gemm.hpp"

#include <bit>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "simd/simd.hpp"

namespace bbs {

namespace {

/**
 * The generic (non-2x2) register tile: one activation row x one weight
 * row per step through the plain AND+popcount stream. Kept as the
 * autotuner's alternative tile shape — it loads each plane pair twice as
 * often as the 2x1x2 micro-kernel but has no degenerate-edge handling,
 * which can win on very small row counts.
 */
void
gemmBitSerial1x1(const BitSerialMatrix &activations,
                 const BitSerialMatrix &weights, Int32Tensor &out,
                 std::int64_t depthBlockWords)
{
    std::int64_t n = activations.rows();
    std::int64_t k = weights.rows();
    std::int64_t depthWords = activations.usedColWords();
    const SimdKernels &simd = simdKernels();
    parallelFor(n, [&](std::int64_t r) {
        for (std::int64_t o = 0; o < k; ++o) {
            std::int64_t acc = 0;
            for (std::int64_t d0 = 0; d0 < depthWords;
                 d0 += depthBlockWords) {
                std::int64_t len =
                    std::min(depthBlockWords, depthWords - d0);
                for (int ba = 0; ba < kWeightBits; ++ba) {
                    const std::uint64_t *a =
                        activations.rowPlane(ba, r) + d0;
                    std::int64_t sa = columnWeight(ba, kWeightBits);
                    for (int bw = 0; bw < kWeightBits; ++bw) {
                        const std::uint64_t *w =
                            weights.rowPlane(bw, o) + d0;
                        acc += sa * columnWeight(bw, kWeightBits) *
                               simd.andPopcountAccumulate(a, w, len);
                    }
                }
            }
            out.at(r, o) = static_cast<std::int32_t>(acc);
        }
    }, 1);
}

} // namespace

Int32Tensor
gemmReference(const Int8Tensor &weights, const Int8Tensor &activations)
{
    std::int64_t k = weights.shape().dim(0);
    std::int64_t c = weights.shape().dim(1);
    BBS_REQUIRE(activations.shape().dim(0) == c,
                "activation rows must equal weight columns");
    std::int64_t n = activations.shape().dim(1);
    Int32Tensor out(Shape{k, n});
    parallelFor(k, [&](std::int64_t row) {
        for (std::int64_t col = 0; col < n; ++col) {
            std::int64_t acc = 0;
            for (std::int64_t i = 0; i < c; ++i)
                acc += static_cast<std::int64_t>(weights.at(row, i)) *
                       static_cast<std::int64_t>(activations.at(i, col));
            out.at(row, col) = static_cast<std::int32_t>(acc);
        }
    }, 1);
    return out;
}

Int32Tensor
gemmReferenceBatch(const Int8Tensor &activations, const Int8Tensor &weights)
{
    std::int64_t n = activations.shape().dim(0);
    std::int64_t c = activations.shape().dim(1);
    BBS_REQUIRE(weights.shape().dim(1) == c,
                "weight depth must equal activation depth");
    std::int64_t k = weights.shape().dim(0);
    Int32Tensor out(Shape{n, k});
    parallelFor(n, [&](std::int64_t row) {
        for (std::int64_t o = 0; o < k; ++o) {
            std::int64_t acc = 0;
            for (std::int64_t i = 0; i < c; ++i)
                acc += static_cast<std::int64_t>(activations.at(row, i)) *
                       static_cast<std::int64_t>(weights.at(o, i));
            out.at(row, o) = static_cast<std::int32_t>(acc);
        }
    }, 1);
    return out;
}

void
detail::gemmBitSerialKernel(const BitSerialMatrix &activations,
                            const BitSerialMatrix &weights,
                            Int32Tensor &out,
                            const engine::TuningParams &tuning)
{
    BBS_REQUIRE(activations.cols() == weights.cols(),
                "GEMM depth mismatch: ", activations.cols(), " vs ",
                weights.cols());
    BBS_REQUIRE(activations.cols() <= kMaxGemmDepth,
                "GEMM depth ", activations.cols(),
                " can overflow the INT32 outputs (max ", kMaxGemmDepth,
                ")");
    std::int64_t n = activations.rows();
    std::int64_t k = weights.rows();
    // Bound compute by the words that hold columns: the cache-line
    // padding beyond them is all zero bits (up to 7 wasted words per
    // row plane for narrow matrices).
    std::int64_t depthWords = activations.usedColWords();
    ensureOutputShape(out, n, k);

    // Depth words per cache block: the four resident plane rows
    // (2 activation + 2 weight) are re-streamed 64 times (8x8 bit-plane
    // pairs) per block, so the block keeps them inside L1. The default
    // (depthBlockWords = 0) derives from the detected cache topology —
    // 512 words (16 KiB resident) on a 32 KiB L1d.
    std::int64_t depthBlock = tuning.resolvedDepthBlockWords();

    if (tuning.tileRows < 2 || tuning.tileCols < 2) {
        gemmBitSerial1x1(activations, weights, out, depthBlock);
        return;
    }

    // Row tiles of two samples; each tile walks every weight-row pair so
    // output rows are written by exactly one task. The kernel table is
    // resolved once out here, not per tile.
    const SimdKernels &simd = simdKernels();
    std::int64_t rowTiles = (n + 1) / 2;
    parallelFor(rowTiles, [&](std::int64_t t) {
        std::int64_t r0 = 2 * t;
        std::int64_t r1 = std::min(r0 + 1, n - 1); // degenerate last tile
        for (std::int64_t o0 = 0; o0 < k; o0 += 2) {
            std::int64_t o1 = std::min(o0 + 1, k - 1);
            std::int64_t acc00 = 0, acc01 = 0, acc10 = 0, acc11 = 0;
            for (std::int64_t d0 = 0; d0 < depthWords;
                 d0 += depthBlock) {
                std::int64_t len = std::min(depthBlock,
                                            depthWords - d0);
                for (int ba = 0; ba < kWeightBits; ++ba) {
                    const std::uint64_t *a0 =
                        activations.rowPlane(ba, r0) + d0;
                    const std::uint64_t *a1 =
                        activations.rowPlane(ba, r1) + d0;
                    std::int64_t sa = columnWeight(ba, kWeightBits);
                    for (int bw = 0; bw < kWeightBits; ++bw) {
                        const std::uint64_t *w0 =
                            weights.rowPlane(bw, o0) + d0;
                        const std::uint64_t *w1 =
                            weights.rowPlane(bw, o1) + d0;
                        // 2x1x2 micro-kernel: four AND+popcount streams
                        // sharing the four plane loads, dispatched to
                        // the active SIMD level.
                        std::int64_t p[4];
                        simd.andPopcountTile(a0, a1, w0, w1, len, p);
                        std::int64_t sig =
                            sa * columnWeight(bw, kWeightBits);
                        acc00 += sig * p[0];
                        acc01 += sig * p[1];
                        acc10 += sig * p[2];
                        acc11 += sig * p[3];
                    }
                }
            }
            out.at(r0, o0) = static_cast<std::int32_t>(acc00);
            if (o1 != o0)
                out.at(r0, o1) = static_cast<std::int32_t>(acc01);
            if (r1 != r0) {
                out.at(r1, o0) = static_cast<std::int32_t>(acc10);
                if (o1 != o0)
                    out.at(r1, o1) = static_cast<std::int32_t>(acc11);
            }
        }
    }, 1);
}

} // namespace bbs
