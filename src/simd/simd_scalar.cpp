/**
 * @file
 * Scalar fallback kernels: the exact per-word loops the hot paths ran
 * before the SIMD layer existed. They are the always-correct baseline
 * every vector level is fuzzed bit-identical to, and the timing baseline
 * the `BBS_SIMD=scalar` dispatch exposes — so this translation unit is
 * pinned non-auto-vectorized (CMake passes -fno-tree-vectorize here):
 * on hosts where the compiler could vectorize std::popcount loops itself
 * (e.g. -march=native with AVX512VPOPCNTDQ), the scalar level would
 * otherwise stop being a scalar baseline.
 */
#include "simd/simd.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bit_utils.hpp"

namespace bbs {
namespace detail {

namespace {

std::int64_t
popcountSumScalar(const std::uint64_t *w, std::int64_t n)
{
    std::int64_t s = 0;
    for (std::int64_t i = 0; i < n; ++i)
        s += std::popcount(w[i]);
    return s;
}

std::int64_t
popcountSumBytesScalar(const std::int8_t *p, std::int64_t n)
{
    std::int64_t s = 0;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, p + i, 8);
        s += std::popcount(word);
    }
    for (; i < n; ++i)
        s += popcount8(p[i]);
    return s;
}

std::int64_t
byteSumScalar(const std::int8_t *p, std::int64_t n)
{
    std::int64_t s = 0;
    for (std::int64_t i = 0; i < n; ++i)
        s += p[i];
    return s;
}

std::int64_t
andPopcountAccumulateScalar(const std::uint64_t *a, const std::uint64_t *w,
                            std::int64_t n)
{
    std::int64_t s = 0;
    for (std::int64_t i = 0; i < n; ++i)
        s += std::popcount(a[i] & w[i]);
    return s;
}

void
andPopcountTileScalar(const std::uint64_t *a0, const std::uint64_t *a1,
                      const std::uint64_t *w0, const std::uint64_t *w1,
                      std::int64_t n, std::int64_t out[4])
{
    // The pre-SIMD 2x1x2 micro-kernel: one depth word per step, four
    // AND+popcounts sharing the four loads.
    std::int64_t p00 = 0, p01 = 0, p10 = 0, p11 = 0;
    for (std::int64_t d = 0; d < n; ++d) {
        std::uint64_t av0 = a0[d], av1 = a1[d];
        std::uint64_t wv0 = w0[d], wv1 = w1[d];
        p00 += std::popcount(av0 & wv0);
        p01 += std::popcount(av0 & wv1);
        p10 += std::popcount(av1 & wv0);
        p11 += std::popcount(av1 & wv1);
    }
    out[0] = p00;
    out[1] = p01;
    out[2] = p10;
    out[3] = p11;
}

std::int64_t
weightedPlaneDotScalar(std::uint64_t wb, const std::uint64_t *aw)
{
    std::int64_t s = static_cast<std::int64_t>(std::popcount(wb & aw[0]));
    s += static_cast<std::int64_t>(std::popcount(wb & aw[1])) << 1;
    s += static_cast<std::int64_t>(std::popcount(wb & aw[2])) << 2;
    s += static_cast<std::int64_t>(std::popcount(wb & aw[3])) << 3;
    s += static_cast<std::int64_t>(std::popcount(wb & aw[4])) << 4;
    s += static_cast<std::int64_t>(std::popcount(wb & aw[5])) << 5;
    s += static_cast<std::int64_t>(std::popcount(wb & aw[6])) << 6;
    s -= static_cast<std::int64_t>(std::popcount(wb & aw[7])) << 7;
    return s;
}

std::int64_t
weightedPlaneSumScalar(const std::uint64_t *aw)
{
    std::int64_t s = 0;
    for (int b = 0; b < kWeightBits; ++b)
        s += columnWeight(b, kWeightBits) * std::popcount(aw[b]);
    return s;
}

std::int64_t
compressedGroupDotScalar(const std::uint64_t *planes, int bits,
                         const std::uint64_t *aw)
{
    std::int64_t v = 0;
    for (int b = 0; b < bits; ++b) {
        std::uint64_t wb = planes[b];
        if (wb == 0)
            continue; // binary pruning leaves many empty planes
        v += columnWeight(b, bits) * weightedPlaneDotScalar(wb, aw);
    }
    return v;
}

void
compressedGemmTileScalar(const CompressedRowRef w[2],
                         const WindowPairRef a[2], std::int64_t numGroups,
                         int stride, int planeWords, std::int32_t out[8])
{
    // The oracle: the per-(group, sample) formula, written out over the
    // 32-bit plane words.
    for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
            for (int s = 0; s < 2; ++s) {
                std::int64_t acc = 0;
                for (std::int64_t g = 0; g < numGroups; ++g) {
                    const std::uint32_t *planes =
                        w[i].planes + g * stride * planeWords;
                    int bits = w[i].bits[g];
                    std::int64_t v = 0;
                    for (int word = 0; word < planeWords; ++word) {
                        const std::uint32_t *aw =
                            a[j].windows + (g * planeWords + word) * 16 +
                            8 * s;
                        for (int b = 0; b < bits; ++b) {
                            std::uint32_t wb = planes[b * planeWords + word];
                            if (wb == 0)
                                continue; // pruning leaves empty planes
                            std::int64_t d = 0;
                            for (int c = 0; c < kWeightBits; ++c)
                                d += columnWeight(c, kWeightBits) *
                                     std::popcount(wb & aw[c]);
                            v += columnWeight(b, bits) * d;
                        }
                    }
                    acc += v * (std::int64_t{1} << w[i].shifts[g]) +
                           static_cast<std::int64_t>(w[i].constants[g]) *
                               a[j].sums[2 * g + s];
                }
                out[4 * i + 2 * j + s] = static_cast<std::int32_t>(acc);
            }
        }
    }
}

std::int64_t
effectualOpsSumScalar(const std::uint64_t *w, std::int64_t n, int groupSize)
{
    std::int64_t s = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        int ones = std::popcount(w[i]);
        s += std::min(ones, groupSize - ones);
    }
    return s;
}

std::int64_t
sparseBitsSumScalar(const std::uint64_t *w, std::int64_t n, int groupSize)
{
    std::int64_t s = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        int ones = std::popcount(w[i]);
        s += std::max(ones, groupSize - ones);
    }
    return s;
}

} // namespace

const SimdKernels &
scalarKernels()
{
    static const SimdKernels table = {
        SimdLevel::Scalar,
        &popcountSumScalar,
        &popcountSumBytesScalar,
        &byteSumScalar,
        &andPopcountAccumulateScalar,
        &andPopcountTileScalar,
        &weightedPlaneDotScalar,
        &weightedPlaneSumScalar,
        &compressedGroupDotScalar,
        &compressedGemmTileScalar,
        &effectualOpsSumScalar,
        &sparseBitsSumScalar,
    };
    return table;
}

} // namespace detail
} // namespace bbs
