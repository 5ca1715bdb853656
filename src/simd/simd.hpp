/**
 * @file
 * Runtime-dispatched SIMD kernels for the bitwise AND+popcount substrate.
 *
 * Every hot path of the library — the dense 2x1x2 GEMM tile, the
 * compressed-domain plane products, the BBS sparsity / effectual-ops
 * scans, and the sum-of-activations reductions — bottoms out in a handful
 * of word-level kernel shapes. This layer provides those shapes as
 * function-pointer tables with three implementations:
 *
 *  - **scalar**: the pre-SIMD per-word loops, kept as the always-correct
 *    fallback (and pinned non-auto-vectorized so speedup comparisons
 *    measure vectorization, not compiler mood);
 *  - **avx2**: 256-bit kernels using the nibble-lookup (pshufb) popcount
 *    with deferred byte->qword reduction (Harley-Seal-style accumulation);
 *  - **avx512**: 512-bit kernels using VPOPCNTDQ where the CPU has it.
 *
 * The active level is resolved once at startup: the highest level the CPU
 * supports, optionally lowered by the `BBS_SIMD=scalar|avx2|avx512`
 * environment variable (a request *above* what the CPU supports falls
 * back to the best supported level with a warning, so CI matrices degrade
 * gracefully on older runners). Tests and benches switch levels at
 * runtime via setSimdLevel().
 *
 * Every kernel computes an exact integer, so all three levels are
 * bit-identical by construction; tests/test_simd.cpp fuzzes that pin.
 * Kernels tolerate any pointer alignment (vector paths use unaligned
 * loads); the plane containers guarantee 64-byte alignment so the loads
 * never straddle cache lines in the hot paths.
 */
#ifndef BBS_SIMD_SIMD_HPP
#define BBS_SIMD_SIMD_HPP

#include <cstdint>

namespace bbs {

/** Dispatch levels, ordered by capability. */
enum class SimdLevel
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

struct PackedGroup; // core/bitplane.hpp

/**
 * One BBS-compressed weight row as the compressed GEMM's stage 2 reads
 * it: per group, the packed stored-column planes, the pruned-column
 * shift and the BBS constant (gemm/compressed_gemm.hpp's
 * CompressedRowPlanes arrays at the row's offset).
 */
struct CompressedRowRef
{
    const PackedGroup *groups = nullptr;
    const std::int8_t *shifts = nullptr;
    const std::int32_t *constants = nullptr;
};

/**
 * One sample's stage-1 staging: per group, its 8-word activation window
 * (plane c = activation bit c over the group's columns) and its sum of
 * activations.
 */
struct WindowRowRef
{
    const std::uint64_t *windows = nullptr;
    const std::int64_t *sums = nullptr;
};

/**
 * One implementation of every kernel shape. All sums are exact int64
 * arithmetic — identical across levels for identical inputs.
 */
struct SimdKernels
{
    SimdLevel level = SimdLevel::Scalar;

    /** Sum of popcount(w[i]) over @p n words. */
    std::int64_t (*popcountSum)(const std::uint64_t *w, std::int64_t n);

    /** Sum of popcount over @p n bytes (any alignment, any length). */
    std::int64_t (*popcountSumBytes)(const std::int8_t *p, std::int64_t n);

    /** Sum of @p n signed bytes (the sum-of-activations reduction). */
    std::int64_t (*byteSum)(const std::int8_t *p, std::int64_t n);

    /** Sum of popcount(a[i] & w[i]) over @p n words. */
    std::int64_t (*andPopcountAccumulate)(const std::uint64_t *a,
                                          const std::uint64_t *w,
                                          std::int64_t n);

    /**
     * The dense GEMM register tile: out[0..3] = sum over i of
     * popcount(a0[i]&w0[i]), (a0&w1), (a1&w0), (a1&w1) — four AND+popcount
     * streams sharing the four loads.
     */
    void (*andPopcountTile)(const std::uint64_t *a0, const std::uint64_t *a1,
                            const std::uint64_t *w0, const std::uint64_t *w1,
                            std::int64_t n, std::int64_t out[4]);

    /**
     * The 8-plane weighted window reduction against a weight-plane word:
     * sum over activation planes c of 2^c * popcount(wb & aw[c]), the
     * sign plane (c = 7) weighing -2^7. The single-window building
     * block: the library's hot paths run its amortized forms
     * (compressedGroupDot over a group's planes, weightedPlaneSumBatch
     * over a row of windows), while this slot stays dispatched as the
     * reference shape the tests and benches pin those forms against.
     */
    std::int64_t (*weightedPlaneDot)(std::uint64_t wb,
                                     const std::uint64_t *aw);

    /**
     * weightedPlaneDot with wb = all-ones: the value sum encoded by eight
     * aligned window planes (bit_serial_matrix's planeWindowSum).
     */
    std::int64_t (*weightedPlaneSum)(const std::uint64_t *aw);

    /**
     * weightedPlaneSum over @p count consecutive 8-word windows:
     * out[i] = weightedPlaneSum(aw + 8 * i). The compressed GEMM's
     * stage 1 computes a whole row of sum-of-activation terms per call,
     * amortizing the call and reduction overhead a single 8-word window
     * cannot.
     */
    void (*weightedPlaneSumBatch)(const std::uint64_t *aw,
                                  std::int64_t count, std::int64_t *out);

    /**
     * Whole compressed-group dot: sum over stored weight planes b <
     * @p bits of columnWeight(b, bits) * weightedPlaneDot(planes[b], aw)
     * — the complete stored-column contribution of one BBS group to one
     * sample, reduced in one call. The KV cache scores and weighs its
     * plane groups with it.
     */
    std::int64_t (*compressedGroupDot)(const std::uint64_t *planes,
                                       int bits, const std::uint64_t *aw);

    /**
     * The compressed GEMM's stage-2 register tile: two weight rows x two
     * samples over @p numGroups groups. out[2 * i + j] is the exact
     * sum over groups g of
     *   (compressedGroupDot(w[i] group g, a[j] window g) << w[i] shift g)
     *   + w[i] constant g * a[j] sum g,
     * the rows sharing every window load and the samples every weight
     * plane. Vector levels keep each output's eight per-activation-plane
     * partial sums in lanes across all groups and weigh and reduce them
     * once. Edge tiles pass a row or sample twice (w[1] == w[0] or
     * a[1] == a[0]); the duplicate outputs are simply equal.
     */
    void (*compressedGemmTile)(const CompressedRowRef w[2],
                               const WindowRowRef a[2],
                               std::int64_t numGroups, std::int64_t out[4]);

    /**
     * BBS effectual-ops scan: sum over words of min(ones, groupSize -
     * ones). Plane words must respect the clean-planes invariant
     * (popcount <= groupSize).
     */
    std::int64_t (*effectualOpsSum)(const std::uint64_t *w, std::int64_t n,
                                    int groupSize);

    /** BBS sparse-bits scan: sum over words of max(ones, groupSize - ones). */
    std::int64_t (*sparseBitsSum)(const std::uint64_t *w, std::int64_t n,
                                  int groupSize);
};

/** "scalar" / "avx2" / "avx512". */
const char *simdLevelName(SimdLevel level);

/** Highest level this CPU can execute (detected once via CPUID). */
SimdLevel maxSupportedSimdLevel();

/** True when @p level is at or below maxSupportedSimdLevel(). */
bool simdLevelSupported(SimdLevel level);

/**
 * The level the kernel table currently dispatches to. Initially the
 * highest supported level, lowered by BBS_SIMD when set (an unsupported
 * request falls back to the best supported level with a warning).
 */
SimdLevel activeSimdLevel();

/**
 * Switch the active kernel table (tests/benches comparing levels).
 * Requires simdLevelSupported(level). Takes effect for subsequent
 * simdKernels() calls; not intended to race in-flight kernels.
 */
void setSimdLevel(SimdLevel level);

/** The active kernel table (one relaxed atomic load). */
const SimdKernels &simdKernels();

/** A specific level's table; requires simdLevelSupported(level). */
const SimdKernels &simdKernelsFor(SimdLevel level);

} // namespace bbs

#endif // BBS_SIMD_SIMD_HPP
