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
 * Most shapes work on 64-bit plane words. The compressed GEMM's stage-2
 * tile works on 32-bit plane words in int32 lanes (VPOPCNTD at avx512;
 * the pshufb byte counts reduced to 32-bit lanes at avx2), because a
 * group of up to 32 weights fills exactly one such word.
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

/**
 * One BBS-compressed weight row as the compressed GEMM's stage 2 reads
 * it (gemm/compressed_gemm.hpp's CompressedRowPlanes arrays at the row's
 * offset): per group, `stride` stored-plane slots of `planeWords` uint32
 * words (slot b = stored bit column b; slots at and above the group's
 * bit count are zero), its stored-bit count, pruned-column shift and BBS
 * constant. Every group keeps bits + shift <= 8.
 */
struct CompressedRowRef
{
    const std::uint32_t *planes = nullptr;
    const std::uint8_t *bits = nullptr;
    const std::int8_t *shifts = nullptr;
    const std::int32_t *constants = nullptr;
};

/**
 * One sample pair's stage-1 staging: per (group, 32-column word) one
 * block of 16 uint32 lanes — lanes 0-7 the even sample's activation
 * planes 0-7, lanes 8-15 the odd sample's — and per group the two
 * samples' sums of activations, even first.
 */
struct WindowPairRef
{
    const std::uint32_t *windows = nullptr;
    const std::int32_t *sums = nullptr;
};

/**
 * One implementation of every kernel shape. All sums are exact integer
 * arithmetic (int64, or int32 where a slot says so) — identical across
 * levels for identical inputs.
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
     * block: the library's hot paths run its amortized form
     * (compressedGroupDot over a group's planes), while this slot stays
     * dispatched as the reference shape the tests and benches pin that
     * form against.
     */
    std::int64_t (*weightedPlaneDot)(std::uint64_t wb,
                                     const std::uint64_t *aw);

    /**
     * weightedPlaneDot with wb = all-ones: the value sum encoded by eight
     * aligned window planes (bit_serial_matrix's planeWindowSum).
     */
    std::int64_t (*weightedPlaneSum)(const std::uint64_t *aw);

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
     * sample pairs (four samples) over @p numGroups groups of
     * @p stride plane slots of @p planeWords words. out[4 * i + 2 * j +
     * s] is row w[i] against sample s of pair a[j]: the sum over groups
     * g of
     *   (sum over stored planes b, activation planes c, words of
     *    columnWeight(b, bits) * columnWeight(c, 8) *
     *    popcount(plane b word & window c word)) << shift g
     *   + constant g * sum g,
     * narrowed to int32 (exact within kMaxGemmDepth). Vector levels
     * broadcast each weight plane word against both pairs' blocks, keep
     * each output's eight per-activation-plane partial sums in int32
     * lanes across all groups (|lane| <= depth * 2^7) and weigh and
     * reduce them once. Edge tiles pass a row or pair twice (w[1] ==
     * w[0] or a[1] == a[0]); the duplicate outputs are simply equal.
     */
    void (*compressedGemmTile)(const CompressedRowRef w[2],
                               const WindowPairRef a[2],
                               std::int64_t numGroups, int stride,
                               int planeWords, std::int32_t out[8]);

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
