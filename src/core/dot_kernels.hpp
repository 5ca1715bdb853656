/**
 * @file
 * The bit-serial dot-product *kernels* (paper Eq. 1-3) and their shared
 * result type, stripped of any API-surface concerns.
 *
 * These are the executable forms the engine facade (engine/engine.hpp)
 * dispatches between: the dense reference, zero-bit skipping, BBS
 * bi-directional skipping, and the compressed-domain form the BitVert PE
 * computes — each with a per-element scalar twin the packed path is pinned
 * bit-identical to. User code targets `engine::Session::dot()` /
 * `engine::dot()`; internal callers and the facade itself bind these
 * `detail` kernels directly.
 */
#ifndef BBS_CORE_DOT_KERNELS_HPP
#define BBS_CORE_DOT_KERNELS_HPP

#include <cstdint>
#include <span>

#include "core/group_compressor.hpp"

namespace bbs {

/** Work/result of a BBS bit-serial execution. */
struct BbsDotResult
{
    std::int64_t value = 0;
    /** Effectual bit operations performed (<= half the total bits). */
    std::int64_t effectualOps = 0;
    /** Columns where ones dominated and the vector was inverted (Eq. 3). */
    int invertedColumns = 0;
};

namespace detail {

/** Dense reference: sum of W_i * A_i in full precision. */
std::int64_t dotReferenceKernel(std::span<const std::int8_t> weights,
                                std::span<const std::int8_t> activations);

/** Zero-bit skipping (Eq. 2) over packed planes. */
std::int64_t dotZeroSkipKernel(std::span<const std::int8_t> weights,
                               std::span<const std::int8_t> activations);

/** Per-element loop form of dotZeroSkipKernel (pinned identical). */
std::int64_t dotZeroSkipScalarKernel(std::span<const std::int8_t> weights,
                                     std::span<const std::int8_t> activations);

/** Bi-directional skipping (Eq. 2/3) over packed planes. */
BbsDotResult dotBbsKernel(std::span<const std::int8_t> weights,
                          std::span<const std::int8_t> activations);

/** Per-element loop form of dotBbsKernel (pinned identical). */
BbsDotResult dotBbsScalarKernel(std::span<const std::int8_t> weights,
                                std::span<const std::int8_t> activations);

/** Compressed-domain dot against a BBS-compressed group (PE Fig 7). */
BbsDotResult dotCompressedKernel(const CompressedGroup &cg,
                                 std::span<const std::int8_t> activations);

/** Per-element loop form of dotCompressedKernel (pinned identical). */
BbsDotResult dotCompressedScalarKernel(const CompressedGroup &cg,
                                       std::span<const std::int8_t> activations);

/**
 * Compressed-domain dot from *already packed* stored-column planes — the
 * compact form CompressedRowPlanes keeps per (row, group), read in place.
 * Exactly what dotCompressedKernel computes after its packGroup(cg.stored,
 * cg.storedBits) step, so a per-dot plan executing prepacked rows stays
 * bit-identical to the CompressedGroup path.
 *
 * @param planes         stored plane b at words [b * planeWords,
 *                       (b + 1) * planeWords), member i at bit i % 32 of
 *                       word i / 32 (bits past the member count zero)
 * @param planeWords     uint32 words per plane (1 or 2)
 * @param bits           stored bit columns (the top one is the sign)
 * @param prunedColumns  significance shift of the stored LSB
 * @param constant       BBS constant (multiplies the activation sum)
 * @param activations    the group's activations; its length is the
 *                       member count (at most 32 * planeWords)
 */
BbsDotResult dotCompressedPacked(const std::uint32_t *planes, int planeWords,
                                 int bits, int prunedColumns,
                                 std::int32_t constant,
                                 std::span<const std::int8_t> activations);

} // namespace detail
} // namespace bbs

#endif // BBS_CORE_DOT_KERNELS_HPP
