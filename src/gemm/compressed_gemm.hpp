/**
 * @file
 * Compressed-domain GEMM: whole BBS-compressed weight rows executed
 * against a packed activation batch.
 *
 * `CompressedRowPlanes` prepares a matrix of BBS-compressed weight rows
 * once — every group's surviving bit columns as packed planes
 * (core/bitplane.hpp PackedGroup) stored row-contiguously together with
 * its pruned-column shift and BBS constant. `gemmCompressedKernel` then
 * computes activations [N, C] x weights [K, C] -> [N, K] exactly as the
 * BitVert PE would, but batched:
 *
 *  - the activation batch is packed once (`BitSerialMatrix`), and each
 *    group's column window plus sum-of-activations is extracted once per
 *    (sample, group) and reused by every weight row (stage 1);
 *  - surviving columns run bit-serially as AND+popcount products between
 *    weight planes and activation planes, shifted by the pruned-column
 *    count (stage 2);
 *  - pruned columns contribute through the BBS-constant x
 *    sum-of-activations multiplier term (PE Fig 7 step 4) — an all-pruned
 *    group costs exactly one multiply per sample.
 *
 * Stage 2 is one dispatched SimdKernels::compressedGemmTile call per 2x2
 * register tile (two weight rows x two samples) over a whole row of
 * groups: the weight planes fold in Horner-style into per-activation-
 * plane lane sums, which are weighed and reduced once per output. The
 * kernel parallelizes over weight-row pairs with parallelFor and matches
 * the compressed-domain dot kernel's value bit-for-bit at every SIMD
 * level; the test suite pins it against the dense reference on the
 * decompressed weights.
 *
 * Callers reach the kernel through an engine::MatmulPlan
 * (engine/engine.hpp) whose kind resolves to CompressedBatched, or the
 * engine::matmulCompressed convenience.
 */
#ifndef BBS_GEMM_COMPRESSED_GEMM_HPP
#define BBS_GEMM_COMPRESSED_GEMM_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/bitplane.hpp"
#include "core/compressed_tensor.hpp"
#include "engine/scratch.hpp"
#include "gemm/bit_serial_matrix.hpp"
#include "tensor/tensor.hpp"

namespace bbs {

/**
 * BBS-compressed weight rows prepared once for the batched GEMM engine:
 * packed stored-column planes, shift and constant per group, groups laid
 * out row-major so row tiles stream cache-linearly.
 *
 * Every row covers the same column range with the same group structure:
 * ceil(cols / groupSize) groups, the last possibly short.
 */
class CompressedRowPlanes
{
  public:
    CompressedRowPlanes() = default;

    /**
     * BBS-compress @p codes row by row (row o = output channel o, dim 0)
     * straight into planes: groups of @p groupSize never span two rows,
     * and a row's last group may be short. Groups compress in parallel;
     * the planes are word-identical to prepare() over per-row
     * compressGroup() results, and to prepare(CompressedTensor) whenever
     * the group size divides the row width.
     */
    static CompressedRowPlanes compress(const Int8Tensor &codes,
                                        std::int64_t groupSize,
                                        int targetColumns,
                                        PruneStrategy strategy);

    /**
     * Prepare from flat row-major groups with row offsets: row o's
     * groups are groups[rowOffsets[o] .. rowOffsets[o+1]). Each row's
     * group sizes must tile [0, cols) with @p groupSize (short tail
     * allowed).
     */
    static CompressedRowPlanes
    prepare(std::span<const CompressedGroup> groups,
            std::span<const std::int64_t> rowOffsets, std::int64_t cols,
            std::int64_t groupSize);

    /**
     * Prepare from a whole-tensor compression (requires the channel size
     * to be a multiple of the group size, so no group spans two rows).
     */
    static CompressedRowPlanes prepare(const CompressedTensor &ct);

    /**
     * Non-owning view over externally held packed arrays in this class's
     * exact layout (the mmap model store: the container's Groups /
     * Shifts / Constants sections ARE these arrays, so "loading" is this
     * pointer fixup). All three arrays hold `rows * groupsPerRow`
     * entries indexed [row * groupsPerRow + g]; @p packed must be
     * 64-byte aligned (PackedGroup is one cache line) and all must
     * outlive the view. Every read path — the batched kernel, the
     * per-dot loop, decompress() — behaves bit-identically to an owned
     * prepare() of the same values.
     */
    static CompressedRowPlanes
    viewExternal(const PackedGroup *packed, const std::int8_t *shifts,
                 const std::int32_t *constants, std::int64_t rows,
                 std::int64_t cols, std::int64_t groupSize);

    /** True for viewExternal packings (storage owned elsewhere). */
    bool mappedView() const { return viewPacked_ != nullptr; }

    bool empty() const { return rows_ == 0; }
    std::int64_t rows() const { return rows_; }
    std::int64_t cols() const { return cols_; }
    std::int64_t groupSize() const { return groupSize_; }
    std::int64_t groupsPerRow() const { return groupsPerRow_; }

    /** Packed stored-column planes of row @p o, group @p g. */
    const PackedGroup &
    packedGroup(std::int64_t o, std::int64_t g) const
    {
        return packedBase()[static_cast<std::size_t>(
            o * groupsPerRow_ + g)];
    }

    /** Pruned-column shift of row @p o, group @p g. */
    int
    shift(std::int64_t o, std::int64_t g) const
    {
        return shiftBase()[static_cast<std::size_t>(
            o * groupsPerRow_ + g)];
    }

    /** BBS constant of row @p o, group @p g. */
    std::int32_t
    constant(std::int64_t o, std::int64_t g) const
    {
        return constantBase()[static_cast<std::size_t>(
            o * groupsPerRow_ + g)];
    }

    /** The three packed arrays, [row * groupsPerRow + g] (the store
     *  writer's payload source; for views, the external memory). */
    std::span<const PackedGroup>
    packedGroups() const
    {
        return {packedBase(),
                static_cast<std::size_t>(rows_ * groupsPerRow_)};
    }

    std::span<const std::int8_t>
    shifts() const
    {
        return {shiftBase(),
                static_cast<std::size_t>(rows_ * groupsPerRow_)};
    }

    std::span<const std::int32_t>
    constants() const
    {
        return {constantBase(),
                static_cast<std::size_t>(rows_ * groupsPerRow_)};
    }

    /** First column of group @p g (same for every row). */
    std::int64_t groupBegin(std::int64_t g) const { return g * groupSize_; }

    /** Member count of group @p g (short for the column tail). */
    int
    groupMembers(std::int64_t g) const
    {
        return static_cast<int>(
            std::min(groupSize_, cols_ - groupBegin(g)));
    }

    /**
     * Mean stored bit columns per weight across all groups (8.0 means
     * compression removed nothing anywhere). The sparsity signal
     * engine::MatmulPlan's kind selection reads.
     */
    double meanStoredBits() const;

    /**
     * Reconstruct the full INT8 weight matrix:
     * w = (stored << prunedColumns) + constant per group. Exact for
     * weights produced by the BBS compressor (the reconstruction is the
     * compressed form's defining identity). Used when a plan re-packs an
     * effectively-uncompressed operand for the dense tiled kernel, and by
     * PackedOperand::unpack().
     */
    Int8Tensor decompress() const;

  private:
    /** Owned planes of @p rows x @p cols with the three arrays sized. */
    static CompressedRowPlanes allocate(std::int64_t rows, std::int64_t cols,
                                        std::int64_t groupSize);

    /** Pack @p cg's stored columns, shift and constant at @p idx. */
    void setGroup(std::size_t idx, const CompressedGroup &cg);

    const PackedGroup *
    packedBase() const
    {
        return viewPacked_ != nullptr ? viewPacked_ : packed_.data();
    }

    const std::int8_t *
    shiftBase() const
    {
        return viewPacked_ != nullptr ? viewShifts_ : shifts_.data();
    }

    const std::int32_t *
    constantBase() const
    {
        return viewPacked_ != nullptr ? viewConstants_ : constants_.data();
    }

    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::int64_t groupSize_ = 0;
    std::int64_t groupsPerRow_ = 0;
    std::vector<PackedGroup> packed_;      ///< [row * groupsPerRow + g]
    std::vector<std::int8_t> shifts_;      ///< prunedColumns, same index
    std::vector<std::int32_t> constants_;  ///< BBS constants, same index
    /** Non-null = view mode: the three arrays live in external memory
     *  (an mmap'd container); same layout, storage owned by the view's
     *  creator. */
    const PackedGroup *viewPacked_ = nullptr;
    const std::int8_t *viewShifts_ = nullptr;
    const std::int32_t *viewConstants_ = nullptr;
};

namespace detail {

/**
 * Compressed-domain GEMM kernel: activations [N, C] (packed) x
 * compressed weight rows [K, C] -> @p out [N, K] (reshaped only when its
 * shape differs, so a serving loop reuses the buffer). Bit-exact against
 * the dense reference over the decompressed weights. Stage-1 staging
 * lives in @p scratch (grow-only); callers normally pass
 * engine::ScratchArena::forThisThread(). The engine's CompressedBatched
 * plan kind executes here.
 */
void gemmCompressedKernel(const CompressedRowPlanes &weights,
                          const BitSerialMatrix &activations,
                          Int32Tensor &out, engine::ScratchArena &scratch);

} // namespace detail

} // namespace bbs

#endif // BBS_GEMM_COMPRESSED_GEMM_HPP
