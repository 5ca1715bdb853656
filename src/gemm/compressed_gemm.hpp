/**
 * @file
 * Compressed-domain GEMM: whole BBS-compressed weight rows executed
 * against a packed activation batch.
 *
 * `CompressedRowPlanes` prepares a matrix of BBS-compressed weight rows
 * once, in the compact form the BBS encoding describes: per group only
 * its surviving bit columns, as `stride` plane slots of `planeWords`
 * uint32 words each (one word covers 32 members), plus three small
 * per-group arrays — stored-bit count, pruned-column shift and BBS
 * constant. No padding and no per-group struct: at group 32 with four
 * pruned columns a group costs 22 bytes. `gemmCompressedKernel` then
 * computes activations [N, C] x weights [K, C] -> [N, K] exactly as the
 * BitVert PE would, but batched:
 *
 *  - the activation batch is packed once (`BitSerialMatrix`), and each
 *    group's column window plus sum-of-activations is staged once per
 *    (sample pair, group) and reused by every weight row (stage 1). A
 *    pair's windows share one 64-byte block per 32-column word: lanes
 *    0-7 hold the even sample's eight activation planes, lanes 8-15 the
 *    odd sample's (zero when the batch has no odd sample);
 *  - surviving columns run bit-serially as AND+popcount products between
 *    weight plane words and activation plane words in int32 lanes,
 *    shifted by the pruned-column count (stage 2);
 *  - pruned columns contribute through the BBS-constant x
 *    sum-of-activations multiplier term (PE Fig 7 step 4) — an all-pruned
 *    group costs one multiply-add per sample.
 *
 * Stage 2 is one dispatched SimdKernels::compressedGemmTile call per
 * register tile of two weight rows x two sample pairs over a whole row
 * of groups: each weight plane word is broadcast against both pairs'
 * window blocks, folded Horner-style into per-activation-plane int32
 * lane sums, and each output is weighed and reduced once. The stored
 * value times 2^shift stays within 2^7 in magnitude (bits + shift <= 8,
 * which prepare(), compress() and the model store enforce), so a lane is
 * bounded by depth * 2^7 < 2^24 and int32 is exact. Stage 2 runs under
 * parallelFor over contiguous blocks of tile rows (weight-row pairs):
 * a block covers at least one 64-byte line of every output row (8 tile
 * rows) and at least kMinChunkWork of plane-word work
 * (common/parallel.hpp), so a small GEMM runs on the calling thread and
 * threads share output lines only at block edges. The activation pack
 * and stage 1 size their chunks by the same rule; at serving batch
 * sizes they usually run on the caller. The kernel matches the
 * compressed-domain dot kernel's value bit-for-bit at every SIMD level
 * and every thread count; the test suite pins it against the dense
 * reference on the decompressed weights.
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
 * BBS-compressed weight rows prepared once for the batched GEMM engine,
 * groups laid out row-major so row tiles stream cache-linearly:
 *
 *  - planes: `stride` slots of `planeWords` uint32 words per group, slot
 *    b = stored bit column b (member i at bit i % 32 of word i / 32), so
 *    group (o, g) starts at word (o * groupsPerRow + g) * stride *
 *    planeWords. Slots at and above the group's bit count are zero, and
 *    so are member bits past its member count;
 *  - bits (uint8), shifts (int8, the pruned-column count) and constants
 *    (int32, the BBS constant): one entry per group, same index.
 *
 * Every row covers the same column range with the same group structure:
 * ceil(cols / groupSize) groups, the last possibly short. Every group
 * satisfies bits <= stride and bits + shift <= 8, which bounds the
 * stored value times 2^shift by 2^7 (the int32-lane invariant the GEMM
 * relies on).
 */
class CompressedRowPlanes
{
  public:
    CompressedRowPlanes() = default;

    /** 32-bit words per plane slot for @p groupSize members: 1 up to
     *  32, 2 for 33..64. */
    static int
    planeWordsFor(std::int64_t groupSize)
    {
        return groupSize > 32 ? 2 : 1;
    }

    /**
     * BBS-compress @p codes row by row (row o = output channel o, dim 0)
     * straight into planes: groups of @p groupSize never span two rows,
     * and a row's last group may be short. The stride is 8 -
     * @p targetColumns (every compressed group stores exactly that many
     * columns). Groups compress in parallel; the arrays are identical to
     * prepare() over per-row compressGroup() results, and to
     * prepare(CompressedTensor) whenever the group size divides the row
     * width.
     */
    static CompressedRowPlanes compress(const Int8Tensor &codes,
                                        std::int64_t groupSize,
                                        int targetColumns,
                                        PruneStrategy strategy);

    /**
     * Prepare from flat row-major groups with row offsets: row o's
     * groups are groups[rowOffsets[o] .. rowOffsets[o+1]). Each row's
     * group sizes must tile [0, cols) with @p groupSize (short tail
     * allowed). The stride is the largest stored-bit count.
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
     * Non-owning view over externally held arrays in this class's exact
     * layout (the mmap model store: the container's Planes / Bits /
     * Shifts / Constants sections ARE these arrays, so "loading" is this
     * pointer fixup). @p planes holds rows * groupsPerRow * @p stride *
     * planeWordsFor(@p groupSize) words; the other three hold rows *
     * groupsPerRow entries. The caller has validated every group's bits
     * and shift (bits <= stride, bits + shift <= 8); all arrays must
     * outlive the view. Every read path — the batched kernel, the
     * per-dot loop, decompress() — behaves bit-identically to an owned
     * prepare() of the same values.
     */
    static CompressedRowPlanes
    viewExternal(const std::uint32_t *planes, const std::uint8_t *bits,
                 const std::int8_t *shifts, const std::int32_t *constants,
                 std::int64_t rows, std::int64_t cols,
                 std::int64_t groupSize, int stride);

    /** True for viewExternal packings (storage owned elsewhere). */
    bool mappedView() const { return view_.planes != nullptr; }

    bool empty() const { return rows_ == 0; }
    std::int64_t rows() const { return rows_; }
    std::int64_t cols() const { return cols_; }
    std::int64_t groupSize() const { return groupSize_; }
    std::int64_t groupsPerRow() const { return groupsPerRow_; }
    /** Plane slots per group: the largest stored-bit count. */
    int stride() const { return stride_; }
    /** uint32 words per plane slot (planeWordsFor(groupSize())). */
    int planeWords() const { return planeWords_; }

    /** The stride * planeWords plane words of row @p o, group @p g. */
    const std::uint32_t *
    groupPlanes(std::int64_t o, std::int64_t g) const
    {
        return arrays().planes + static_cast<std::size_t>(
                                     (o * groupsPerRow_ + g) * stride_ *
                                     planeWords_);
    }

    /** Stored bit columns of row @p o, group @p g. */
    int
    bits(std::int64_t o, std::int64_t g) const
    {
        return arrays().bits[static_cast<std::size_t>(o * groupsPerRow_ +
                                                      g)];
    }

    /** Pruned-column shift of row @p o, group @p g. */
    int
    shift(std::int64_t o, std::int64_t g) const
    {
        return arrays().shifts[static_cast<std::size_t>(
            o * groupsPerRow_ + g)];
    }

    /** BBS constant of row @p o, group @p g. */
    std::int32_t
    constant(std::int64_t o, std::int64_t g) const
    {
        return arrays().constants[static_cast<std::size_t>(
            o * groupsPerRow_ + g)];
    }

    /** The four arrays (the store writer's payload source; for views,
     *  the external memory). planes() is indexed as groupPlanes(); the
     *  others by [row * groupsPerRow + g]. */
    std::span<const std::uint32_t>
    planes() const
    {
        return {arrays().planes, static_cast<std::size_t>(
                                     groupCount() * stride_ * planeWords_)};
    }

    std::span<const std::uint8_t>
    bits() const
    {
        return {arrays().bits, static_cast<std::size_t>(groupCount())};
    }

    std::span<const std::int8_t>
    shifts() const
    {
        return {arrays().shifts, static_cast<std::size_t>(groupCount())};
    }

    std::span<const std::int32_t>
    constants() const
    {
        return {arrays().constants, static_cast<std::size_t>(groupCount())};
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
    /** Base pointers of the four arrays (owned or external). */
    struct Arrays
    {
        const std::uint32_t *planes = nullptr;
        const std::uint8_t *bits = nullptr;
        const std::int8_t *shifts = nullptr;
        const std::int32_t *constants = nullptr;
    };

    /** Owned, zero-filled arrays of @p rows x @p cols at @p stride. */
    static CompressedRowPlanes allocate(std::int64_t rows, std::int64_t cols,
                                        std::int64_t groupSize, int stride);

    /** Pack @p cg's stored columns, bits, shift and constant at group
     *  index @p idx (requires bits <= stride, bits + shift <= 8). */
    void setGroup(std::int64_t idx, const CompressedGroup &cg);

    std::int64_t groupCount() const { return rows_ * groupsPerRow_; }

    Arrays
    arrays() const
    {
        if (view_.planes != nullptr)
            return view_;
        return {planes_.data(), bits_.data(), shifts_.data(),
                constants_.data()};
    }

    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::int64_t groupSize_ = 0;
    std::int64_t groupsPerRow_ = 0;
    int stride_ = 0;
    int planeWords_ = 1;
    std::vector<std::uint32_t> planes_;   ///< see the class comment
    std::vector<std::uint8_t> bits_;      ///< [row * groupsPerRow + g]
    std::vector<std::int8_t> shifts_;     ///< prunedColumns, same index
    std::vector<std::int32_t> constants_; ///< BBS constants, same index
    /** Non-null planes = view mode: the four arrays live in external
     *  memory (an mmap'd container); same layout, storage owned by the
     *  view's creator. */
    Arrays view_;
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
