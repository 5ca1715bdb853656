/**
 * @file
 * Whole-tensor BBS compression: contiguous groups of weights are compressed
 * with binary pruning and the BBS encoding; the compressed form can be
 * decompressed, sized, and executed against directly (see
 * core/dot_kernels.hpp).
 */
#ifndef BBS_CORE_COMPRESSED_TENSOR_HPP
#define BBS_CORE_COMPRESSED_TENSOR_HPP

#include <cstdint>
#include <vector>

#include "core/bitplane.hpp"
#include "core/group_compressor.hpp"
#include "tensor/tensor.hpp"

namespace bbs {

/**
 * A BBS-compressed weight tensor.
 *
 * Groups are formed over the flattened row-major order, so a group never
 * spans two output channels as long as the channel size is a multiple of
 * the group size (true for every layer in the paper's models at group 32).
 */
class CompressedTensor
{
  public:
    CompressedTensor() = default;

    const Shape &shape() const { return shape_; }
    std::int64_t groupSize() const { return groupSize_; }
    PruneStrategy strategy() const { return strategy_; }
    int targetColumns() const { return targetColumns_; }

    const std::vector<CompressedGroup> &groups() const { return groups_; }
    const CompressedGroup &group(std::int64_t g) const
    {
        return groups_[static_cast<std::size_t>(g)];
    }

    /**
     * Packed bit planes of each group's stored values (built once at
     * compress time). Plane b of entry g is stored column b of group g —
     * the layout the serializer and the compressed-domain dot consume.
     */
    const std::vector<PackedGroup> &packedGroups() const { return packed_; }
    const PackedGroup &packedGroup(std::int64_t g) const
    {
        return packed_[static_cast<std::size_t>(g)];
    }

    /** Reconstruct the full INT8 tensor. */
    Int8Tensor decompress() const;

    /** Total storage including metadata, in bits. */
    std::int64_t storageBits() const;

    /** Mean storage per weight, in bits (paper's "effective bit width"). */
    double effectiveBitsPerWeight() const;

    /**
     * Compress @p codes with @p targetColumns pruned per group.
     * @param codes          INT8 weight codes
     * @param groupSize      weights per group (32 in the paper)
     * @param targetColumns  bit columns to prune (0..6)
     * @param strategy       binary-pruning strategy
     */
    static CompressedTensor compress(const Int8Tensor &codes,
                                     std::int64_t groupSize,
                                     int targetColumns,
                                     PruneStrategy strategy);

  private:
    Shape shape_;
    std::int64_t groupSize_ = 32;
    PruneStrategy strategy_ = PruneStrategy::RoundedAveraging;
    int targetColumns_ = 0;
    std::vector<CompressedGroup> groups_;
    std::vector<PackedGroup> packed_;
};

/**
 * Convenience: compress and immediately decompress ("fake compression"),
 * producing the INT8 tensor a BitVert run would effectively compute with.
 */
Int8Tensor binaryPruneTensor(const Int8Tensor &codes, std::int64_t groupSize,
                             int targetColumns, PruneStrategy strategy);

} // namespace bbs

#endif // BBS_CORE_COMPRESSED_TENSOR_HPP
