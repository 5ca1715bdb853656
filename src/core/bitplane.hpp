/**
 * @file
 * Packed bit-plane substrate shared by the BBS kernels, the compressor and
 * every accelerator cycle model.
 *
 * A weight group of up to 64 INT8 values is packed once into eight
 * `uint64_t` bit planes (plane b holds bit significance b of every member,
 * member i at bit i — gemmbitserial-style `[significance][group]` layout).
 * All per-column questions the codebase asks — popcounts, BBS effectual
 * bits, redundant-column detection, zero-value counts — then become one or
 * two word operations instead of per-element loops, and bit-serial dot
 * products gather only the effectual members via count-trailing-zeros
 * iteration.
 *
 * `BitPlaneTensor` extends the same layout to a whole tensor: one plane
 * array per significance, one word per group, packed once and reused by
 * every consumer (sparsity measurement, all seven accelerator models).
 */
#ifndef BBS_CORE_BITPLANE_HPP
#define BBS_CORE_BITPLANE_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/bit_utils.hpp"
#include "tensor/tensor.hpp"

namespace bbs {

/**
 * Packed bit planes of one weight group (<= 64 members).
 *
 * planes[b] holds bit b of every member (member i at bit i). Invariants
 * every producer maintains (and the word-level primitives rely on): plane
 * bits at positions >= @ref size are zero, and planes at significances >=
 * @ref bits are zero. Two's-complement packing keeps the raw encoding
 * bits, so the MSB plane is the sign plane.
 *
 * PackedGroup is the working type of the group compressor, the
 * compressed-tensor serializer, the sparsity scans and every
 * accelerator model: one group at a time, all eight planes at hand. It
 * is not a storage format for whole weight matrices — the compressed
 * GEMM and the model store keep compact rows of only the stored planes,
 * as 32-bit words (gemm/compressed_gemm.hpp CompressedRowPlanes).
 */
struct PackedGroup
{
    std::array<BitColumn, kWeightBits> planes{};
    int size = 0;          ///< members n, 0..64
    int bits = kWeightBits; ///< valid planes (stored columns)

    /** Mask of the low @ref size bits (needed when *inverting* a plane). */
    BitColumn
    mask() const
    {
        return size >= 64 ? ~0ull : ((1ull << size) - 1ull);
    }
};

namespace detail {

/**
 * Transpose an 8x8 bit matrix held as 8 little-endian byte rows: output
 * byte b, bit j == input byte j, bit b. Three delta-swaps (the classic
 * bitboard flip-diagonal), ~2 ops per packed byte.
 */
inline std::uint64_t
transpose8(std::uint64_t x)
{
    std::uint64_t t;
    constexpr std::uint64_t k1 = 0x5500550055005500ull;
    constexpr std::uint64_t k2 = 0x3333000033330000ull;
    constexpr std::uint64_t k4 = 0x0f0f0f0f00000000ull;
    t = k4 & (x ^ (x << 28));
    x ^= t ^ (t >> 28);
    t = k2 & (x ^ (x << 14));
    x ^= t ^ (t >> 14);
    t = k1 & (x ^ (x << 7));
    x ^= t ^ (t >> 7);
    return x;
}

inline std::uint64_t
loadBytes(const std::int8_t *p, std::size_t n)
{
    if (n == 8) {
        std::uint64_t x;
        std::memcpy(&x, p, 8); // little-endian byte j = member j
        return x;
    }
    std::uint64_t x = 0;
    std::memcpy(&x, p, n);
    return x;
}

} // namespace detail

/**
 * Pack the low @p bits bits of each value's two's-complement encoding.
 * Word-level: eight members are transposed per step (flip-diagonal), so
 * packing costs a few ops per member instead of one per member bit.
 * Inline: every packed kernel starts here, and the per-group call cost
 * would otherwise dominate small groups.
 */
inline PackedGroup
packGroup(std::span<const std::int8_t> group, int bits = kWeightBits)
{
    PackedGroup pg;
    pg.size = static_cast<int>(group.size());
    pg.bits = bits;
    if constexpr (std::endian::native == std::endian::little) {
        // Plane b's byte k covers members 8k..8k+7 — exactly one
        // transposed chunk. Accumulate in registers (byte stores followed
        // by whole-word reads would stall on store forwarding).
        std::uint64_t p[kWeightBits] = {};
        for (std::size_t off = 0; off < group.size(); off += 8) {
            std::size_t len = std::min<std::size_t>(8, group.size() - off);
            std::uint64_t tr = detail::transpose8(
                detail::loadBytes(group.data() + off, len));
            for (int b = 0; b < kWeightBits; ++b)
                p[b] |= ((tr >> (8 * b)) & 0xffull) << off;
        }
        for (int b = 0; b < bits; ++b)
            pg.planes[static_cast<std::size_t>(b)] = p[b];
        // Planes at and above `bits` stay zero (clean-planes invariant).
    } else {
        for (std::size_t i = 0; i < group.size(); ++i)
            for (int b = 0; b < bits; ++b)
                pg.planes[static_cast<std::size_t>(b)] |=
                    static_cast<BitColumn>(bitOf(group[i], b)) << i;
    }
    return pg;
}

/**
 * Pack the 8-bit *sign-magnitude* encoding (plane 7 = sign, planes 0..6 =
 * magnitude; -128 saturates, matching toSignMagnitude). Used by the
 * BitWave model, which schedules sign-magnitude columns.
 */
PackedGroup packGroupSignMagnitude(std::span<const std::int8_t> group);

/**
 * Unpack to INT8 values, sign-extending from the group's stored width.
 * Exact inverse of packGroup for values representable in @ref bits bits.
 */
void unpackGroup(const PackedGroup &pg, std::span<std::int8_t> out);
std::vector<std::int8_t> unpackGroup(const PackedGroup &pg);

/** Ones in plane @p b. */
inline int
packedColumnOnes(const PackedGroup &pg, int b)
{
    return std::popcount(pg.planes[static_cast<std::size_t>(b)]);
}

/** Total one-bits across all planes (plain zero-skip work, Eq. 2). */
inline int
packedOnesTotal(const PackedGroup &pg)
{
    int ones = 0;
    for (int b = 0; b < pg.bits; ++b)
        ones += std::popcount(pg.planes[static_cast<std::size_t>(b)]);
    return ones;
}

/** Densest column's popcount (the Bitlet distiller's latency). */
inline int
packedMaxColumnOnes(const PackedGroup &pg)
{
    int best = 0;
    for (int b = 0; b < pg.bits; ++b)
        best = std::max(
            best, std::popcount(pg.planes[static_cast<std::size_t>(b)]));
    return best;
}

/** BBS effectual ops: sum over planes of min(ones, n - ones) (Eq. 2/3). */
inline int
packedEffectualOps(const PackedGroup &pg)
{
    int ops = 0;
    for (int b = 0; b < pg.bits; ++b) {
        int ones = std::popcount(pg.planes[static_cast<std::size_t>(b)]);
        ops += std::min(ones, pg.size - ones);
    }
    return ops;
}

/** Members with at least one essential bit (SparTen's non-zero count). */
inline int
packedNonZeroValues(const PackedGroup &pg)
{
    BitColumn any = 0;
    for (int b = 0; b < pg.bits; ++b)
        any |= pg.planes[static_cast<std::size_t>(b)];
    return std::popcount(any);
}

/** BBS sparsity of the group: mean of max(ones, zeros)/n over planes. */
inline double
packedBbsSparsity(const PackedGroup &pg)
{
    int sparse = 0;
    for (int b = 0; b < pg.bits; ++b) {
        int ones = std::popcount(pg.planes[static_cast<std::size_t>(b)]);
        sparse += std::max(ones, pg.size - ones);
    }
    return static_cast<double>(sparse) /
           static_cast<double>(pg.bits * pg.size);
}

/**
 * Redundant sign-extension columns (paper Fig 4 step 1), word-level: a
 * column is redundant iff its plane equals the sign plane. Must agree with
 * countRedundantColumns on the unpacked values.
 */
inline int
countRedundantColumnsPacked(const PackedGroup &pg, int maxCount = 3)
{
    BitColumn sign = pg.planes[static_cast<std::size_t>(pg.bits - 1)];
    int count = 0;
    for (int b = pg.bits - 2; b >= 0 && count < maxCount; --b) {
        if (pg.planes[static_cast<std::size_t>(b)] != sign)
            break;
        ++count;
    }
    return count;
}

/**
 * Sum of @p acts at the set bits of @p word. Iterates only the set bits
 * (count-trailing-zeros), so a BBS column costs its effectual bits, not n.
 */
inline std::int64_t
gatherSum(BitColumn word, std::span<const std::int8_t> acts)
{
    std::int64_t s = 0;
    while (word != 0) {
        int i = std::countr_zero(word);
        word &= word - 1;
        s += acts[static_cast<std::size_t>(i)];
    }
    return s;
}

/**
 * Whole-tensor packed bit planes, layout `[significance][group]`.
 *
 * Groups are formed within each channel (dim 0) and never span two
 * channels; every channel contributes the same number of groups, the last
 * of which may be short. A rank-1 tensor packs as a single channel.
 */
class BitPlaneTensor
{
  public:
    BitPlaneTensor() = default;

    /** Pack @p codes with per-channel groups of @p groupSize. */
    static BitPlaneTensor pack(const Int8Tensor &codes,
                               std::int64_t groupSize);

    /** Pack a flat value sequence (single channel). */
    static BitPlaneTensor pack(std::span<const std::int8_t> values,
                               std::int64_t groupSize);

    /**
     * Re-pack in place. When the shape matches the previous packing the
     * plane store is reused instead of reallocated — repacking loops
     * (benchmark reps, cache refills) stay free of per-call heap
     * traffic, whose mmap churn otherwise dominates the packing cost for
     * megabyte-scale tensors.
     */
    void repack(std::span<const std::int8_t> values, std::int64_t channels,
                std::int64_t groupSize);

    bool empty() const { return numGroups_ == 0; }
    std::int64_t numGroups() const { return numGroups_; }
    std::int64_t numChannels() const { return channels_; }
    std::int64_t groupsPerChannel() const { return groupsPerChannel_; }
    std::int64_t groupSize() const { return groupSize_; }
    std::int64_t numel() const { return channels_ * channelSize_; }

    /** Plane @p b across all groups (group g at word g). */
    std::span<const std::uint64_t>
    plane(int b) const
    {
        return std::span<const std::uint64_t>(
            words_.data() + static_cast<std::size_t>(b) *
                                static_cast<std::size_t>(numGroups_),
            static_cast<std::size_t>(numGroups_));
    }

    /** Members of group @p g (== groupSize except channel-tail groups). */
    int
    groupMembers(std::int64_t g) const
    {
        bool tail = groupsPerChannel_ > 0 &&
                    (g % groupsPerChannel_) == groupsPerChannel_ - 1;
        return tail ? tailSize_ : static_cast<int>(groupSize_);
    }

    /** Gather group @p g's planes into a PackedGroup. */
    PackedGroup group(std::int64_t g) const;

    /** Group index of channel @p c, channel-local group @p i. */
    std::int64_t
    groupIndex(std::int64_t c, std::int64_t i) const
    {
        return c * groupsPerChannel_ + i;
    }

  private:
    std::int64_t groupSize_ = 0;
    std::int64_t numGroups_ = 0;
    std::int64_t channels_ = 0;
    std::int64_t channelSize_ = 0;
    std::int64_t groupsPerChannel_ = 0;
    int tailSize_ = 0; ///< members of each channel's last group
    /** Plane-major storage: word [b * numGroups + g]. The base is
     *  64-byte aligned, so plane 0 starts on a cache line; planes b > 0
     *  start at word b * numGroups and are only line-aligned when
     *  numGroups is a multiple of 8 (the SIMD scans use unaligned
     *  loads, so this is a perf nuance, not a contract). */
    AlignedVector<std::uint64_t> words_;
};

/**
 * Total BBS effectual ops over a packed tensor (the Eq. 2/3 work a whole
 * layer presents). Plane-major: effectual ops are separable per
 * (significance, group), so no per-group plane gather is needed.
 */
std::int64_t packedEffectualOpsTotal(const BitPlaneTensor &planes);

} // namespace bbs

#endif // BBS_CORE_BITPLANE_HPP
