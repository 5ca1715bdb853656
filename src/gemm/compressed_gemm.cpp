#include "gemm/compressed_gemm.hpp"

#include <algorithm>
#include <bit>

#include "common/aligned.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "gemm/gemm.hpp"
#include "simd/simd.hpp"

namespace bbs {

CompressedRowPlanes
CompressedRowPlanes::allocate(std::int64_t rows, std::int64_t cols,
                              std::int64_t groupSize)
{
    BBS_REQUIRE(groupSize >= 1 && groupSize <= 64,
                "group size must be 1..64, got ", groupSize);
    CompressedRowPlanes out;
    out.rows_ = rows;
    out.cols_ = cols;
    out.groupSize_ = groupSize;
    out.groupsPerRow_ = (cols + groupSize - 1) / groupSize;
    std::size_t total = static_cast<std::size_t>(rows * out.groupsPerRow_);
    out.packed_.resize(total);
    out.shifts_.resize(total);
    out.constants_.resize(total);
    return out;
}

void
CompressedRowPlanes::setGroup(std::size_t idx, const CompressedGroup &cg)
{
    packed_[idx] = packGroup(cg.stored, cg.storedBits);
    shifts_[idx] = static_cast<std::int8_t>(cg.prunedColumns);
    constants_[idx] = cg.meta.constant;
}

CompressedRowPlanes
CompressedRowPlanes::compress(const Int8Tensor &codes,
                              std::int64_t groupSize, int targetColumns,
                              PruneStrategy strategy)
{
    CompressedRowPlanes out = allocate(
        codes.shape().dim(0), codes.shape().channelSize(), groupSize);
    parallelFor(out.rows_ * out.groupsPerRow_, [&](std::int64_t idx) {
        std::int64_t o = idx / out.groupsPerRow_;
        std::int64_t g = idx % out.groupsPerRow_;
        std::span<const std::int8_t> group = codes.channel(o).subspan(
            static_cast<std::size_t>(out.groupBegin(g)),
            static_cast<std::size_t>(out.groupMembers(g)));
        out.setGroup(static_cast<std::size_t>(idx),
                     compressGroup(group, targetColumns, strategy));
    });
    return out;
}

CompressedRowPlanes
CompressedRowPlanes::prepare(std::span<const CompressedGroup> groups,
                             std::span<const std::int64_t> rowOffsets,
                             std::int64_t cols, std::int64_t groupSize)
{
    BBS_REQUIRE(!rowOffsets.empty(), "rowOffsets must have rows+1 entries");
    CompressedRowPlanes out = allocate(
        static_cast<std::int64_t>(rowOffsets.size()) - 1, cols, groupSize);
    for (std::int64_t o = 0; o < out.rows_; ++o) {
        std::int64_t begin = rowOffsets[static_cast<std::size_t>(o)];
        std::int64_t end = rowOffsets[static_cast<std::size_t>(o) + 1];
        BBS_REQUIRE(end - begin == out.groupsPerRow_, "row ", o, " has ",
                    end - begin, " groups, expected ", out.groupsPerRow_);
        for (std::int64_t g = 0; g < out.groupsPerRow_; ++g) {
            const CompressedGroup &cg =
                groups[static_cast<std::size_t>(begin + g)];
            BBS_REQUIRE(static_cast<int>(cg.stored.size()) ==
                            out.groupMembers(g),
                        "row ", o, " group ", g, " holds ",
                        cg.stored.size(), " weights, expected ",
                        out.groupMembers(g));
            out.setGroup(static_cast<std::size_t>(o * out.groupsPerRow_ + g),
                         cg);
        }
    }
    return out;
}

CompressedRowPlanes
CompressedRowPlanes::prepare(const CompressedTensor &ct)
{
    std::int64_t rows = ct.shape().dim(0);
    std::int64_t cols = ct.shape().channelSize();
    BBS_REQUIRE(cols % ct.groupSize() == 0,
                "channel size ", cols, " not a multiple of group size ",
                ct.groupSize(), "; groups would span rows");
    std::vector<std::int64_t> offsets(static_cast<std::size_t>(rows) + 1);
    std::int64_t groupsPerRow = cols / ct.groupSize();
    for (std::int64_t o = 0; o <= rows; ++o)
        offsets[static_cast<std::size_t>(o)] = o * groupsPerRow;
    return prepare(ct.groups(), offsets, cols, ct.groupSize());
}

CompressedRowPlanes
CompressedRowPlanes::viewExternal(const PackedGroup *packed,
                                  const std::int8_t *shifts,
                                  const std::int32_t *constants,
                                  std::int64_t rows, std::int64_t cols,
                                  std::int64_t groupSize)
{
    BBS_REQUIRE(packed != nullptr && shifts != nullptr &&
                    constants != nullptr,
                "viewExternal needs non-null array bases");
    BBS_REQUIRE(rows > 0 && cols > 0, "viewExternal needs a positive shape");
    BBS_REQUIRE(groupSize >= 1 && groupSize <= 64,
                "group size must be 1..64, got ", groupSize);
    BBS_REQUIRE(reinterpret_cast<std::uintptr_t>(packed) %
                        alignof(PackedGroup) ==
                    0,
                "viewExternal group base must be cache-line aligned");
    CompressedRowPlanes out;
    out.rows_ = rows;
    out.cols_ = cols;
    out.groupSize_ = groupSize;
    out.groupsPerRow_ = (cols + groupSize - 1) / groupSize;
    out.viewPacked_ = packed;
    out.viewShifts_ = shifts;
    out.viewConstants_ = constants;
    return out;
}

namespace {

/**
 * Stored-column contribution of one group to one sample: the whole-group
 * 8-plane weighted window reduction, dispatched (for each stored weight
 * plane b and activation bit plane c, popcount(planes[b] AND aw[c])
 * weighs columnWeight(b, bits) * 2^c, the activation sign plane
 * negative).
 */
inline std::int64_t
groupDot(const SimdKernels &simd, const PackedGroup &pg,
         const std::uint64_t *aw)
{
    return simd.compressedGroupDot(pg.planes.data(), pg.bits, aw);
}

} // namespace

double
CompressedRowPlanes::meanStoredBits() const
{
    if (rows_ == 0 || groupsPerRow_ == 0)
        return 0.0;
    double bits = 0.0, weights = 0.0;
    for (const PackedGroup &pg : packedGroups()) {
        bits += static_cast<double>(pg.bits) * pg.size;
        weights += static_cast<double>(pg.size);
    }
    return weights > 0.0 ? bits / weights : 0.0;
}

Int8Tensor
CompressedRowPlanes::decompress() const
{
    BBS_REQUIRE(rows_ > 0 && cols_ > 0, "nothing to decompress");
    Int8Tensor out(Shape{rows_, cols_});
    std::vector<std::int8_t> stored;
    for (std::int64_t o = 0; o < rows_; ++o) {
        for (std::int64_t g = 0; g < groupsPerRow_; ++g) {
            const PackedGroup &pg = packedGroup(o, g);
            stored.resize(static_cast<std::size_t>(pg.size));
            unpackGroup(pg, stored);
            std::int64_t begin = groupBegin(g);
            int sh = shift(o, g);
            std::int32_t c = constant(o, g);
            for (int i = 0; i < pg.size; ++i)
                out.at(o, begin + i) = static_cast<std::int8_t>(
                    (static_cast<std::int32_t>(
                         stored[static_cast<std::size_t>(i)])
                     << sh) +
                    c);
        }
    }
    return out;
}

void
detail::gemmCompressedKernel(const CompressedRowPlanes &weights,
                             const BitSerialMatrix &activations,
                             Int32Tensor &out,
                             engine::ScratchArena &scratch,
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
    std::int64_t numGroups = weights.groupsPerRow();
    detail::ensureOutputShape(out, n, k);

    // Stage 1: extract each group's activation window planes and sum of
    // activations once per (sample, group); every weight row reuses them.
    // The caller's arena (normally the calling thread's
    // engine::ScratchArena) grows to its high-water mark once, so a
    // serving worker draining batch after batch pays no per-batch
    // allocation; its window store is 64-byte aligned so each group's
    // 8-plane window (exactly one cache line) is loaded by the SIMD
    // kernels without straddling lines. CRITICAL: parallelFor workers are
    // fresh threads, and a lambda body naming a thread_local arena would
    // resolve to the *worker's own* (empty) instance — so hand the
    // workers raw pointers into the caller's buffers; they touch only
    // disjoint slices.
    scratch.reserve(n, numGroups);
    std::uint64_t *const windows = scratch.windows.data();
    std::int64_t *const sums = scratch.sums.data();
    const SimdKernels &simd = simdKernels(); // resolved once per GEMM
    parallelFor(n, [&](std::int64_t r) {
        std::uint64_t *awRow = windows + r * numGroups * kWeightBits;
        for (std::int64_t g = 0; g < numGroups; ++g) {
            std::int64_t begin = weights.groupBegin(g);
            int len = weights.groupMembers(g);
            std::uint64_t *aw = awRow + g * kWeightBits;
            for (int c = 0; c < kWeightBits; ++c)
                aw[c] = activations.window(c, r, begin, len);
        }
        // One batched 8-plane weighted reduction over the whole row of
        // windows — the per-window call would be latency-bound.
        simd.weightedPlaneSumBatch(awRow, numGroups,
                                   sums + r * numGroups);
    }, 4);

    // Stage 2: weight-row tiles of `tile` rows, each streaming the whole
    // grouped batch; rows in a tile share every activation window load.
    // tile == 2 (the default, and the old hard-coded row-pair shape)
    // keeps its two accumulators in registers; other widths run the
    // generic accumulator array. Output rows are written by exactly one
    // task either way, and the per-row arithmetic is identical for every
    // width — the tile is a traversal-order knob the autotuner sweeps.
    std::int64_t tile =
        std::clamp<std::int64_t>(tuning.compressedRowTile, 1, 8);
    std::int64_t rowTiles = (k + tile - 1) / tile;
    parallelFor(rowTiles, [&](std::int64_t t) {
        std::int64_t o0 = tile * t;
        std::int64_t oEnd = std::min(o0 + tile, k);
        if (oEnd - o0 == 2) {
            std::int64_t o1 = o0 + 1;
            for (std::int64_t r = 0; r < n; ++r) {
                const std::uint64_t *aw =
                    windows + r * numGroups * kWeightBits;
                const std::int64_t *sumA = sums + r * numGroups;
                std::int64_t acc0 = 0, acc1 = 0;
                for (std::int64_t g = 0; g < numGroups;
                     ++g, aw += kWeightBits) {
                    acc0 +=
                        (groupDot(simd, weights.packedGroup(o0, g), aw)
                         << weights.shift(o0, g)) +
                        static_cast<std::int64_t>(
                            weights.constant(o0, g)) *
                            sumA[g];
                    acc1 +=
                        (groupDot(simd, weights.packedGroup(o1, g), aw)
                         << weights.shift(o1, g)) +
                        static_cast<std::int64_t>(
                            weights.constant(o1, g)) *
                            sumA[g];
                }
                out.at(r, o0) = static_cast<std::int32_t>(acc0);
                out.at(r, o1) = static_cast<std::int32_t>(acc1);
            }
            return;
        }
        std::int64_t acc[8];
        for (std::int64_t r = 0; r < n; ++r) {
            const std::uint64_t *aw =
                windows + r * numGroups * kWeightBits;
            const std::int64_t *sumA = sums + r * numGroups;
            for (std::int64_t j = 0; j < oEnd - o0; ++j)
                acc[j] = 0;
            for (std::int64_t g = 0; g < numGroups;
                 ++g, aw += kWeightBits) {
                for (std::int64_t o = o0; o < oEnd; ++o)
                    acc[o - o0] +=
                        (groupDot(simd, weights.packedGroup(o, g), aw)
                         << weights.shift(o, g)) +
                        static_cast<std::int64_t>(weights.constant(o, g)) *
                            sumA[g];
            }
            for (std::int64_t o = o0; o < oEnd; ++o)
                out.at(r, o) = static_cast<std::int32_t>(acc[o - o0]);
        }
    }, 1);
}

} // namespace bbs
