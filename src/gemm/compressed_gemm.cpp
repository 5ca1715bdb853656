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
                             engine::ScratchArena &scratch)
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

    // Stage 2: 2x2 register tiles (two weight rows x two samples), one
    // dispatched call per tile over the whole row of groups. An odd last
    // weight row or sample is passed twice, and its duplicate outputs
    // store the same value twice. Each output is written by one task.
    auto rowRef = [&](std::int64_t o) {
        std::size_t base = static_cast<std::size_t>(o * numGroups);
        return CompressedRowRef{weights.packedGroups().data() + base,
                                weights.shifts().data() + base,
                                weights.constants().data() + base};
    };
    auto windowRef = [&](std::int64_t r) {
        return WindowRowRef{windows + r * numGroups * kWeightBits,
                            sums + r * numGroups};
    };
    parallelFor((k + 1) / 2, [&](std::int64_t t) {
        std::int64_t o0 = 2 * t;
        std::int64_t o1 = std::min(o0 + 1, k - 1);
        const CompressedRowRef w[2] = {rowRef(o0), rowRef(o1)};
        for (std::int64_t r0 = 0; r0 < n; r0 += 2) {
            std::int64_t r1 = std::min(r0 + 1, n - 1);
            const WindowRowRef a[2] = {windowRef(r0), windowRef(r1)};
            std::int64_t acc[4];
            simd.compressedGemmTile(w, a, numGroups, acc);
            // kMaxGemmDepth keeps every exact sum inside INT32.
            out.at(r0, o0) = static_cast<std::int32_t>(acc[0]);
            out.at(r0, o1) = static_cast<std::int32_t>(acc[2]);
            out.at(r1, o0) = static_cast<std::int32_t>(acc[1]);
            out.at(r1, o1) = static_cast<std::int32_t>(acc[3]);
        }
    }, 1);
}

} // namespace bbs
