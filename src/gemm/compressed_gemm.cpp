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
                              std::int64_t groupSize, int stride)
{
    BBS_REQUIRE(groupSize >= 1 && groupSize <= 64,
                "group size must be 1..64, got ", groupSize);
    BBS_REQUIRE(stride >= 1 && stride <= kWeightBits,
                "plane stride must be 1..", kWeightBits, ", got ", stride);
    CompressedRowPlanes out;
    out.rows_ = rows;
    out.cols_ = cols;
    out.groupSize_ = groupSize;
    out.groupsPerRow_ = (cols + groupSize - 1) / groupSize;
    out.stride_ = stride;
    out.planeWords_ = planeWordsFor(groupSize);
    std::size_t total = static_cast<std::size_t>(out.groupCount());
    out.planes_.assign(total * static_cast<std::size_t>(stride) *
                           static_cast<std::size_t>(out.planeWords_),
                       0u);
    out.bits_.resize(total);
    out.shifts_.resize(total);
    out.constants_.resize(total);
    return out;
}

void
CompressedRowPlanes::setGroup(std::int64_t idx, const CompressedGroup &cg)
{
    BBS_REQUIRE(cg.storedBits >= 0 && cg.storedBits <= stride_ &&
                    cg.prunedColumns >= 0 &&
                    cg.storedBits + cg.prunedColumns <= kWeightBits,
                "group ", idx, " stores ", cg.storedBits, " bits over ",
                cg.prunedColumns, " pruned columns; need bits <= ",
                stride_, " and bits + pruned <= ", kWeightBits);
    PackedGroup pg = packGroup(cg.stored, cg.storedBits);
    std::uint32_t *slots =
        planes_.data() + static_cast<std::size_t>(idx * stride_ *
                                                  planeWords_);
    for (int b = 0; b < cg.storedBits; ++b)
        for (int w = 0; w < planeWords_; ++w)
            slots[b * planeWords_ + w] = static_cast<std::uint32_t>(
                pg.planes[static_cast<std::size_t>(b)] >> (32 * w));
    std::size_t i = static_cast<std::size_t>(idx);
    bits_[i] = static_cast<std::uint8_t>(cg.storedBits);
    shifts_[i] = static_cast<std::int8_t>(cg.prunedColumns);
    constants_[i] = cg.meta.constant;
}

CompressedRowPlanes
CompressedRowPlanes::compress(const Int8Tensor &codes,
                              std::int64_t groupSize, int targetColumns,
                              PruneStrategy strategy)
{
    BBS_REQUIRE(targetColumns >= 0 && targetColumns <= kMaxPrunedColumns,
                "target columns must be 0..", kMaxPrunedColumns);
    CompressedRowPlanes out =
        allocate(codes.shape().dim(0), codes.shape().channelSize(),
                 groupSize, kWeightBits - targetColumns);
    parallelFor(out.groupCount(), [&](std::int64_t idx) {
        std::int64_t o = idx / out.groupsPerRow_;
        std::int64_t g = idx % out.groupsPerRow_;
        std::span<const std::int8_t> group = codes.channel(o).subspan(
            static_cast<std::size_t>(out.groupBegin(g)),
            static_cast<std::size_t>(out.groupMembers(g)));
        out.setGroup(idx, compressGroup(group, targetColumns, strategy));
    });
    return out;
}

CompressedRowPlanes
CompressedRowPlanes::prepare(std::span<const CompressedGroup> groups,
                             std::span<const std::int64_t> rowOffsets,
                             std::int64_t cols, std::int64_t groupSize)
{
    BBS_REQUIRE(!rowOffsets.empty(), "rowOffsets must have rows+1 entries");
    int stride = 1;
    for (const CompressedGroup &cg : groups)
        stride = std::max(stride, cg.storedBits);
    CompressedRowPlanes out = allocate(
        static_cast<std::int64_t>(rowOffsets.size()) - 1, cols, groupSize,
        stride);
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
            out.setGroup(o * out.groupsPerRow_ + g, cg);
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
CompressedRowPlanes::viewExternal(const std::uint32_t *planes,
                                  const std::uint8_t *bits,
                                  const std::int8_t *shifts,
                                  const std::int32_t *constants,
                                  std::int64_t rows, std::int64_t cols,
                                  std::int64_t groupSize, int stride)
{
    BBS_REQUIRE(planes != nullptr && bits != nullptr && shifts != nullptr &&
                    constants != nullptr,
                "viewExternal needs non-null array bases");
    BBS_REQUIRE(rows > 0 && cols > 0, "viewExternal needs a positive shape");
    BBS_REQUIRE(groupSize >= 1 && groupSize <= 64,
                "group size must be 1..64, got ", groupSize);
    BBS_REQUIRE(stride >= 1 && stride <= kWeightBits,
                "plane stride must be 1..", kWeightBits, ", got ", stride);
    CompressedRowPlanes out;
    out.rows_ = rows;
    out.cols_ = cols;
    out.groupSize_ = groupSize;
    out.groupsPerRow_ = (cols + groupSize - 1) / groupSize;
    out.stride_ = stride;
    out.planeWords_ = planeWordsFor(groupSize);
    out.view_ = {planes, bits, shifts, constants};
    return out;
}

double
CompressedRowPlanes::meanStoredBits() const
{
    if (rows_ == 0 || groupsPerRow_ == 0)
        return 0.0;
    double bitCount = 0.0;
    for (std::int64_t o = 0; o < rows_; ++o)
        for (std::int64_t g = 0; g < groupsPerRow_; ++g)
            bitCount += static_cast<double>(bits(o, g)) * groupMembers(g);
    return bitCount / (static_cast<double>(rows_) *
                       static_cast<double>(cols_));
}

Int8Tensor
CompressedRowPlanes::decompress() const
{
    BBS_REQUIRE(rows_ > 0 && cols_ > 0, "nothing to decompress");
    Int8Tensor out(Shape{rows_, cols_});
    for (std::int64_t o = 0; o < rows_; ++o) {
        for (std::int64_t g = 0; g < groupsPerRow_; ++g) {
            const std::uint32_t *slots = groupPlanes(o, g);
            int nb = bits(o, g);
            int sh = shift(o, g);
            std::int32_t c = constant(o, g);
            std::int64_t begin = groupBegin(g);
            for (int i = 0; i < groupMembers(g); ++i) {
                // The stored value: bit i of each stored column, the top
                // column the sign.
                std::int32_t stored = 0;
                for (int b = 0; b < nb; ++b)
                    if ((slots[b * planeWords_ + i / 32] >> (i % 32)) & 1u)
                        stored += static_cast<std::int32_t>(
                            columnWeight(b, nb));
                out.at(o, begin + i) =
                    static_cast<std::int8_t>(stored * (1 << sh) + c);
            }
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
    const std::int64_t n = activations.rows();
    const std::int64_t k = weights.rows();
    const std::int64_t numGroups = weights.groupsPerRow();
    const int stride = weights.stride();
    const int planeWords = weights.planeWords();
    const std::int64_t pairs = (n + 1) / 2;
    detail::ensureOutputShape(out, n, k);

    // Stage 1: stage each group's activation windows and sum of
    // activations once per (sample pair, group); every weight row reuses
    // them. A pair's block for one 32-column word is 16 uint32 lanes —
    // the even sample's eight planes, then the odd sample's (zeros when
    // n is odd) — one 64-byte line of the aligned arena. The caller's
    // arena (normally the calling thread's engine::ScratchArena) grows
    // to its high-water mark once, so a serving worker draining batch
    // after batch pays no per-batch allocation. CRITICAL: parallelFor
    // workers are fresh threads, and a lambda body naming a thread_local
    // arena would resolve to the *worker's own* (empty) instance — so
    // hand the workers raw pointers into the caller's buffers; they touch
    // only disjoint slices. A pair stages 2 x numGroups x 8 windows, so a
    // serving-size batch stages on the caller (common/parallel.hpp).
    scratch.reserve(n, numGroups, planeWords);
    std::uint32_t *const windows = scratch.windows.data();
    std::int32_t *const sums = scratch.sums.data();
    const std::int64_t pairWindowWords = numGroups * planeWords * 16;
    parallelFor(pairs, [&](std::int64_t p) {
        for (int s = 0; s < 2; ++s) {
            const std::int64_t r = 2 * p + s;
            for (std::int64_t g = 0; g < numGroups; ++g) {
                std::uint32_t *block = windows + p * pairWindowWords +
                                       g * planeWords * 16 + 8 * s;
                std::int32_t &sum = sums[(p * numGroups + g) * 2 + s];
                if (r >= n) {
                    for (int w = 0; w < planeWords; ++w)
                        std::fill_n(block + 16 * w, kWeightBits, 0u);
                    sum = 0;
                    continue;
                }
                std::int64_t begin = weights.groupBegin(g);
                int len = weights.groupMembers(g);
                std::int64_t total = 0;
                for (int c = 0; c < kWeightBits; ++c) {
                    std::uint64_t win = activations.window(c, r, begin, len);
                    total += columnWeight(c, kWeightBits) * std::popcount(win);
                    for (int w = 0; w < planeWords; ++w)
                        block[16 * w + c] =
                            static_cast<std::uint32_t>(win >> (32 * w));
                }
                sum = static_cast<std::int32_t>(total);
            }
        }
    }, chunkForWork(2 * numGroups * kWeightBits));

    // Stage 2: register tiles of two weight rows x two sample pairs, one
    // dispatched call per tile over the whole row of groups. An odd last
    // weight row or pair is passed twice, and its duplicate outputs store
    // the same value twice; the missing odd sample's outputs are dropped.
    // Each output is written by one task.
    //
    // Threads claim contiguous blocks of tile rows. A tile row's work is
    // each plane word of its two weight rows against both pairs' window
    // blocks of every tile; a block carries at least kMinChunkWork of it
    // and at least one 64-byte line of every output row (8 tile rows of
    // two int32 columns), so threads share output lines only at block
    // edges.
    const SimdKernels &simd = simdKernels(); // resolved once per GEMM
    const std::int64_t tileRowWork =
        4 * ((pairs + 1) / 2) * numGroups * stride * planeWords;
    constexpr std::int64_t kTileRowsPerLine =
        kCacheLineBytes / (2 * sizeof(std::int32_t));
    auto rowRef = [&](std::int64_t o) {
        return CompressedRowRef{weights.groupPlanes(o, 0),
                                weights.bits().data() + o * numGroups,
                                weights.shifts().data() + o * numGroups,
                                weights.constants().data() + o * numGroups};
    };
    auto pairRef = [&](std::int64_t p) {
        return WindowPairRef{windows + p * pairWindowWords,
                             sums + p * numGroups * 2};
    };
    parallelFor((k + 1) / 2, [&](std::int64_t t) {
        const std::int64_t o[2] = {2 * t, std::min(2 * t + 1, k - 1)};
        const CompressedRowRef w[2] = {rowRef(o[0]), rowRef(o[1])};
        for (std::int64_t p0 = 0; p0 < pairs; p0 += 2) {
            const std::int64_t p[2] = {p0, std::min(p0 + 1, pairs - 1)};
            const WindowPairRef a[2] = {pairRef(p[0]), pairRef(p[1])};
            std::int32_t acc[8] = {};
            simd.compressedGemmTile(w, a, numGroups, stride, planeWords,
                                    acc);
            for (int i = 0; i < 2; ++i)
                for (int j = 0; j < 2; ++j)
                    for (int s = 0; s < 2; ++s) {
                        std::int64_t r = 2 * p[j] + s;
                        if (r < n)
                            out.at(r, o[i]) = acc[4 * i + 2 * j + s];
                    }
        }
    }, std::max(kTileRowsPerLine, chunkForWork(tileRowWork)));
}

} // namespace bbs
