/**
 * @file
 * Kernel implementations of the bit-serial dot forms declared in
 * core/dot_kernels.hpp. The engine facade (engine/session.cpp) is the
 * public route into these.
 */
#include "core/dot_kernels.hpp"

#include "common/bit_utils.hpp"
#include "common/logging.hpp"
#include "core/bitplane.hpp"
#include "simd/simd.hpp"

namespace bbs {

namespace {

std::int64_t
sumActivations(std::span<const std::int8_t> activations)
{
    return simdKernels().byteSum(
        activations.data(),
        static_cast<std::int64_t>(activations.size()));
}

/**
 * BBS bit-serial dot over packed planes (@p columnAt(b) = plane b as a
 * 64-bit column): per column, gather whichever of {ones, zeros} is fewer
 * (Eq. 2/3). Gathering iterates set bits only, so a column costs its
 * effectual bits instead of the full group size.
 */
template <typename ColumnAt>
BbsDotResult
dotPackedPlanes(ColumnAt columnAt, int bits,
                std::span<const std::int8_t> activations, std::int64_t sumA)
{
    BbsDotResult res;
    int n = static_cast<int>(activations.size());
    BitColumn m = n >= 64 ? ~0ull : (1ull << n) - 1ull;
    for (int b = 0; b < bits; ++b) {
        BitColumn col = columnAt(b);
        int ones = std::popcount(col);
        std::int64_t colSum;
        if (ones <= n - ones) {
            // Eq. 2: add activations at one-bits.
            colSum = gatherSum(col, activations);
            res.effectualOps += ones;
        } else {
            // Eq. 3: invert; subtract activations at zero-bits from sumA.
            colSum = sumA - gatherSum(~col & m, activations);
            res.effectualOps += n - ones;
            ++res.invertedColumns;
        }
        res.value += columnWeight(b, bits) * colSum;
    }
    return res;
}

/**
 * The compressed-domain dot (PE Fig 7) over packed stored columns:
 * surviving columns bit-serially with BBS skipping, their LSB at
 * significance @p prunedColumns of the reconstructed weight, plus the
 * BBS multiplier's constant * sumA for the pruned columns. The constant
 * already encodes the reconstruction offset for both strategies.
 */
template <typename ColumnAt>
BbsDotResult
dotCompressedPlanes(ColumnAt columnAt, int bits, int prunedColumns,
                    std::int32_t constant,
                    std::span<const std::int8_t> activations)
{
    std::int64_t sumA = sumActivations(activations);
    BbsDotResult res = dotPackedPlanes(columnAt, bits, activations, sumA);
    res.value <<= prunedColumns;
    res.value += static_cast<std::int64_t>(constant) * sumA;
    return res;
}

/** Column accessor over a PackedGroup's planes. */
auto
columnsOf(const PackedGroup &pg)
{
    return [&pg](int b) { return pg.planes[static_cast<std::size_t>(b)]; };
}

} // namespace

namespace detail {

std::int64_t
dotReferenceKernel(std::span<const std::int8_t> weights,
                   std::span<const std::int8_t> activations)
{
    BBS_REQUIRE(weights.size() == activations.size(),
                "dot operand size mismatch");
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < weights.size(); ++i)
        acc += static_cast<std::int64_t>(weights[i]) *
               static_cast<std::int64_t>(activations[i]);
    return acc;
}

std::int64_t
dotZeroSkipKernel(std::span<const std::int8_t> weights,
                  std::span<const std::int8_t> activations)
{
    BBS_REQUIRE(weights.size() == activations.size(),
                "dot operand size mismatch");
    PackedGroup pg = packGroup(weights);
    std::int64_t acc = 0;
    for (int b = 0; b < kWeightBits; ++b) {
        BitColumn col = pg.planes[static_cast<std::size_t>(b)];
        acc += columnWeight(b, kWeightBits) * gatherSum(col, activations);
    }
    return acc;
}

std::int64_t
dotZeroSkipScalarKernel(std::span<const std::int8_t> weights,
                        std::span<const std::int8_t> activations)
{
    BBS_REQUIRE(weights.size() == activations.size(),
                "dot operand size mismatch");
    std::int64_t acc = 0;
    for (int b = 0; b < kWeightBits; ++b) {
        std::int64_t colSum = 0;
        for (std::size_t i = 0; i < weights.size(); ++i)
            if (bitOf(weights[i], b))
                colSum += activations[i];
        acc += columnWeight(b, kWeightBits) * colSum;
    }
    return acc;
}

BbsDotResult
dotBbsKernel(std::span<const std::int8_t> weights,
             std::span<const std::int8_t> activations)
{
    BBS_REQUIRE(weights.size() == activations.size(),
                "dot operand size mismatch");
    PackedGroup pg = packGroup(weights);
    return dotPackedPlanes(columnsOf(pg), pg.bits, activations,
                           sumActivations(activations));
}

BbsDotResult
dotBbsScalarKernel(std::span<const std::int8_t> weights,
                   std::span<const std::int8_t> activations)
{
    BBS_REQUIRE(weights.size() == activations.size(),
                "dot operand size mismatch");
    BbsDotResult res;
    int n = static_cast<int>(weights.size());
    std::int64_t sumA = sumActivations(activations);

    for (int b = 0; b < kWeightBits; ++b) {
        BitColumn col = extractColumn(weights, b);
        int ones = columnPopcount(col, n);
        std::int64_t colSum;
        if (ones <= n - ones) {
            colSum = 0;
            for (int i = 0; i < n; ++i)
                if ((col >> i) & 1ull)
                    colSum += activations[static_cast<std::size_t>(i)];
            res.effectualOps += ones;
        } else {
            std::int64_t zeroSum = 0;
            for (int i = 0; i < n; ++i)
                if (!((col >> i) & 1ull))
                    zeroSum += activations[static_cast<std::size_t>(i)];
            colSum = sumA - zeroSum;
            res.effectualOps += n - ones;
            ++res.invertedColumns;
        }
        res.value += columnWeight(b, kWeightBits) * colSum;
    }
    return res;
}

BbsDotResult
dotCompressedPacked(const std::uint32_t *planes, int planeWords, int bits,
                    int prunedColumns, std::int32_t constant,
                    std::span<const std::int8_t> activations)
{
    auto columnAt = [planes, planeWords](int b) {
        const std::uint32_t *words = planes + b * planeWords;
        BitColumn col = words[0];
        if (planeWords > 1)
            col |= static_cast<BitColumn>(words[1]) << 32;
        return col;
    };
    return dotCompressedPlanes(columnAt, bits, prunedColumns, constant,
                               activations);
}

BbsDotResult
dotCompressedKernel(const CompressedGroup &cg,
                    std::span<const std::int8_t> activations)
{
    BBS_REQUIRE(cg.stored.size() == activations.size(),
                "dot operand size mismatch");
    PackedGroup pg = packGroup(cg.stored, cg.storedBits);
    return dotCompressedPlanes(columnsOf(pg), pg.bits, cg.prunedColumns,
                               cg.meta.constant, activations);
}

BbsDotResult
dotCompressedScalarKernel(const CompressedGroup &cg,
                          std::span<const std::int8_t> activations)
{
    BBS_REQUIRE(cg.stored.size() == activations.size(),
                "dot operand size mismatch");
    BbsDotResult res;
    int n = static_cast<int>(cg.stored.size());
    std::int64_t sumA = sumActivations(activations);

    for (int b = 0; b < cg.storedBits; ++b) {
        BitColumn col = extractColumn(cg.stored, b);
        int ones = columnPopcount(col, n);
        std::int64_t colSum;
        if (ones <= n - ones) {
            colSum = 0;
            for (int i = 0; i < n; ++i)
                if ((col >> i) & 1ull)
                    colSum += activations[static_cast<std::size_t>(i)];
            res.effectualOps += ones;
        } else {
            std::int64_t zeroSum = 0;
            for (int i = 0; i < n; ++i)
                if (!((col >> i) & 1ull))
                    zeroSum += activations[static_cast<std::size_t>(i)];
            colSum = sumA - zeroSum;
            res.effectualOps += n - ones;
            ++res.invertedColumns;
        }
        res.value += columnWeight(b, cg.storedBits) * colSum *
                     (1ll << cg.prunedColumns);
    }
    res.value += static_cast<std::int64_t>(cg.meta.constant) * sumA;
    return res;
}

} // namespace detail
} // namespace bbs
