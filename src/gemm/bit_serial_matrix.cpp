#include "gemm/bit_serial_matrix.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/bitplane.hpp"

namespace bbs {

BitSerialMatrix
BitSerialMatrix::pack(const Int8Tensor &m)
{
    BBS_REQUIRE(m.shape().rank() == 2,
                "BitSerialMatrix packs rank-2 matrices, got rank ",
                m.shape().rank());
    return pack(m.data(), m.shape().dim(0), m.shape().dim(1));
}

BitSerialMatrix
BitSerialMatrix::pack(std::span<const std::int8_t> values, std::int64_t rows,
                      std::int64_t cols)
{
    BitSerialMatrix bsm;
    packInto(values, rows, cols, bsm);
    return bsm;
}

void
BitSerialMatrix::packInto(const Int8Tensor &m, BitSerialMatrix &into)
{
    BBS_REQUIRE(m.shape().rank() == 2,
                "BitSerialMatrix packs rank-2 matrices, got rank ",
                m.shape().rank());
    packInto(m.data(), m.shape().dim(0), m.shape().dim(1), into);
}

BitSerialMatrix
BitSerialMatrix::viewExternal(const std::uint64_t *words, std::int64_t rows,
                              std::int64_t cols)
{
    BBS_REQUIRE(words != nullptr && rows > 0 && cols > 0,
                "viewExternal needs a non-null base and a positive shape");
    BBS_REQUIRE(reinterpret_cast<std::uintptr_t>(words) %
                        kCacheLineBytes ==
                    0,
                "viewExternal base must be 64-byte aligned");
    BitSerialMatrix bsm;
    bsm.rows_ = rows;
    bsm.cols_ = cols;
    bsm.colWords_ = paddedColWords(cols);
    bsm.view_ = words;
    return bsm;
}

void
BitSerialMatrix::reserve(std::int64_t rows, std::int64_t cols)
{
    if (rows <= 0 || cols <= 0)
        return;
    words_.reserve(static_cast<std::size_t>(kWeightBits * rows *
                                            paddedColWords(cols)));
}

void
BitSerialMatrix::packInto(std::span<const std::int8_t> values,
                          std::int64_t rows, std::int64_t cols,
                          BitSerialMatrix &into)
{
    BBS_REQUIRE(rows >= 0 && cols >= 0 &&
                    static_cast<std::int64_t>(values.size()) == rows * cols,
                "value count ", values.size(), " != ", rows, " x ", cols);
    BitSerialMatrix &bsm = into;
    bsm.view_ = nullptr; // packing (re)owns storage
    bsm.rows_ = rows;
    bsm.cols_ = cols;
    // Pad row planes to whole cache lines: the tail words stay zero, so
    // every kernel result is unchanged while vector loads stay aligned.
    std::int64_t usedWords = bsm.usedColWords();
    bsm.colWords_ = paddedColWords(cols);
    // assign() reuses existing capacity: repacking into a warm matrix
    // (the serving hot path) performs no allocation.
    bsm.words_.assign(static_cast<std::size_t>(kWeightBits * rows *
                                               bsm.colWords_),
                      0);
    // Each 64-column chunk of a row packs through the same flip-diagonal
    // transpose the weight-side packGroup uses; rows are independent, so
    // a large batch packs in parallel, in chunks of rows sized by their
    // bytes (a serving-size batch of narrow rows packs on the caller).
    std::int64_t colWords = bsm.colWords_;
    std::uint64_t *words = bsm.words_.data();
    parallelFor(rows, [&](std::int64_t r) {
        const std::int8_t *row = values.data() + r * cols;
        for (std::int64_t w = 0; w < usedWords; ++w) {
            std::int64_t begin = w * 64;
            std::size_t len = static_cast<std::size_t>(
                std::min<std::int64_t>(64, cols - begin));
            PackedGroup pg = packGroup(
                std::span<const std::int8_t>(row + begin, len));
            for (int b = 0; b < kWeightBits; ++b)
                words[(static_cast<std::int64_t>(b) * rows + r) * colWords +
                      w] = pg.planes[static_cast<std::size_t>(b)];
        }
    }, chunkForWork(cols));
}

Int8Tensor
BitSerialMatrix::unpack() const
{
    Int8Tensor out(Shape{rows_, cols_});
    std::int64_t usedWords = usedColWords();
    for (std::int64_t r = 0; r < rows_; ++r) {
        for (std::int64_t w = 0; w < usedWords; ++w) {
            std::int64_t begin = w * 64;
            int len = static_cast<int>(
                std::min<std::int64_t>(64, cols_ - begin));
            PackedGroup pg;
            pg.size = len;
            pg.bits = kWeightBits;
            for (int b = 0; b < kWeightBits; ++b)
                pg.planes[static_cast<std::size_t>(b)] =
                    window(b, r, begin, len);
            unpackGroup(pg, std::span<std::int8_t>(
                                &out.at(r, begin),
                                static_cast<std::size_t>(len)));
        }
    }
    return out;
}

} // namespace bbs
