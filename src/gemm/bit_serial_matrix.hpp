/**
 * @file
 * Bit-serial activation matrix: a whole INT8 matrix packed once into
 * `[bit][row][col-word]` uint64 planes (gemmbitserial-style layout).
 *
 * `BitPlaneTensor` (core/bitplane.hpp) packs *weights* group-wise for the
 * compressor and the accelerator models; `BitSerialMatrix` is its
 * activation-side counterpart for the GEMM engine: rows are matrix rows
 * (batch samples), columns are the shared GEMM depth, and each bit plane
 * of a row is a contiguous run of 64-column words. Packing happens once
 * per batch, after which every AND+popcount kernel — the dense 2x1x2 tile
 * and the compressed-domain GEMM — streams the planes cache-linearly.
 *
 * Columns are padded up to a multiple of 64 with zero bits; zero bits
 * contribute nothing to any popcount, so the padding never affects
 * results. Row planes are additionally padded to a whole number of cache
 * lines (colWords is a multiple of @ref kRowPlaneWordAlign) and the
 * backing store is 64-byte aligned, so every rowPlane() pointer is
 * 64-byte aligned and the SIMD kernels' vector loads never straddle a
 * cache line.
 */
#ifndef BBS_GEMM_BIT_SERIAL_MATRIX_HPP
#define BBS_GEMM_BIT_SERIAL_MATRIX_HPP

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/bit_utils.hpp"
#include "simd/simd.hpp"
#include "tensor/tensor.hpp"

namespace bbs {

/** Words per row plane are padded to this multiple (64 B = one cache
 *  line), so row-plane starts stay 64-byte aligned. */
inline constexpr std::int64_t kRowPlaneWordAlign =
    static_cast<std::int64_t>(kCacheLineBytes / sizeof(std::uint64_t));

/**
 * Value sum encoded by eight aligned window planes (plane c's popcount
 * weighs columnWeight(c)): rangeSum's reduction. Dispatches to the SIMD
 * kernel layer (exact at every level).
 */
inline std::int64_t
planeWindowSum(const std::uint64_t *planes)
{
    return simdKernels().weightedPlaneSum(planes);
}

/**
 * An INT8 matrix packed into two's-complement bit planes, one uint64 word
 * per 64 columns, layout `[bit][row][col-word]` with 64-column alignment.
 */
class BitSerialMatrix
{
  public:
    BitSerialMatrix() = default;

    /** Pack a rank-2 tensor [rows, cols]. */
    static BitSerialMatrix pack(const Int8Tensor &m);

    /** Pack a flat row-major value sequence of @p rows x @p cols. */
    static BitSerialMatrix pack(std::span<const std::int8_t> values,
                                std::int64_t rows, std::int64_t cols);

    /**
     * Pack into an existing matrix, reusing its plane storage when the
     * capacity suffices (the hot-path form: a serving worker repacking
     * each batch's activations into its scratch arena allocates only
     * until the largest batch has been seen).
     */
    static void packInto(const Int8Tensor &m, BitSerialMatrix &into);
    static void packInto(std::span<const std::int8_t> values,
                         std::int64_t rows, std::int64_t cols,
                         BitSerialMatrix &into);

    /** Grow plane-storage capacity for a future packInto of
     *  @p rows x @p cols (plan-creation pre-sizing). */
    void reserve(std::int64_t rows, std::int64_t cols);

    /**
     * Non-owning view over externally held plane words in this class's
     * exact layout (the mmap model store: the container payload IS the
     * packed layout, so "loading" is this pointer fixup). @p words must
     * stay valid for the matrix's lifetime, hold
     * `kWeightBits * rows * colWords` words with @p colWords ==
     * paddedColWords(cols), and be 64-byte aligned (the kernels' vector
     * loads assume it). Every read path — kernels, window(), unpack() —
     * behaves bit-identically to an owned packing of the same values.
     */
    static BitSerialMatrix viewExternal(const std::uint64_t *words,
                                        std::int64_t rows,
                                        std::int64_t cols);

    /** True for viewExternal matrices (storage owned elsewhere). */
    bool mappedView() const { return view_ != nullptr; }

    /** Padded words per row plane for @p cols columns: cols rounded up
     *  to 64, then to whole cache lines (kRowPlaneWordAlign). */
    static std::int64_t
    paddedColWords(std::int64_t cols)
    {
        std::int64_t usedWords = (cols + 63) / 64;
        return (usedWords + kRowPlaneWordAlign - 1) / kRowPlaneWordAlign *
               kRowPlaneWordAlign;
    }

    /** All plane words, layout [bit][row][col-word] (the store writer's
     *  payload source; for views, the external memory). */
    std::span<const std::uint64_t>
    planeWords() const
    {
        return {view_ != nullptr ? view_ : words_.data(),
                static_cast<std::size_t>(kWeightBits * rows_ * colWords_)};
    }

    bool empty() const { return rows_ == 0 || cols_ == 0; }
    std::int64_t rows() const { return rows_; }
    std::int64_t cols() const { return cols_; }
    /**
     * Words per row plane: cols rounded up to a multiple of 64, then up
     * to a multiple of kRowPlaneWordAlign (the extra words hold zero
     * bits, which no popcount can observe). Being a cache-line multiple
     * over a 64-byte-aligned base keeps every rowPlane() aligned.
     */
    std::int64_t colWords() const { return colWords_; }
    /**
     * Words actually holding columns (cols rounded up to a multiple of
     * 64, without the cache-line padding). Compute loops bound by this;
     * the padded tail words are zero and would only add wasted
     * AND+popcount work.
     */
    std::int64_t usedColWords() const { return (cols_ + 63) / 64; }
    int bits() const { return kWeightBits; }

    /**
     * Plane @p b of row @p r: @ref colWords words, column c at word c/64,
     * bit c%64. Contiguous and 64-byte aligned — the GEMM kernels walk it
     * with a raw pointer.
     */
    const std::uint64_t *
    rowPlane(int b, std::int64_t r) const
    {
        return (view_ != nullptr ? view_ : words_.data()) +
               static_cast<std::size_t>(
                   (static_cast<std::int64_t>(b) * rows_ + r) * colWords_);
    }

    /**
     * 64-bit window of plane @p b, row @p r, columns [begin, begin+len):
     * column begin+i at bit i, bits at and above @p len zero. Handles
     * windows that straddle a word boundary; @p len must be 1..64 and the
     * window must lie inside the padded column range.
     */
    std::uint64_t
    window(int b, std::int64_t r, std::int64_t begin, int len) const
    {
        const std::uint64_t *plane = rowPlane(b, r);
        std::int64_t word = begin >> 6;
        int off = static_cast<int>(begin & 63);
        std::uint64_t w = plane[word] >> off;
        if (off + len > 64)
            w |= plane[word + 1] << (64 - off);
        if (len < 64)
            w &= (1ull << len) - 1ull;
        return w;
    }

    /**
     * Sum of row @p r's values over columns [begin, begin+len), computed
     * from the planes (8 popcounts). This is the sum-of-activations term
     * the compressed-domain GEMM feeds the BBS-constant multiplier.
     */
    std::int64_t
    rangeSum(std::int64_t r, std::int64_t begin, int len) const
    {
        std::uint64_t planes[kWeightBits];
        for (int b = 0; b < kWeightBits; ++b)
            planes[b] = window(b, r, begin, len);
        return planeWindowSum(planes);
    }

    /** Reconstruct the INT8 matrix (exact inverse of pack). */
    Int8Tensor unpack() const;

  private:
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::int64_t colWords_ = 0;
    /** Plane-major storage: word [(b * rows + r) * colWords + w];
     *  64-byte-aligned base. Unused (empty) in view mode. */
    AlignedVector<std::uint64_t> words_;
    /** Non-null = view mode: plane words live in external memory (an
     *  mmap'd container); same layout, storage owned by the view's
     *  creator. Cleared by packInto (packing re-owns storage). */
    const std::uint64_t *view_ = nullptr;
};

} // namespace bbs

#endif // BBS_GEMM_BIT_SERIAL_MATRIX_HPP
