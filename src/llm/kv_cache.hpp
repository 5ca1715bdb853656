/**
 * @file
 * Compressed-domain KV cache: per-(layer, head) key/value bit planes
 * stored as compact 8-word plane groups, appended to incrementally.
 *
 * Each decode step packs ONLY the new token's K/V rows into the existing
 * planes — prior tokens are never repacked — and attention's score and
 * weighted-value products run over the dispatched AND+popcount kernel
 * `compressedGroupDot` (with all eight two's-complement planes stored):
 * one call per token for a score, one per (dimension, 64-token word) for
 * a weighted value.
 *
 * Layouts (one 64-byte-aligned, zero-initialised store each, fixed
 * capacity chosen at construction, no padding words):
 *
 *  - **K, token-major**: `[layer][head][token][bit]`. dHead <= 64, so a
 *    token's whole k-vector is one `packGroup` and its 8 plane words are
 *    the token's group (bit d of plane b = bit b of k[d]) — word-identical
 *    to row t of `BitSerialMatrix::pack` of the [capacity, dHead] token
 *    matrix (the append test pins this).
 *  - **V, dim-major**: `[layer][head][dim][word][bit]`, one group per
 *    dimension per 64 tokens: token t sets bit t%64 of word t/64's planes
 *    — word-identical to `BitSerialMatrix::pack` of the [dHead, capacity]
 *    transpose.
 *
 * `scores()` takes a packed [1, dHead] query; `values()` takes a packed
 * probability row of width c <= capacity and reads only the ceil(c/64)
 * words it covers. Its columns at and beyond the token count must be
 * zero; V bits there are zero too, so either side ANDs them away.
 *
 * Concurrency contract: one writer (the decode thread). Concurrent
 * reader threads may consume the committed prefix after an acquire of
 * `length()`: every K group of a token < length, and V words strictly
 * below length/64 (the in-fill V word is writer-private until it fills
 * — a word holds 64 tokens' bits, so readers bound word access to
 * `length() >> 6`). The decode thread itself reads its own writes and
 * has no such restriction.
 */
#ifndef BBS_LLM_KV_CACHE_HPP
#define BBS_LLM_KV_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "engine/packed_operand.hpp"

namespace bbs::llm {

/** Shape of one sequence's cache. */
struct KvCacheConfig
{
    std::int64_t layers = 0;
    std::int64_t heads = 0;
    std::int64_t dHead = 0;    ///< per-head width, 1..64
    std::int64_t capacity = 0; ///< max tokens; rounded up to 64 inside
};

/** One sequence's K/V plane groups for every (layer, head). */
class KvCache
{
  public:
    /** Allocates the full-capacity plane stores (zeroed). */
    explicit KvCache(const KvCacheConfig &cfg);

    KvCache(const KvCache &) = delete;
    KvCache &operator=(const KvCache &) = delete;

    std::int64_t layers() const { return cfg_.layers; }
    std::int64_t heads() const { return cfg_.heads; }
    std::int64_t dHead() const { return cfg_.dHead; }
    std::int64_t capacity() const { return cfg_.capacity; }

    /** Committed token count (acquire — pairs with commit's release). */
    std::int64_t
    length() const
    {
        return length_.load(std::memory_order_acquire);
    }

    /** Bytes resident in plane stores + scales (capacity, not length —
     *  the stores are fully allocated up front). */
    std::int64_t residentBytes() const;

    /**
     * Append token @p pos's K/V rows for one layer: @p k / @p v are the
     * head-major int8 rows (heads * dHead values), @p kScale / @p vScale
     * the row's dequantisation scales (one per layer-token, shared by
     * every head). @p pos must be length() + (tokens appended this step
     * so far) — the layer loop appends each layer at the same @p pos,
     * then commit() publishes. Only the decode thread calls this.
     */
    void append(std::int64_t layer, std::int64_t pos,
                std::span<const std::int8_t> k, float kScale,
                std::span<const std::int8_t> v, float vScale);

    /** Publish @p tokens committed tokens (release). */
    void
    commit(std::int64_t tokens)
    {
        length_.store(tokens, std::memory_order_release);
    }

    float
    kScale(std::int64_t layer, std::int64_t t) const
    {
        return kScales_[static_cast<std::size_t>(layer * cfg_.capacity + t)];
    }
    float
    vScale(std::int64_t layer, std::int64_t t) const
    {
        return vScales_[static_cast<std::size_t>(layer * cfg_.capacity + t)];
    }

    /**
     * Attention scores: @p q is the packed [1, dHead] query operand;
     * writes @p out [1, tokens] of integer dots against K tokens
     * 0..tokens-1 (1 <= tokens <= capacity).
     */
    void scores(std::int64_t layer, std::int64_t head,
                const engine::PackedOperand &q, std::int64_t tokens,
                Int32Tensor &out) const;

    /**
     * Weighted-value product: @p c is the packed [1, width] quantised
     * probability row, width <= capacity (columns at and beyond the
     * token count MUST be zero); writes @p out [1, dHead].
     */
    void values(std::int64_t layer, std::int64_t head,
                const engine::PackedOperand &c, Int32Tensor &out) const;

    /** Token @p t's K group: kWeightBits plane words, bit d of plane b
     *  = bit b of k[d]. */
    const std::uint64_t *
    kGroup(std::int64_t layer, std::int64_t head, std::int64_t t) const
    {
        return kWords_.data() + kOffset(layer, head, t);
    }

    /** The V group of dimension @p d over tokens 64w..64w+63:
     *  kWeightBits plane words, bit i of plane b = bit b of v[64w+i][d]. */
    const std::uint64_t *
    vGroup(std::int64_t layer, std::int64_t head, std::int64_t d,
           std::int64_t w) const
    {
        return vWords_.data() + vOffset(layer, head, d, w);
    }

  private:
    std::int64_t
    planeIndex(std::int64_t layer, std::int64_t head) const
    {
        return layer * cfg_.heads + head;
    }
    std::int64_t
    kOffset(std::int64_t layer, std::int64_t head, std::int64_t t) const
    {
        return (planeIndex(layer, head) * cfg_.capacity + t) * kWeightBits;
    }
    std::int64_t
    vOffset(std::int64_t layer, std::int64_t head, std::int64_t d,
            std::int64_t w) const
    {
        return ((planeIndex(layer, head) * cfg_.dHead + d) * vWordsPerDim_ +
                w) *
               kWeightBits;
    }

    KvCacheConfig cfg_;
    std::int64_t vWordsPerDim_ = 0; ///< capacity / 64
    AlignedVector<std::uint64_t> kWords_;
    AlignedVector<std::uint64_t> vWords_;
    std::vector<float> kScales_; ///< [layer * capacity + token]
    std::vector<float> vScales_;
    std::atomic<std::int64_t> length_{0};
};

} // namespace bbs::llm

#endif // BBS_LLM_KV_CACHE_HPP
