/**
 * @file
 * KV cache of plain INT8 rows: per (layer, head), one dHead-wide key row
 * and one value row per token, appended to incrementally.
 *
 * BBS compresses the projection weights offline; K and V are dense INT8
 * activations that nothing prunes, so attention's products over them are
 * exact int8 x int8 -> int32 dot loops (the compiler vectorizes them
 * under -march=native), not bit-serial ones.
 *
 * Layout: K and V are each one 64-byte-aligned, zero-initialised store
 * `[layer][head][token][dHead]`, so a (layer, head)'s tokens are
 * contiguous rows and an append is one row copy per head for K and one
 * for V. Beside them sit one K and one V dequantisation scale per
 * (layer, token), shared by every head. Capacity is exactly the
 * requested token count, at most kMaxGemmDepth: that bound keeps every
 * weighted-value sum (capacity products of at most 2^14) inside int32.
 *
 * Concurrency: one writer appends; a step's attention reads the rows
 * after its own appends. TransformerModel::forward appends every row of
 * a layer on the calling thread, then runs that layer's attention on
 * pool helpers, which see the appends through the pool's mutex handoff.
 * Readers in other threads consume only the committed prefix, after an
 * acquire of `length()`: rows of tokens < length are never written
 * again, and appends write only rows at or beyond it.
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
    std::int64_t capacity = 0; ///< max tokens, 1..kMaxGemmDepth
};

/** One sequence's K/V rows for every (layer, head). */
class KvCache
{
  public:
    /** Allocates the full-capacity row stores (zeroed). */
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

    /** Bytes resident in row stores + scales (capacity, not length —
     *  the stores are fully allocated up front). */
    std::int64_t residentBytes() const;

    /**
     * Append token @p pos's K/V rows for one layer: @p k / @p v are the
     * head-major int8 rows (heads * dHead values), @p kScale / @p vScale
     * the row's dequantisation scales (one per layer-token, shared by
     * every head). The layer loop appends each layer at the same @p pos,
     * then commit() publishes. Only the writer calls this.
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

    /** Token @p t's dHead-wide K row of (@p layer, @p head). */
    const std::int8_t *
    kRow(std::int64_t layer, std::int64_t head, std::int64_t t) const
    {
        return kRows_.data() + rowOffset(layer, head, t);
    }
    /** Token @p t's dHead-wide V row of (@p layer, @p head). */
    const std::int8_t *
    vRow(std::int64_t layer, std::int64_t head, std::int64_t t) const
    {
        return vRows_.data() + rowOffset(layer, head, t);
    }

    /**
     * Attention scores: out[t] = q . k_t for every t < out.size()
     * (1..capacity tokens); @p q holds dHead values.
     */
    void scores(std::int64_t layer, std::int64_t head,
                std::span<const std::int8_t> q,
                std::span<std::int32_t> out) const;

    /**
     * Weighted values: out[d] = sum over t < c.size() of c[t] * v_t[d];
     * @p c is the quantised probability row (at most capacity tokens),
     * @p out holds dHead values.
     */
    void values(std::int64_t layer, std::int64_t head,
                std::span<const std::int8_t> c,
                std::span<std::int32_t> out) const;

    /**
     * scores() and values() on bit-plane packed rows, with the same
     * results: @p q is a packed [1, dHead] query; @p c a packed
     * [1, width] probability row, width <= capacity, whose columns at and
     * beyond the token count are zero. They decode 64 columns at a time
     * into a stack buffer and run the int8 loops, so they need no
     * scratch. They stay for servebench's attention replay until a
     * benchmark change moves it to the int8 entry points.
     */
    void scores(std::int64_t layer, std::int64_t head,
                const engine::PackedOperand &q, std::int64_t tokens,
                Int32Tensor &out) const;
    void values(std::int64_t layer, std::int64_t head,
                const engine::PackedOperand &c, Int32Tensor &out) const;

  private:
    std::int64_t
    rowOffset(std::int64_t layer, std::int64_t head, std::int64_t t) const
    {
        return ((layer * cfg_.heads + head) * cfg_.capacity + t) *
               cfg_.dHead;
    }

    KvCacheConfig cfg_;
    AlignedVector<std::int8_t> kRows_; ///< [layer][head][token][dHead]
    AlignedVector<std::int8_t> vRows_;
    std::vector<float> kScales_; ///< [layer * capacity + token]
    std::vector<float> vScales_;
    std::atomic<std::int64_t> length_{0};
};

} // namespace bbs::llm

#endif // BBS_LLM_KV_CACHE_HPP
