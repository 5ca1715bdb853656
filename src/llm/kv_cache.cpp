#include "llm/kv_cache.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/bitplane.hpp"
#include "gemm/gemm.hpp"

namespace bbs::llm {

namespace {

/** The one-row dense matrix behind @p op, checked to be [1, *]. */
const BitSerialMatrix &
denseRow(const engine::PackedOperand &op, const char *what)
{
    BBS_REQUIRE(!op.compressed() && op.rows() == 1, what,
                " must be a dense one-row bit-plane operand");
    return op.dense();
}

/** Columns [64w, 64w + @p out.size()) of the packed one-row @p m. */
void
decodeWord(const BitSerialMatrix &m, std::int64_t w,
           std::span<std::int8_t> out)
{
    PackedGroup pg;
    pg.size = static_cast<int>(out.size());
    for (int b = 0; b < kWeightBits; ++b)
        pg.planes[static_cast<std::size_t>(b)] = m.rowPlane(b, 0)[w];
    unpackGroup(pg, out);
}

/** out[t] = q . k_t over @p n contiguous dHead-wide rows from @p k. */
void
dotRows(const std::int8_t *q, const std::int8_t *k, std::int64_t n,
        std::int64_t dHead, std::int32_t *out)
{
    for (std::int64_t t = 0; t < n; ++t, k += dHead) {
        std::int32_t s = 0;
        for (std::int64_t d = 0; d < dHead; ++d)
            s += static_cast<std::int32_t>(q[d]) * k[d];
        out[t] = s;
    }
}

/** acc[d] += sum over t < @p n of c[t] * v_t[d], rows from @p v. */
void
accumulateRows(const std::int8_t *c, const std::int8_t *v, std::int64_t n,
               std::int64_t dHead, std::int32_t *acc)
{
    for (std::int64_t t = 0; t < n; ++t, v += dHead) {
        const std::int32_t ct = c[t];
        for (std::int64_t d = 0; d < dHead; ++d)
            acc[d] += ct * v[d];
    }
}

} // namespace

KvCache::KvCache(const KvCacheConfig &cfg) : cfg_(cfg)
{
    BBS_REQUIRE(cfg.layers > 0 && cfg.heads > 0, "KvCache needs layers/heads");
    BBS_REQUIRE(cfg.dHead >= 1 && cfg.dHead <= 64,
                "KvCache head width must be 1..64, got ", cfg.dHead);
    BBS_REQUIRE(cfg.capacity >= 1 && cfg.capacity <= kMaxGemmDepth,
                "KvCache capacity ", cfg.capacity, " outside 1..",
                kMaxGemmDepth, " (the INT32 weighted-value bound)");

    // resize() value-initialises: unwritten tokens are zero rows.
    std::size_t rowValues = static_cast<std::size_t>(
        cfg_.layers * cfg_.heads * cfg_.capacity * cfg_.dHead);
    kRows_.resize(rowValues);
    vRows_.resize(rowValues);
    kScales_.resize(static_cast<std::size_t>(cfg_.layers * cfg_.capacity),
                    1.0f);
    vScales_.resize(static_cast<std::size_t>(cfg_.layers * cfg_.capacity),
                    1.0f);
}

std::int64_t
KvCache::residentBytes() const
{
    return static_cast<std::int64_t>(
        kRows_.size() + vRows_.size() +
        (kScales_.size() + vScales_.size()) * sizeof(float));
}

void
KvCache::append(std::int64_t layer, std::int64_t pos,
                std::span<const std::int8_t> k, float kScale,
                std::span<const std::int8_t> v, float vScale)
{
    BBS_ASSERT(layer >= 0 && layer < cfg_.layers, "layer out of range");
    BBS_ASSERT(pos >= 0 && pos < cfg_.capacity, "KV cache overflow: pos ",
               pos, " at capacity ", cfg_.capacity);
    BBS_ASSERT(static_cast<std::int64_t>(k.size()) ==
                       cfg_.heads * cfg_.dHead &&
                   k.size() == v.size(),
               "append rows must hold heads*dHead values");

    for (std::int64_t h = 0; h < cfg_.heads; ++h) {
        std::size_t from = static_cast<std::size_t>(h * cfg_.dHead);
        std::size_t to = static_cast<std::size_t>(rowOffset(layer, h, pos));
        std::copy_n(k.data() + from, cfg_.dHead, kRows_.data() + to);
        std::copy_n(v.data() + from, cfg_.dHead, vRows_.data() + to);
    }
    kScales_[static_cast<std::size_t>(layer * cfg_.capacity + pos)] = kScale;
    vScales_[static_cast<std::size_t>(layer * cfg_.capacity + pos)] = vScale;
}

void
KvCache::scores(std::int64_t layer, std::int64_t head,
                std::span<const std::int8_t> q,
                std::span<std::int32_t> out) const
{
    std::int64_t tokens = static_cast<std::int64_t>(out.size());
    BBS_REQUIRE(static_cast<std::int64_t>(q.size()) == cfg_.dHead,
                "query width ", q.size(), " != head width ", cfg_.dHead);
    BBS_REQUIRE(tokens >= 1 && tokens <= cfg_.capacity, "score tokens ",
                tokens, " outside 1..", cfg_.capacity);
    dotRows(q.data(), kRow(layer, head, 0), tokens, cfg_.dHead, out.data());
}

void
KvCache::values(std::int64_t layer, std::int64_t head,
                std::span<const std::int8_t> c,
                std::span<std::int32_t> out) const
{
    std::int64_t tokens = static_cast<std::int64_t>(c.size());
    BBS_REQUIRE(tokens <= cfg_.capacity, "probability row width ", tokens,
                " exceeds the cache capacity ", cfg_.capacity);
    BBS_REQUIRE(static_cast<std::int64_t>(out.size()) == cfg_.dHead,
                "weighted-value width ", out.size(), " != head width ",
                cfg_.dHead);
    std::fill(out.begin(), out.end(), 0);
    accumulateRows(c.data(), vRow(layer, head, 0), tokens, cfg_.dHead,
                   out.data());
}

void
KvCache::scores(std::int64_t layer, std::int64_t head,
                const engine::PackedOperand &q, std::int64_t tokens,
                Int32Tensor &out) const
{
    const BitSerialMatrix &qm = denseRow(q, "the query");
    BBS_REQUIRE(qm.cols() == cfg_.dHead, "query width ", qm.cols(),
                " != head width ", cfg_.dHead);
    BBS_REQUIRE(tokens >= 1 && tokens <= cfg_.capacity, "score tokens ",
                tokens, " outside 1..", cfg_.capacity);
    std::int8_t q8[64]; // dHead <= 64: one word per plane
    decodeWord(qm, 0, {q8, static_cast<std::size_t>(cfg_.dHead)});
    bbs::detail::ensureOutputShape(out, 1, tokens);
    scores(layer, head, {q8, static_cast<std::size_t>(cfg_.dHead)},
           {&out.at(0, 0), static_cast<std::size_t>(tokens)});
}

void
KvCache::values(std::int64_t layer, std::int64_t head,
                const engine::PackedOperand &c, Int32Tensor &out) const
{
    const BitSerialMatrix &cm = denseRow(c, "the probability row");
    BBS_REQUIRE(cm.cols() <= cfg_.capacity, "probability row width ",
                cm.cols(), " exceeds the cache capacity ", cfg_.capacity);
    bbs::detail::ensureOutputShape(out, 1, cfg_.dHead);
    std::int32_t *acc = &out.at(0, 0);
    std::fill_n(acc, cfg_.dHead, 0);
    for (std::int64_t w = 0; w < cm.usedColWords(); ++w) {
        std::int64_t n = std::min<std::int64_t>(64, cm.cols() - 64 * w);
        std::int8_t c8[64];
        decodeWord(cm, w, {c8, static_cast<std::size_t>(n)});
        accumulateRows(c8, vRow(layer, head, 64 * w), n, cfg_.dHead, acc);
    }
}

} // namespace bbs::llm
