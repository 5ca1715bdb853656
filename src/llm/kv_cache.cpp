#include "llm/kv_cache.hpp"

#include "common/logging.hpp"
#include "core/bitplane.hpp"
#include "gemm/gemm.hpp"
#include "simd/simd.hpp"

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

} // namespace

KvCache::KvCache(const KvCacheConfig &cfg) : cfg_(cfg)
{
    BBS_REQUIRE(cfg.layers > 0 && cfg.heads > 0, "KvCache needs layers/heads");
    BBS_REQUIRE(cfg.dHead >= 1 && cfg.dHead <= 64,
                "KvCache head width must be 1..64 (one packGroup per "
                "token), got ", cfg.dHead);
    BBS_REQUIRE(cfg.capacity > 0, "KvCache needs a positive capacity");
    cfg_.capacity = (cfg.capacity + 63) / 64 * 64;
    vWordsPerDim_ = cfg_.capacity / 64;

    std::int64_t planes = cfg_.layers * cfg_.heads;
    // resize() value-initialises: every plane word starts zero, which is
    // the packed encoding of value 0 — unwritten tokens are
    // indistinguishable from packed zeros.
    kWords_.resize(static_cast<std::size_t>(planes * cfg_.capacity *
                                            kWeightBits));
    vWords_.resize(static_cast<std::size_t>(planes * cfg_.dHead *
                                            vWordsPerDim_ * kWeightBits));
    kScales_.resize(static_cast<std::size_t>(cfg_.layers * cfg_.capacity),
                    1.0f);
    vScales_.resize(static_cast<std::size_t>(cfg_.layers * cfg_.capacity),
                    1.0f);
}

std::int64_t
KvCache::residentBytes() const
{
    return static_cast<std::int64_t>(
        (kWords_.size() + vWords_.size()) * sizeof(std::uint64_t) +
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

    std::int64_t word = pos >> 6;
    std::uint64_t bit = 1ull << (pos & 63);
    for (std::int64_t h = 0; h < cfg_.heads; ++h) {
        // K: the token's per-head k-vector is one packGroup, whose eight
        // plane words ARE the token's group.
        PackedGroup pg = packGroup(
            k.subspan(static_cast<std::size_t>(h * cfg_.dHead),
                      static_cast<std::size_t>(cfg_.dHead)));
        std::uint64_t *kg = kWords_.data() + kOffset(layer, h, pos);
        for (int b = 0; b < kWeightBits; ++b)
            kg[b] = pg.planes[static_cast<std::size_t>(b)];

        // V: set bit pos%64 in each plane of every dimension's group for
        // word pos/64. Storage starts zero and tokens only ever OR bits
        // in, so no read-modify cycle can disturb earlier tokens.
        const std::int8_t *vRow =
            v.data() + static_cast<std::size_t>(h * cfg_.dHead);
        for (std::int64_t d = 0; d < cfg_.dHead; ++d) {
            std::uint8_t enc = static_cast<std::uint8_t>(vRow[d]);
            std::uint64_t *vg = vWords_.data() + vOffset(layer, h, d, word);
            for (int b = 0; b < kWeightBits; ++b)
                if ((enc >> b) & 1u)
                    vg[b] |= bit;
        }
    }
    kScales_[static_cast<std::size_t>(layer * cfg_.capacity + pos)] = kScale;
    vScales_[static_cast<std::size_t>(layer * cfg_.capacity + pos)] = vScale;
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
    std::uint64_t qw[kWeightBits];
    for (int b = 0; b < kWeightBits; ++b)
        qw[b] = qm.rowPlane(b, 0)[0];
    bbs::detail::ensureOutputShape(out, 1, tokens);
    const SimdKernels &simd = simdKernels();
    const std::uint64_t *kg = kGroup(layer, head, 0);
    for (std::int64_t t = 0; t < tokens; ++t, kg += kWeightBits)
        out.at(0, t) = static_cast<std::int32_t>(
            simd.compressedGroupDot(kg, kWeightBits, qw));
}

void
KvCache::values(std::int64_t layer, std::int64_t head,
                const engine::PackedOperand &c, Int32Tensor &out) const
{
    const BitSerialMatrix &cm = denseRow(c, "the probability row");
    BBS_REQUIRE(cm.cols() <= cfg_.capacity, "probability row width ",
                cm.cols(), " exceeds the cache capacity ", cfg_.capacity);
    std::int64_t acc[64] = {}; // dHead <= 64
    const SimdKernels &simd = simdKernels();
    for (std::int64_t w = 0; w < cm.usedColWords(); ++w) {
        std::uint64_t cw[kWeightBits];
        for (int b = 0; b < kWeightBits; ++b)
            cw[b] = cm.rowPlane(b, 0)[w];
        for (std::int64_t d = 0; d < cfg_.dHead; ++d)
            acc[d] += simd.compressedGroupDot(vGroup(layer, head, d, w),
                                              kWeightBits, cw);
    }
    bbs::detail::ensureOutputShape(out, 1, cfg_.dHead);
    for (std::int64_t d = 0; d < cfg_.dHead; ++d)
        out.at(0, d) = static_cast<std::int32_t>(acc[d]);
}

} // namespace bbs::llm
