#include "llm/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "gemm/gemm.hpp"

namespace bbs::llm {

namespace {

/** Deterministic small-magnitude INT8 fill (same LCG family as the
 *  autotuner's operand fill): values in [-mag, mag]. */
void
fillInt8(Int8Tensor &t, std::uint64_t seed, int mag)
{
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        t.flat(i) = static_cast<std::int8_t>(
            static_cast<std::int64_t>(state >> 33) % (2 * mag + 1) - mag);
    }
}

/**
 * Symmetric per-row INT8 quantisation: out = round(in * 127 / amax),
 * returning the dequant scale amax / 127. Reads only this row — the
 * per-row-scale contract that keeps batched runs bit-identical to
 * unbatched ones.
 */
float
quantizeRowTo(std::span<const float> in, std::int8_t *out)
{
    float amax = 0.0f;
    for (float v : in)
        amax = std::max(amax, std::fabs(v));
    if (amax == 0.0f) {
        std::fill_n(out, in.size(), std::int8_t{0});
        return 1.0f;
    }
    float inv = 127.0f / amax;
    for (std::size_t i = 0; i < in.size(); ++i) {
        long q = std::lrintf(in[i] * inv);
        out[i] = static_cast<std::int8_t>(
            std::clamp<long>(q, -127, 127));
    }
    return amax / 127.0f;
}

/** RMSNorm one row: out = x * gamma / sqrt(mean(x^2) + eps). The sum
 *  runs in double, sequentially — deterministic. */
void
rmsNormRow(std::span<const float> x, std::span<const float> gamma,
           float *out)
{
    double ss = 0.0;
    for (float v : x)
        ss += static_cast<double>(v) * static_cast<double>(v);
    float inv = 1.0f / std::sqrt(static_cast<float>(
                           ss / static_cast<double>(x.size())) +
                       1e-5f);
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = x[i] * gamma[i] * inv;
}

float
silu(float x)
{
    return x / (1.0f + std::exp(-x));
}

} // namespace

TransformerModel::TransformerModel(const TransformerConfig &cfg,
                                   engine::EngineConfig engineCfg)
    : cfg_(cfg), session_(std::move(engineCfg))
{
    BBS_REQUIRE(cfg.nHeads >= 1 && cfg.dModel % cfg.nHeads == 0,
                "dModel must divide into heads");
    std::int64_t dHead = cfg.dHead();
    BBS_REQUIRE(dHead >= 2 && dHead <= 64 && dHead % 2 == 0,
                "head width must be even (RoPE pairs) and 2..64, got ",
                dHead);
    BBS_REQUIRE(cfg.dModel % cfg.groupSize == 0 &&
                    cfg.dFf % cfg.groupSize == 0,
                "dModel and dFf must be multiples of the BBS group size");
    BBS_REQUIRE(cfg.nLayers >= 1 && cfg.vocab >= 2 && cfg.maxSeq >= 1,
                "degenerate transformer shape");
    BBS_REQUIRE(cfg.maxSeq <= kMaxGemmDepth && cfg.dFf <= kMaxGemmDepth,
                "sequence capacity / dFf exceed the INT32 GEMM depth bound");

    emb_ = Int8Tensor(Shape{cfg.vocab, cfg.dModel});
    fillInt8(emb_, cfg.seed * 1009 + 7, 63);
    embScale_ = 1.0f / 64.0f;
    wScale_ = 1.0f / (127.0f * 8.0f);

    engine::PackOptions popts;
    popts.groupSize = cfg.groupSize;
    popts.targetColumns = cfg.targetColumns;
    engine::ShapeHints hints{cfg.expectedBatch};
    std::uint64_t seed = cfg.seed * 6364136223846793005ull + 11;
    auto makePlan = [&](std::int64_t rows, std::int64_t cols) {
        Int8Tensor w(Shape{rows, cols});
        fillInt8(w, ++seed, 15);
        return session_.plan(session_.pack(w, popts), hints);
    };
    auto makeGamma = [&](std::int64_t n) {
        std::vector<float> g(static_cast<std::size_t>(n));
        std::uint64_t state = ++seed;
        for (auto &v : g) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            v = 0.75f + static_cast<float>((state >> 40) & 0xff) / 512.0f;
        }
        return g;
    };

    layers_.reserve(static_cast<std::size_t>(cfg.nLayers));
    for (std::int64_t l = 0; l < cfg.nLayers; ++l) {
        LayerWeights w;
        w.q = makePlan(cfg.dModel, cfg.dModel);
        w.k = makePlan(cfg.dModel, cfg.dModel);
        w.v = makePlan(cfg.dModel, cfg.dModel);
        w.o = makePlan(cfg.dModel, cfg.dModel);
        w.up = makePlan(cfg.dFf, cfg.dModel);
        w.down = makePlan(cfg.dModel, cfg.dFf);
        w.gammaAttn = makeGamma(cfg.dModel);
        w.gammaMlp = makeGamma(cfg.dModel);
        layers_.push_back(std::move(w));
    }
    lmHead_ = makePlan(cfg.vocab, cfg.dModel);
    gammaFinal_ = makeGamma(cfg.dModel);

    std::int64_t half = dHead / 2;
    ropeCos_.resize(static_cast<std::size_t>(cfg.maxSeq * half));
    ropeSin_.resize(static_cast<std::size_t>(cfg.maxSeq * half));
    for (std::int64_t p = 0; p < cfg.maxSeq; ++p)
        for (std::int64_t i = 0; i < half; ++i) {
            double theta =
                static_cast<double>(p) *
                std::pow(10000.0, -2.0 * static_cast<double>(i) /
                                      static_cast<double>(dHead));
            ropeCos_[static_cast<std::size_t>(p * half + i)] =
                static_cast<float>(std::cos(theta));
            ropeSin_[static_cast<std::size_t>(p * half + i)] =
                static_cast<float>(std::sin(theta));
        }
}

std::unique_ptr<KvCache>
TransformerModel::makeCache(std::int64_t capacity) const
{
    KvCacheConfig kcfg;
    kcfg.layers = cfg_.nLayers;
    kcfg.heads = cfg_.nHeads;
    kcfg.dHead = cfg_.dHead();
    kcfg.capacity = std::clamp<std::int64_t>(capacity, 1, cfg_.maxSeq);
    return std::make_unique<KvCache>(kcfg);
}

void
TransformerModel::attendHead(const StepRow &row, std::int64_t layer,
                             std::int64_t r, std::int64_t h,
                             std::int64_t maxT, Workspace &ws) const
{
    const KvCache &cache = *row.cache;
    std::int64_t dHead = cfg_.dHead();
    std::size_t T = static_cast<std::size_t>(row.pos + 1);
    std::size_t slice =
        static_cast<std::size_t>((r * cfg_.nHeads + h) * maxT);
    std::size_t headOff = static_cast<std::size_t>(r * cfg_.dModel +
                                                   h * dHead);
    std::int32_t *s32 = ws.scores.data() + slice;
    float *probs = ws.probs.data() + slice;
    std::int8_t *c8 = ws.c8.data() + slice;
    cache.scores(layer, h,
                 {ws.q8.data() + headOff, static_cast<std::size_t>(dHead)},
                 {s32, T});

    // Softmax over the dequantised integer scores, then fold each
    // token's V dequant scale into the probability so the weighted
    // value stays one exact integer product.
    float qScale = ws.qScale[static_cast<std::size_t>(r)];
    float invSqrt = 1.0f / std::sqrt(static_cast<float>(dHead));
    float maxv = -std::numeric_limits<float>::infinity();
    for (std::size_t t = 0; t < T; ++t) {
        float s = static_cast<float>(s32[t]) * qScale *
                  cache.kScale(layer, static_cast<std::int64_t>(t)) *
                  invSqrt;
        probs[t] = s;
        maxv = std::max(maxv, s);
    }
    double sum = 0.0;
    for (std::size_t t = 0; t < T; ++t) {
        float e = std::exp(probs[t] - maxv);
        probs[t] = e;
        sum += static_cast<double>(e);
    }
    float invSum = 1.0f / static_cast<float>(sum);
    for (std::size_t t = 0; t < T; ++t)
        probs[t] = probs[t] * invSum *
                   cache.vScale(layer, static_cast<std::int64_t>(t));
    float cs = quantizeRowTo({probs, T}, c8);
    std::int32_t o32[64]; // dHead <= 64
    cache.values(layer, h, {c8, T}, {o32, static_cast<std::size_t>(dHead)});
    float *attnOut = ws.attn.data() + headOff;
    for (std::int64_t d = 0; d < dHead; ++d)
        attnOut[d] = static_cast<float>(o32[d]) * cs;
}

void
TransformerModel::forward(std::span<StepRow> rows, Workspace &ws) const
{
    std::int64_t R = static_cast<std::int64_t>(rows.size());
    BBS_REQUIRE(R >= 1, "forward needs at least one row");
    std::int64_t dModel = cfg_.dModel;
    std::int64_t dHead = cfg_.dHead();
    std::int64_t half = dHead / 2;
    std::int64_t maxT = 0, maxCap = 0;
    for (const StepRow &row : rows) {
        BBS_REQUIRE(row.cache != nullptr, "row without a cache");
        BBS_REQUIRE(row.token >= 0 && row.token < cfg_.vocab,
                    "token id ", row.token, " outside vocab ", cfg_.vocab);
        BBS_REQUIRE(row.pos >= 0 && row.pos < cfg_.maxSeq &&
                        row.pos < row.cache->capacity(),
                    "position ", row.pos, " out of range");
        maxT = std::max(maxT, row.pos + 1);
        maxCap = std::max(maxCap, row.cache->capacity());
    }

    std::size_t rd = static_cast<std::size_t>(R * dModel);
    ws.x.resize(rd);
    ws.norm.resize(static_cast<std::size_t>(
        R * std::max(dModel, cfg_.dFf)));
    ws.qf.resize(rd);
    ws.kf.resize(rd);
    ws.vf.resize(rd);
    ws.attn.resize(rd);
    ws.rowScale.resize(static_cast<std::size_t>(R));
    ws.k8.resize(static_cast<std::size_t>(dModel));
    ws.v8.resize(static_cast<std::size_t>(dModel));
    ws.q8.resize(rd);
    ws.qScale.resize(static_cast<std::size_t>(R));
    // Attention's per-(row, head) slices have stride maxT and never
    // shrink. Reserving for the rows' largest capacity keeps decode
    // allocation-free while the context grows; only the first
    // R * heads * maxT entries are ever written, so the resident part
    // follows the context, not the capacity.
    std::size_t slices = static_cast<std::size_t>(R * cfg_.nHeads * maxT);
    auto growSlices = [&](auto &v) {
        v.reserve(static_cast<std::size_t>(R * cfg_.nHeads * maxCap));
        if (v.size() < slices)
            v.resize(slices);
    };
    growSlices(ws.scores);
    growSlices(ws.probs);
    growSlices(ws.c8);

    // Embedding lookup.
    for (std::int64_t r = 0; r < R; ++r) {
        const std::int8_t *e = &emb_.at(rows[static_cast<std::size_t>(r)]
                                            .token, 0);
        float *x = ws.x.data() + static_cast<std::size_t>(r * dModel);
        for (std::int64_t i = 0; i < dModel; ++i)
            x[i] = static_cast<float>(e[i]) * embScale_;
    }

    auto quantizeBatch = [&](const std::vector<float> &src,
                             std::int64_t cols) {
        ws.a8.resizeTo(Shape{R, cols});
        for (std::int64_t r = 0; r < R; ++r)
            ws.rowScale[static_cast<std::size_t>(r)] = quantizeRowTo(
                {src.data() + static_cast<std::size_t>(r * cols),
                 static_cast<std::size_t>(cols)},
                &ws.a8.at(r, 0));
    };
    auto dequantBatch = [&](std::vector<float> &dst, std::int64_t cols,
                            bool add) {
        for (std::int64_t r = 0; r < R; ++r) {
            float s =
                ws.rowScale[static_cast<std::size_t>(r)] * wScale_;
            float *d = dst.data() + static_cast<std::size_t>(r * cols);
            for (std::int64_t j = 0; j < cols; ++j) {
                float v = static_cast<float>(ws.y32.at(r, j)) * s;
                d[j] = add ? d[j] + v : v;
            }
        }
    };

    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const LayerWeights &L = layers_[l];
        std::int64_t layer = static_cast<std::int64_t>(l);

        // --- attention sublayer
        for (std::int64_t r = 0; r < R; ++r)
            rmsNormRow({ws.x.data() + static_cast<std::size_t>(r * dModel),
                        static_cast<std::size_t>(dModel)},
                       L.gammaAttn,
                       ws.norm.data() + static_cast<std::size_t>(r * dModel));
        quantizeBatch(ws.norm, dModel);
        L.q.run(ws.a8, ws.y32);
        dequantBatch(ws.qf, dModel, false);
        L.k.run(ws.a8, ws.y32);
        dequantBatch(ws.kf, dModel, false);
        L.v.run(ws.a8, ws.y32);
        dequantBatch(ws.vf, dModel, false);

        // Phase 1, serial: RoPE rotates q and k in place, per head, at
        // the row's position; K/V join the cache and the query is
        // quantised for phase 2.
        for (std::int64_t r = 0; r < R; ++r) {
            const StepRow &row = rows[static_cast<std::size_t>(r)];
            const float *cosP =
                ropeCos_.data() + static_cast<std::size_t>(row.pos * half);
            const float *sinP =
                ropeSin_.data() + static_cast<std::size_t>(row.pos * half);
            for (float *vec : {ws.qf.data(), ws.kf.data()}) {
                float *base = vec + static_cast<std::size_t>(r * dModel);
                for (std::int64_t h = 0; h < cfg_.nHeads; ++h) {
                    float *hd = base + static_cast<std::size_t>(h * dHead);
                    for (std::int64_t i = 0; i < half; ++i) {
                        float x0 = hd[i], x1 = hd[half + i];
                        hd[i] = x0 * cosP[i] - x1 * sinP[i];
                        hd[half + i] = x0 * sinP[i] + x1 * cosP[i];
                    }
                }
            }
            std::size_t rowOff = static_cast<std::size_t>(r * dModel);
            std::size_t width = static_cast<std::size_t>(dModel);
            float kScale =
                quantizeRowTo({ws.kf.data() + rowOff, width}, ws.k8.data());
            float vScale =
                quantizeRowTo({ws.vf.data() + rowOff, width}, ws.v8.data());
            row.cache->append(layer, row.pos, {ws.k8.data(), width}, kScale,
                              {ws.v8.data(), width}, vScale);
            ws.qScale[static_cast<std::size_t>(r)] = quantizeRowTo(
                {ws.qf.data() + rowOff, width}, ws.q8.data() + rowOff);
        }

        // Phase 2, one parallel region over (row, head).
        parallelFor(R * cfg_.nHeads, [&](std::int64_t task) {
            std::int64_t r = task / cfg_.nHeads;
            attendHead(rows[static_cast<std::size_t>(r)], layer, r,
                       task % cfg_.nHeads, maxT, ws);
        }, chunkForWork(2 * maxT * dHead));

        quantizeBatch(ws.attn, dModel);
        L.o.run(ws.a8, ws.y32);
        dequantBatch(ws.x, dModel, true); // residual add

        // --- MLP sublayer
        for (std::int64_t r = 0; r < R; ++r)
            rmsNormRow({ws.x.data() + static_cast<std::size_t>(r * dModel),
                        static_cast<std::size_t>(dModel)},
                       L.gammaMlp,
                       ws.norm.data() + static_cast<std::size_t>(r * dModel));
        quantizeBatch(ws.norm, dModel);
        L.up.run(ws.a8, ws.y32);
        for (std::int64_t r = 0; r < R; ++r) {
            float s = ws.rowScale[static_cast<std::size_t>(r)] * wScale_;
            float *d =
                ws.norm.data() + static_cast<std::size_t>(r * cfg_.dFf);
            for (std::int64_t j = 0; j < cfg_.dFf; ++j)
                d[j] = silu(static_cast<float>(ws.y32.at(r, j)) * s);
        }
        quantizeBatch(ws.norm, cfg_.dFf);
        L.down.run(ws.a8, ws.y32);
        dequantBatch(ws.x, dModel, true);
    }

    // --- LM head, only over rows that need logits.
    std::int64_t g = 0;
    for (const StepRow &row : rows)
        if (row.wantLogits)
            ++g;
    if (g > 0) {
        ws.gatherNorm.resize(static_cast<std::size_t>(g * dModel));
        std::int64_t gi = 0;
        for (const StepRow &row : rows) {
            if (!row.wantLogits)
                continue;
            std::int64_t r = &row - rows.data();
            rmsNormRow({ws.x.data() + static_cast<std::size_t>(r * dModel),
                        static_cast<std::size_t>(dModel)},
                       gammaFinal_,
                       ws.gatherNorm.data() +
                           static_cast<std::size_t>(gi * dModel));
            ++gi;
        }
        ws.a8.resizeTo(Shape{g, dModel});
        for (std::int64_t r = 0; r < g; ++r)
            quantizeRowTo(
                {ws.gatherNorm.data() + static_cast<std::size_t>(r * dModel),
                 static_cast<std::size_t>(dModel)},
                &ws.a8.at(r, 0));
        lmHead_.run(ws.a8, ws.logits32);
        gi = 0;
        for (StepRow &row : rows) {
            if (!row.wantLogits)
                continue;
            // Greedy decode: per-row positive dequant scales keep the
            // INT32 argmax identical to the float one; first index wins
            // ties deterministically.
            std::int32_t best = ws.logits32.at(gi, 0);
            std::int32_t arg = 0;
            for (std::int64_t t = 1; t < cfg_.vocab; ++t) {
                std::int32_t v = ws.logits32.at(gi, t);
                if (v > best) {
                    best = v;
                    arg = static_cast<std::int32_t>(t);
                }
            }
            row.next = arg;
            ++gi;
        }
    }

    // Publish: every row's token (all layers appended) becomes visible.
    // Same-cache rows ascend, so the last store carries the chunk's end.
    for (const StepRow &row : rows)
        row.cache->commit(row.pos + 1);
}

std::vector<std::int32_t>
TransformerModel::generateReference(std::span<const std::int32_t> prompt,
                                    std::int64_t maxNew) const
{
    BBS_REQUIRE(!prompt.empty() && maxNew >= 1,
                "reference generation needs a prompt and maxNew >= 1");
    std::int64_t promptLen = static_cast<std::int64_t>(prompt.size());
    BBS_REQUIRE(promptLen + maxNew - 1 <= cfg_.maxSeq,
                "prompt + continuation exceed maxSeq");
    std::unique_ptr<KvCache> cache = makeCache(promptLen + maxNew);
    Workspace ws;
    std::vector<std::int32_t> out;
    out.reserve(static_cast<std::size_t>(maxNew));
    std::int32_t next = 0;
    for (std::int64_t i = 0; i < promptLen; ++i) {
        StepRow row;
        row.cache = cache.get();
        row.token = prompt[static_cast<std::size_t>(i)];
        row.pos = i;
        row.wantLogits = i + 1 == promptLen;
        forward({&row, 1}, ws);
        if (row.wantLogits)
            next = row.next;
    }
    for (std::int64_t j = 0; j < maxNew; ++j) {
        out.push_back(next);
        if (j + 1 == maxNew)
            break;
        StepRow row;
        row.cache = cache.get();
        row.token = next;
        row.pos = promptLen + j;
        row.wantLogits = true;
        forward({&row, 1}, ws);
        next = row.next;
    }
    return out;
}

} // namespace bbs::llm
