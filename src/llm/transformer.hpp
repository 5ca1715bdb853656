/**
 * @file
 * Transformer decode blocks over the bit-serial engine.
 *
 * Every projection in a block — attention QKV/output, the MLP pair, the
 * LM head — is a BBS-compressed `PackedOperand` with its own
 * `MatmulPlan`, all created from one `Session` (so they share the
 * session's tuning cache, and their runs share the per-thread scratch
 * arenas). Attention's score and weighted-value products run over the
 * same AND+popcount kernel, straight on the `KvCache` plane groups (K
 * token-major `[layer][head][token][bit]`, V dim-major
 * `[layer][head][dim][word][bit]`; see llm/kv_cache.hpp): a row at
 * position p packs its query at dHead columns and its quantised
 * probability row at T = p + 1 <= capacity columns, so both products
 * touch only the tokens that exist. Softmax, RMSNorm, RoPE and the INT8
 * quantisation glue are plain per-row float kernels.
 *
 * Cache contract: a step appends each row's K/V at its position before
 * that row's attention runs, and commits every cache's new length
 * (pos + 1 of its last row) only after the whole step, so a reader of
 * `length()` never sees a token with a layer still missing.
 *
 * Numerics contract (what makes continuous batching safe): every float
 * operation — normalisation, quantisation scale choice, RoPE, softmax —
 * is computed per row from that row's values only, and the integer
 * matmuls are exact. A row's outputs therefore never depend on which
 * rows it was batched with: `forward()` over any batch composition is
 * bit-identical to single-row calls (generateReference() is that naive
 * oracle, and tests/test_llm.cpp pins the equality).
 *
 * The model's weights are synthetic (deterministic LCG fill) — the
 * subsystem under test is the serving machinery, not a trained network.
 */
#ifndef BBS_LLM_TRANSFORMER_HPP
#define BBS_LLM_TRANSFORMER_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/session.hpp"
#include "llm/kv_cache.hpp"

namespace bbs::llm {

/** Model shape + BBS operating point. */
struct TransformerConfig
{
    std::int64_t dModel = 128;
    std::int64_t nHeads = 2; ///< dHead = dModel/nHeads must be even, <= 64
    std::int64_t dFf = 256;
    std::int64_t nLayers = 2;
    std::int64_t vocab = 256;
    std::int64_t maxSeq = 256; ///< max tokens per sequence (KV capacity)
    /** BBS compression operating point for the projection weights. */
    std::int64_t groupSize = 32;
    int targetColumns = 3;
    /** Expected step-batch rows (the plans' ShapeHints). */
    std::int64_t expectedBatch = 16;
    std::uint64_t seed = 1;

    std::int64_t dHead() const { return dModel / nHeads; }
};

/** One (sequence, token) row of a step batch. */
struct StepRow
{
    KvCache *cache = nullptr;
    std::int32_t token = 0; ///< input token id
    std::int64_t pos = 0;   ///< this token's position in the sequence
    /** Produce `next` for this row (decode rows and the last prompt
     *  row; interior prefill rows skip the LM head entirely). */
    bool wantLogits = false;
    std::int32_t next = 0; ///< out: greedy next token
};

class TransformerModel
{
  public:
    /**
     * Per-caller step scratch: every buffer grows to its high-water mark
     * once, after which forward() performs no allocation (the zero-alloc
     * decode gate). Non-copyable: the packed-activation operands view
     * the workspace's own matrices.
     */
    struct Workspace
    {
        Workspace();
        Workspace(const Workspace &) = delete;
        Workspace &operator=(const Workspace &) = delete;

        std::vector<float> x;     ///< [R, dModel] residual stream
        std::vector<float> norm;  ///< [R, max(dModel, dFf)] normed / MLP
        std::vector<float> qf;    ///< [R, dModel] dequantised queries
        std::vector<float> kf;    ///< [R, dModel]
        std::vector<float> vf;    ///< [R, dModel]
        std::vector<float> attn;  ///< [R, dModel] head-concat outputs
        std::vector<float> rowScale; ///< [R] activation scales
        std::vector<float> gatherNorm; ///< [G, dModel] logit-row gather
        std::vector<std::int8_t> k8, v8, q8; ///< one row each
        std::vector<std::int8_t> c8;         ///< [T] prob row (capacity-sized)
        std::vector<float> probs;            ///< [T]
        std::vector<float> cFloat;           ///< [T]
        Int8Tensor a8;      ///< batched plan activations
        Int32Tensor y32;    ///< batched plan outputs
        Int32Tensor s32;    ///< [1, T] attention scores
        Int32Tensor o32;    ///< [1, dHead] weighted values
        Int32Tensor logits32;
        BitSerialMatrix qPacked; ///< [1, dHead] packed query
        BitSerialMatrix cPacked; ///< [1, T] packed prob row (reserved to
                                 ///< the largest capacity)
        engine::PackedOperand qOp; ///< view over qPacked (built once)
        engine::PackedOperand cOp; ///< view over cPacked
    };

    explicit TransformerModel(const TransformerConfig &cfg,
                              engine::EngineConfig engineCfg = {});

    const TransformerConfig &config() const { return cfg_; }
    const engine::Session &session() const { return session_; }

    /** A sequence's cache, capacity clamped to maxSeq. */
    std::unique_ptr<KvCache> makeCache(std::int64_t capacity) const;

    /**
     * One step over a batch of rows. Rows belonging to the same cache
     * must appear in ascending position order with no gaps (a prefill
     * chunk); each row's K/V lands in its cache before its own attention
     * runs, and the new lengths are committed at the end. `next` is
     * filled for wantLogits rows.
     */
    void forward(std::span<StepRow> rows, Workspace &ws) const;

    /**
     * The naive unbatched oracle: token-at-a-time prefill, one decode
     * row per step, private cache and workspace. Returns @p maxNew
     * greedy tokens. Continuous batching must reproduce this exactly.
     */
    std::vector<std::int32_t>
    generateReference(std::span<const std::int32_t> prompt,
                      std::int64_t maxNew) const;

  private:
    struct LayerWeights
    {
        engine::MatmulPlan q, k, v, o, up, down;
        std::vector<float> gammaAttn, gammaMlp;
    };

    void attentionRow(const StepRow &row, std::int64_t layer,
                      Workspace &ws, std::int64_t r) const;

    TransformerConfig cfg_;
    engine::Session session_;
    Int8Tensor emb_; ///< [vocab, dModel] INT8 embedding table
    float embScale_ = 1.0f;
    float wScale_ = 1.0f; ///< shared projection dequant scale
    std::vector<LayerWeights> layers_;
    engine::MatmulPlan lmHead_;
    std::vector<float> gammaFinal_;
    std::vector<float> ropeCos_; ///< [maxSeq, dHead/2]
    std::vector<float> ropeSin_;
};

} // namespace bbs::llm

#endif // BBS_LLM_TRANSFORMER_HPP
