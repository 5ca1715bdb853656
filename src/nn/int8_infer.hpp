/**
 * @file
 * Integer inference through the *actual* BBS compressed-domain kernels.
 *
 * compress_net.hpp measures accuracy with fake quantization (dequantized
 * weights, float compute). This engine instead executes every dense layer
 * with INT8 operands and the exact compressed-domain arithmetic BitVert
 * computes — integer accumulation, per-channel weight scales, per-layer
 * activation scales — demonstrating that the hardware path itself
 * preserves accuracy, not just the weight transform.
 *
 * Every layer holds an engine::MatmulPlan over its prepacked compressed
 * rows (built once at construction through the default Session), and
 * `forward(x, InferencePolicy)` is the single entry point: the
 * calibration axis (per-batch vs per-row activation scales) times the
 * execution axis (the plan's kind — Auto lets it pick per-dot at batch 1
 * and the batched compressed GEMM otherwise).
 */
#ifndef BBS_NN_INT8_INFER_HPP
#define BBS_NN_INT8_INFER_HPP

#include <memory>
#include <vector>

#include "core/compressed_tensor.hpp"
#include "engine/plan.hpp"
#include "gemm/compressed_gemm.hpp"
#include "nn/network.hpp"

namespace bbs {

/**
 * How a forward pass quantizes activations and executes its per-layer
 * matmuls — the two axes the three pre-engine forward* variants varied.
 */
struct InferencePolicy
{
    /** PerBatch: one shared activation scale per batch (offline
     *  evaluation). PerRow: each sample quantizes against its own max,
     *  so a row's logits never depend on co-batched rows (the serving
     *  contract). */
    engine::Calibration calibration = engine::Calibration::PerBatch;
    /** Execution override for every layer's plan; Auto lets each plan
     *  decide from the batch size (per-dot at batch 1, batched
     *  compressed GEMM otherwise). */
    engine::PlanKind execution = engine::PlanKind::Auto;
};

/** One dense layer prepared for integer execution. */
struct Int8LinearLayer
{
    /**
     * Every output channel's BBS-compressed weight rows, prepacked once
     * (stored-column planes + pruned-column shift + BBS constant per
     * group) — the ONLY weight copy the layer keeps: both the batched
     * GEMM and the per-dot plan kind execute these planes directly.
     * Shared with the layer's plan, so copies of the network stay cheap
     * and alias-safe.
     */
    std::shared_ptr<const CompressedRowPlanes> planes;
    /** The layer's execution plan (default Session, Auto kind). */
    engine::MatmulPlan plan;
    std::int64_t inFeatures = 0;
    std::int64_t groupSize = 32;
    std::vector<float> wScales; ///< per-output-channel weight scales
    FloatTensor bias;           ///< float bias (applied post-dequant)
    bool geluAfter = false;
    bool reluAfter = false;

    std::int64_t
    outFeatures() const
    {
        return planes ? planes->rows() : 0;
    }
};

/** An integer inference engine mirroring a trained dense Network. */
class Int8Network
{
  public:
    /**
     * Build from a trained float network (Dense/ReLU/GELU layers only):
     * per-channel INT8 weight quantization followed by BBS compression at
     * the given operating point.
     *
     * @param groupSize/targetColumns/strategy  BBS compression config;
     *        targetColumns 0 reproduces plain INT8 inference
     */
    static Int8Network fromNetwork(Network &net, std::int64_t groupSize,
                                   int targetColumns,
                                   PruneStrategy strategy);

    /**
     * Assemble from already-prepared layers (the model store's entry
     * point: each layer's planes are a mapped view into a container and
     * its plan was built over the mapped operand). Layers must be
     * non-empty and width-chained (layer i's outFeatures == layer
     * i+1's inFeatures) with a valid plan each.
     */
    static Int8Network fromLayers(std::vector<Int8LinearLayer> layers);

    /**
     * The unified integer forward pass: quantize activations per
     * @p policy.calibration, run every layer's MatmulPlan (kind per
     * @p policy.execution), rescale the INT32 accumulators to float for
     * the next layer's nonlinearity. All policy combinations are
     * bit-identical per row on identical per-row scales; the per-row
     * calibration of a one-row batch equals the per-batch one, which is
     * what makes serving responses batch-invariant.
     */
    Batch forward(const Batch &x, const InferencePolicy &policy) const;

    /**
     * forward() into a caller-kept output buffer — the serving hot-path
     * form. All intermediates (quantized activations, INT32
     * accumulators, row scales, layer ping-pong buffers) live in a
     * per-thread scratch kept at its high-water size, and @p out is
     * reshaped in place, so a worker draining batch after batch performs
     * ZERO heap allocations once warm (tests/test_hotpath.cpp asserts
     * this with the instrumented allocator). @p out must not alias @p x.
     */
    void forwardInto(const Batch &x, const InferencePolicy &policy,
                     Batch &out) const;

    /** forward() with the default policy (per-batch calibration, Auto
     *  execution) — the offline-evaluation entry point. */
    Batch
    forward(const Batch &x) const
    {
        return forward(x, InferencePolicy{});
    }

    /** Argmax predictions (default policy). */
    std::vector<int> predict(const Batch &x) const;

    /** Mean effective weight bits across layers. */
    double effectiveBits() const;

    /** Feature width the first layer expects (serving input validation). */
    std::int64_t
    inputFeatures() const
    {
        return layers_.front().inFeatures;
    }

    /** Logit width the last layer produces. */
    std::int64_t
    outputFeatures() const
    {
        return layers_.back().outFeatures();
    }

    const std::vector<Int8LinearLayer> &layers() const { return layers_; }

  private:
    std::vector<Int8LinearLayer> layers_;
};

} // namespace bbs

#endif // BBS_NN_INT8_INFER_HPP
