#include "nn/int8_infer.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "engine/session.hpp"
#include "nn/activations.hpp"
#include "quant/quantizer.hpp"

namespace bbs {

namespace {

/** Per-batch symmetric activation quantization (max calibration). */
float
quantizeActivations(const Batch &cur, Int8Tensor &qx)
{
    float amax = 0.0f;
    for (std::int64_t i = 0; i < cur.numel(); ++i)
        amax = std::max(amax, std::abs(cur.flat(i)));
    float sA = amax > 0.0f ? amax / 127.0f : 1.0f;
    for (std::int64_t i = 0; i < cur.numel(); ++i) {
        float q = std::nearbyint(cur.flat(i) / sA);
        qx.flat(i) =
            static_cast<std::int8_t>(std::clamp(q, -128.0f, 127.0f));
    }
    return sA;
}

/**
 * Symmetric max-calibrated quantization of one row of @p cur, scale from
 * that row alone. On a one-row batch this is exactly quantizeActivations,
 * which is what makes the row-calibrated policy bit-identical to a
 * single-sample pass.
 */
float
quantizeRow(const Batch &cur, std::int64_t row, Int8Tensor &qx)
{
    std::int64_t in = cur.shape().dim(1);
    float amax = 0.0f;
    for (std::int64_t c = 0; c < in; ++c)
        amax = std::max(amax, std::abs(cur.at(row, c)));
    float sA = amax > 0.0f ? amax / 127.0f : 1.0f;
    for (std::int64_t c = 0; c < in; ++c) {
        float q = std::nearbyint(cur.at(row, c) / sA);
        qx.at(row, c) =
            static_cast<std::int8_t>(std::clamp(q, -128.0f, 127.0f));
    }
    return sA;
}

/**
 * Dequantize one INT32 accumulator and apply the fused nonlinearity.
 * Every policy funnels through this exact expression, which is what
 * keeps their logits bit-identical.
 */
inline float
dequantize(std::int64_t acc, float scale, float sA, float bias,
           bool reluAfter, bool geluAfter)
{
    float v = static_cast<float>(acc) * scale * sA + bias;
    if (reluAfter)
        return relu(v);
    if (geluAfter)
        return gelu(v);
    return v;
}

} // namespace

Int8Network
Int8Network::fromNetwork(Network &net, std::int64_t groupSize,
                         int targetColumns, PruneStrategy strategy)
{
    Int8Network out;
    auto &layers = net.layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
        if (layers[i]->kind() != "dense")
            continue;
        FloatTensor *w = layers[i]->weights();
        FloatTensor *b = layers[i]->bias();
        BBS_ASSERT(w && b);

        Int8LinearLayer layer;
        QuantizedTensor q = quantizePerChannel(*w, 8);
        layer.inFeatures = q.values.shape().dim(1);
        layer.groupSize = groupSize;
        layer.planes = std::make_shared<const CompressedRowPlanes>(
            CompressedRowPlanes::compress(q.values, groupSize,
                                          targetColumns, strategy));
        // The layer's plan: shared prepacked rows behind a default-
        // Session plan; Auto resolves per-dot vs batched per call.
        layer.plan = engine::defaultSession().plan(
            engine::PackedOperand::fromPrepared(layer.planes));
        layer.wScales = q.scales;
        layer.bias = *b;
        // Fuse the following activation, if any.
        if (i + 1 < layers.size()) {
            layer.reluAfter = layers[i + 1]->kind() == "relu";
            layer.geluAfter = layers[i + 1]->kind() == "gelu";
        }
        out.layers_.push_back(std::move(layer));
    }
    BBS_REQUIRE(!out.layers_.empty(),
                "network has no dense layers to quantize");
    return out;
}

Int8Network
Int8Network::fromLayers(std::vector<Int8LinearLayer> layers)
{
    BBS_REQUIRE(!layers.empty(), "a network needs at least one layer");
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const Int8LinearLayer &l = layers[i];
        BBS_REQUIRE(l.planes != nullptr && l.plan.valid(),
                    "layer ", i, " is missing its planes or plan");
        BBS_REQUIRE(static_cast<std::int64_t>(l.wScales.size()) ==
                            l.outFeatures() &&
                        l.bias.numel() == l.outFeatures(),
                    "layer ", i, " scale/bias width != outFeatures");
        if (i + 1 < layers.size())
            BBS_REQUIRE(l.outFeatures() == layers[i + 1].inFeatures,
                        "layer ", i, " outputs ", l.outFeatures(),
                        " features but layer ", i + 1, " expects ",
                        layers[i + 1].inFeatures);
    }
    Int8Network out;
    out.layers_ = std::move(layers);
    return out;
}

namespace {

/**
 * Per-thread forward-pass intermediates, kept at their high-water size:
 * the quantized activations, the INT32 accumulators, the per-row scales
 * and the two layer ping-pong buffers. A serving worker's steady-state
 * forwardInto touches only these (plus the engine's scratch arena), so
 * it allocates nothing once the largest batch has been seen.
 */
struct ForwardScratch
{
    Int8Tensor qx;
    Int32Tensor prod;
    std::vector<float> rowScales;
    Batch ping;
    Batch pong;

    static ForwardScratch &
    forThisThread()
    {
        static thread_local ForwardScratch scratch;
        return scratch;
    }
};

} // namespace

void
Int8Network::forwardInto(const Batch &x, const InferencePolicy &policy,
                         Batch &out) const
{
    BBS_REQUIRE(&out != &x, "forwardInto output must not alias input");
    const bool perRow = policy.calibration == engine::Calibration::PerRow;
    ForwardScratch &s = ForwardScratch::forThisThread();
    const Batch *cur = &x;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        const Int8LinearLayer &layer = layers_[li];
        std::int64_t n = cur->shape().dim(0);
        std::int64_t in = cur->shape().dim(1);
        std::int64_t outF = layer.outFeatures();
        BBS_REQUIRE(layer.inFeatures == in,
                    "activation width mismatch");

        Int8Tensor &qx = s.qx;
        qx.resizeTo(Shape{n, in});
        float sA = 1.0f;
        if (perRow) {
            // Per-row scales: each sample quantizes against its own max,
            // so batch composition cannot perturb any sample's
            // arithmetic. A row's work is its `in` floats.
            s.rowScales.resize(static_cast<std::size_t>(n));
            const Batch &curRef = *cur;
            parallelFor(n, [&](std::int64_t row) {
                s.rowScales[static_cast<std::size_t>(row)] =
                    quantizeRow(curRef, row, qx);
            }, chunkForWork(in));
        } else {
            sA = quantizeActivations(*cur, qx);
        }

        // The layer's plan executes the matmul: Auto picks the per-dot
        // loop at batch 1 and the batched compressed GEMM otherwise; an
        // explicit policy.execution overrides it.
        if (policy.execution == engine::PlanKind::Auto)
            layer.plan.run(qx, s.prod);
        else
            layer.plan.runAs(policy.execution, qx, s.prod);

        // The last layer dequantizes straight into the caller's buffer;
        // inner layers ping-pong between the two scratch batches.
        Batch &next = li + 1 == layers_.size()
                          ? out
                          : (cur == &s.ping ? s.pong : s.ping);
        next.resizeTo(Shape{n, outF});
        Int32Tensor &prod = s.prod;
        parallelFor(n, [&](std::int64_t row) {
            float rowScale =
                perRow ? s.rowScales[static_cast<std::size_t>(row)] : sA;
            for (std::int64_t o = 0; o < outF; ++o)
                next.at(row, o) = dequantize(
                    prod.at(row, o),
                    layer.wScales[static_cast<std::size_t>(o)], rowScale,
                    layer.bias.flat(o), layer.reluAfter,
                    layer.geluAfter);
        }, 16);
        cur = &next;
    }
}

Batch
Int8Network::forward(const Batch &x, const InferencePolicy &policy) const
{
    Batch out;
    forwardInto(x, policy, out);
    return out;
}

std::vector<int>
Int8Network::predict(const Batch &x) const
{
    return argmaxRows(forward(x));
}

double
Int8Network::effectiveBits() const
{
    // storageBits of a group == storedBits * size + the metadata byte;
    // the prepacked rows carry exactly those fields.
    double bits = 0.0, weights = 0.0;
    for (const auto &l : layers_) {
        const CompressedRowPlanes &p = *l.planes;
        for (std::int64_t o = 0; o < p.rows(); ++o) {
            for (std::int64_t g = 0; g < p.groupsPerRow(); ++g) {
                double members = p.groupMembers(g);
                bits += p.bits(o, g) * members + 8.0;
                weights += members;
            }
        }
    }
    return bits / weights;
}

} // namespace bbs
