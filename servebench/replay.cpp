#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <future>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "engine/session.hpp"
#include "gemm/bit_serial_matrix.hpp"
#include "net/net_client.hpp"
#include "simd/simd.hpp"

namespace servebench {

using namespace bbs;

int
Tracer::begin(std::string name, int parent, std::uint64_t request)
{
    spans_.push_back({std::move(name), Clock::now(), {}, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

double
Tracer::end(int id)
{
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end = Clock::now();
    return std::chrono::duration<double, std::micro>(s.end - s.start).count();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::vector<double> childUs(spans_.size(), 0.0);
    auto us = [&](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::micro>(b - a).count();
    };
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childUs[static_cast<std::size_t>(s.parent)] += us(s.start, s.end);
    const Clock::time_point epoch =
        spans_.empty() ? Clock::now() : spans_.front().start;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
            << ", \"parent\": " << s.parent << ", \"request\": " << s.request
            << ", \"start_us\": " << jsonNumber(us(epoch, s.start))
            << ", \"end_us\": " << jsonNumber(us(epoch, s.end))
            << ", \"self_us\": "
            << jsonNumber(us(s.start, s.end) - childUs[i]) << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

namespace {

const InferencePolicy kPerRow{engine::Calibration::PerRow,
                              engine::PlanKind::Auto};

/** Per-row symmetric quantisation as Int8Network applies it between
 *  layers, so each timed plan sees the activations it sees in serving. */
Int8Tensor
quantizePerRow(const Batch &x)
{
    std::int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    Int8Tensor q(Shape{n, c});
    for (std::int64_t r = 0; r < n; ++r) {
        float amax = 0.0f;
        for (std::int64_t j = 0; j < c; ++j)
            amax = std::max(amax, std::abs(x.at(r, j)));
        float s = amax > 0.0f ? amax / 127.0f : 1.0f;
        for (std::int64_t j = 0; j < c; ++j)
            q.at(r, j) = static_cast<std::int8_t>(
                std::clamp(std::nearbyint(x.at(r, j) / s), -128.0f, 127.0f));
    }
    return q;
}

/** Same LCG family and magnitude as the transformer's projection
 *  weights. */
Int8Tensor
lcgInt8(std::int64_t rows, std::int64_t cols, std::uint64_t seed, int mag)
{
    Int8Tensor t(Shape{rows, cols});
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        t.flat(i) = static_cast<std::int8_t>(
            static_cast<std::int64_t>(state >> 33) % (2 * mag + 1) - mag);
    }
    return t;
}

/** Repeats @p fn @p reps times under spans named @p name (after one
 *  untimed warm call) and returns the median duration in µs. */
template <typename Fn>
double
timed(Tracer &tr, int parent, const std::string &name, int reps, Fn &&fn)
{
    fn();
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
        int id = tr.begin(name, parent, static_cast<std::uint64_t>(r + 1));
        fn();
        us.push_back(tr.end(id));
    }
    return median(std::move(us));
}

} // namespace

double
simdCeiling(Tracer &tr, int parent, int reps)
{
    // Two 4 KiB plane buffers stay L1-resident: this is the host's
    // AND+popcount rate with memory out of the way.
    constexpr std::int64_t kWords = 512;
    constexpr int kCalls = 20000;
    std::vector<std::uint64_t> a(kWords), w(kWords);
    std::uint64_t state = 0x5eed;
    for (std::int64_t i = 0; i < kWords; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        a[static_cast<std::size_t>(i)] = state;
        w[static_cast<std::size_t>(i)] = state * 0x9E3779B97F4A7C15ull;
    }
    const SimdKernels &k = simdKernels();
    volatile std::int64_t sink = 0;
    double us = timed(tr, parent, "simd.and_popcount", reps, [&] {
        std::int64_t s = 0;
        for (int c = 0; c < kCalls; ++c)
            s += k.andPopcountAccumulate(a.data(), w.data(), kWords);
        sink = sink + s;
    });
    return static_cast<double>(kWords) * kCalls / us / 1e3;
}

namespace {

/** nn/engine/gemm on the served classifier at @p rows rows. */
void
replayClassifier(Tracer &tr, int parent, const Int8Network &net,
                 const ClassifyPool &pool, std::int64_t rows, int reps,
                 double ceilingGwords, MetricList &out)
{
    const std::string b = "_b" + std::to_string(rows);
    Batch x(Shape{rows, net.inputFeatures()});
    for (std::int64_t r = 0; r < rows; ++r) {
        const auto &src = pool.rows[static_cast<std::size_t>(r) %
                                    pool.rows.size()];
        std::copy(src.begin(), src.end(), &x.at(r, 0));
    }
    // Each layer's INT8 input, by running the layers one at a time.
    const auto &layers = net.layers();
    std::vector<Int8Tensor> acts;
    Batch cur = x;
    for (const auto &layer : layers) {
        acts.push_back(quantizePerRow(cur));
        cur = Int8Network::fromLayers({layer}).forward(cur, kPerRow);
    }

    Batch y;
    double forwardUs = timed(tr, parent, "nn.forward" + b, reps,
                             [&] { net.forwardInto(x, kPerRow, y); });
    double planSum = 0.0, packSum = 0.0, macs = 0.0, wordOps = 0.0;
    Int32Tensor prod;
    BitSerialMatrix packed;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const std::string fc = "fc" + std::to_string(i) + b;
        double planUs = timed(tr, parent, "engine.plan." + fc, reps,
                              [&] { layers[i].plan.run(acts[i], prod); });
        out.add("engine.plan_us." + fc, planUs, "us");
        planSum += planUs;
        packSum += timed(tr, parent, "gemm.act_pack." + fc, reps, [&] {
            BitSerialMatrix::packInto(acts[i], packed);
        });
        double in = static_cast<double>(layers[i].inFeatures);
        double outF = static_cast<double>(layers[i].outFeatures());
        macs += static_cast<double>(rows) * outF * in;
        wordOps += static_cast<double>(rows) * outF *
                   (in / static_cast<double>(layers[i].groupSize)) *
                   layers[i].planes->meanStoredBits() * 8.0;
    }
    out.add("nn.forward_us" + b, forwardUs, "us");
    out.add("nn.glue_us" + b, forwardUs - planSum, "us");
    out.add("gemm.act_pack_us" + b, packSum, "us");
    if (rows == 16) {
        out.add("gemm.gmac_per_s", macs / planSum / 1e3, "GMAC/s");
        out.add("gemm.ceiling_frac", wordOps / planSum / 1e3 / ceilingGwords,
                "ratio");
    }
}

/** Wire round trip minus in-process submitAsync round trip, paired on
 *  the same row, one request outstanding. Both replies are checked
 *  against the oracle; a failed connect fails every pair. */
double
wireOverheadUs(Tracer &tr, int parent, ClassifyStack &stack,
               const ClassifyPool &pool, int pairs, ReplayChecks &checks)
{
    net::NetClient client;
    checks.attempted += 2 * static_cast<std::uint64_t>(pairs);
    if (!client.connect("127.0.0.1", stack.net->port(), 30000)) {
        checks.failed += 2 * static_cast<std::uint64_t>(pairs);
        return 0.0;
    }
    std::vector<double> diffs;
    for (int i = 0; i < pairs; ++i) {
        const std::size_t entry = static_cast<std::size_t>(i) %
                                  pool.rows.size();
        const auto &row = pool.rows[entry];
        auto wire = [&] {
            int id = tr.begin("net.wire_round_trip", parent,
                              static_cast<std::uint64_t>(i + 1));
            auto reply = client.request(kClassifyModel, row);
            double us = tr.end(id);
            if (!reply ||
                !matchesOracle(pool, entry,
                               reply->status == static_cast<std::uint8_t>(
                                                    ServeStatus::Ok),
                               reply->logits))
                ++checks.failed;
            return us;
        };
        auto inProcess = [&] {
            // The callback owns the promise, so it may finish
            // set_value() after this frame has moved on.
            auto done = std::make_shared<std::promise<InferenceResponse>>();
            std::future<InferenceResponse> ready = done->get_future();
            int id = tr.begin("serve.submit_async_round_trip", parent,
                              static_cast<std::uint64_t>(i + 1));
            stack.server->submitAsync(kClassifyModel, row, 0,
                                      [done](InferenceResponse &&r) {
                                          done->set_value(std::move(r));
                                      });
            InferenceResponse r = ready.get();
            double us = tr.end(id);
            if (!matchesOracle(pool, entry, r.status == ServeStatus::Ok,
                               r.logits))
                ++checks.failed;
            return us;
        };
        // Alternate the order so neither side always runs warm.
        double w = 0.0, p = 0.0;
        if (i % 2 == 0) {
            w = wire();
            p = inProcess();
        } else {
            p = inProcess();
            w = wire();
        }
        diffs.push_back(w - p);
    }
    return median(std::move(diffs));
}

/** Prefill @p caches to @p tokens tokens each with batched forwards. */
void
prefill(const llm::TransformerModel &model,
        std::vector<std::unique_ptr<llm::KvCache>> &caches,
        std::int64_t tokens, llm::TransformerModel::Workspace &ws, Rng &rng)
{
    std::vector<llm::StepRow> rows;
    for (std::int64_t p0 = 0; p0 < tokens; p0 += 16) {
        rows.clear();
        for (auto &c : caches)
            for (std::int64_t p = p0; p < std::min(tokens, p0 + 16); ++p) {
                llm::StepRow r;
                r.cache = c.get();
                r.token = static_cast<std::int32_t>(
                    rng.uniformInt(0, model.config().vocab - 1));
                r.pos = p;
                rows.push_back(r);
            }
        model.forward(rows, ws);
    }
}

/** Attention of one row over every layer and head at context @p ctx:
 *  query pack + KvCache::scores + probability pack + KvCache::values. */
double
attentionUs(Tracer &tr, int parent, const llm::TransformerModel &model,
            std::int64_t ctx, int reps, llm::TransformerModel::Workspace &ws,
            Rng &rng)
{
    const auto &cfg = model.config();
    std::vector<std::unique_ptr<llm::KvCache>> caches;
    caches.push_back(model.makeCache(cfg.maxSeq));
    prefill(model, caches, ctx, ws, rng);
    const llm::KvCache &cache = *caches.front();
    std::int64_t dHead = cfg.dHead(), cap = cache.capacity();
    std::vector<std::int8_t> q8(static_cast<std::size_t>(dHead));
    std::vector<std::int8_t> c8(static_cast<std::size_t>(cap), 0);
    for (auto &v : q8)
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    for (std::int64_t t = 0; t < ctx; ++t)
        c8[static_cast<std::size_t>(t)] =
            static_cast<std::int8_t>(rng.uniformInt(0, 127));
    BitSerialMatrix qPacked, cPacked;
    engine::PackedOperand qOp = engine::PackedOperand::viewDense(qPacked);
    engine::PackedOperand cOp = engine::PackedOperand::viewDense(cPacked);
    Int32Tensor s32, o32;
    return timed(tr, parent, "llm.attention_row", reps, [&] {
        for (std::int64_t l = 0; l < cfg.nLayers; ++l)
            for (std::int64_t h = 0; h < cfg.nHeads; ++h) {
                BitSerialMatrix::packInto(q8, 1, dHead, qPacked);
                cache.scores(l, h, qOp, ctx, s32);
                BitSerialMatrix::packInto(c8, 1, cap, cPacked);
                cache.values(l, h, cOp, o32);
            }
    });
}

void
replayGenerator(Tracer &tr, int parent, const ReplayShape &shape,
                MetricList &out)
{
    const int reps = shape.reps;
    const llm::TransformerConfig cfg = generatorConfig();
    Rng rng(shape.seed);

    // engine: the projection shapes packed through the benchmark's own
    // Session with the model's PackOptions and value range.
    engine::Session session;
    engine::PackOptions popts;
    popts.groupSize = cfg.groupSize;
    popts.targetColumns = cfg.targetColumns;
    struct Proj
    {
        const char *name;
        std::int64_t rows, cols;
    };
    const Proj projs[] = {{"q", cfg.dModel, cfg.dModel},
                          {"k", cfg.dModel, cfg.dModel},
                          {"v", cfg.dModel, cfg.dModel},
                          {"o", cfg.dModel, cfg.dModel},
                          {"up", cfg.dFf, cfg.dModel},
                          {"down", cfg.dModel, cfg.dFf},
                          {"lm_head", cfg.vocab, cfg.dModel}};
    double layerPlansB16 = 0.0, lmHeadB16 = 0.0, packB32 = 0.0;
    Int32Tensor y32;
    BitSerialMatrix packed;
    std::uint64_t seed = 11;
    for (const Proj &p : projs) {
        engine::MatmulPlan plan = session.plan(
            session.pack(lcgInt8(p.rows, p.cols, ++seed, 15), popts),
            engine::ShapeHints{cfg.expectedBatch});
        for (std::int64_t rows : {16, 32}) {
            Int8Tensor a8 = lcgInt8(rows, p.cols, ++seed, 127);
            const std::string key =
                std::string(p.name) + "_b" + std::to_string(rows);
            double us = timed(tr, parent, "engine.plan." + key, reps,
                              [&] { plan.run(a8, y32); });
            out.add("engine.plan_us." + key, us, "us");
            if (rows == 16)
                (std::string(p.name) == "lm_head" ? lmHeadB16
                                                  : layerPlansB16) += us;
            else
                packB32 += timed(tr, parent, "gemm.act_pack." + key, reps,
                                 [&] { BitSerialMatrix::packInto(a8, packed); });
        }
    }
    out.add("gemm.act_pack_us_b32", packB32, "us");

    std::unique_ptr<llm::TransformerModel> model;
    std::vector<double> buildMs;
    for (int i = 0; i < 3; ++i) {
        model.reset();
        int id = tr.begin("engine.model_build", parent);
        model = std::make_unique<llm::TransformerModel>(cfg);
        buildMs.push_back(tr.end(id) / 1e3);
    }
    out.add("engine.model_build_ms", median(buildMs), "ms");

    llm::TransformerModel::Workspace ws;
    // llm: 16 decode rows centred on chat's mean decode context.
    const std::int64_t decodeCtx =
        std::llround(std::max(shape.chatDecodeContext, 1.0));
    std::vector<std::unique_ptr<llm::KvCache>> caches;
    for (int i = 0; i < 16; ++i)
        caches.push_back(model->makeCache(cfg.maxSeq));
    std::int64_t len = std::max<std::int64_t>(1, decodeCtx - 1 - reps / 2);
    prefill(*model, caches, len, ws, rng);
    std::vector<llm::StepRow> rows(16);
    double decodeUs = timed(tr, parent, "llm.decode_step", reps, [&] {
        for (std::size_t i = 0; i < rows.size(); ++i) {
            rows[i].cache = caches[i].get();
            rows[i].token = static_cast<std::int32_t>(
                rng.uniformInt(0, cfg.vocab - 1));
            rows[i].pos = caches[i]->length();
            rows[i].wantLogits = true;
        }
        model->forward(rows, ws);
    });
    caches.clear();

    // llm: a 32-row step of two 16-token prefill chunks at a long
    // prompt's mean position; every timed step gets two fresh caches.
    const std::int64_t pos0 = std::max<std::int64_t>(
        0, std::llround(shape.prefillPosition) - 8);
    for (int i = 0; i < 2 * (reps + 1); ++i)
        caches.push_back(model->makeCache(cfg.maxSeq));
    prefill(*model, caches, pos0, ws, rng);
    std::size_t pair = 0;
    double prefillUs = timed(tr, parent, "llm.prefill_step", reps, [&] {
        rows.clear();
        for (std::size_t c = 2 * pair; c < 2 * pair + 2; ++c)
            for (std::int64_t p = pos0; p < pos0 + 16; ++p) {
                llm::StepRow r;
                r.cache = caches[c].get();
                r.token = static_cast<std::int32_t>(
                    rng.uniformInt(0, cfg.vocab - 1));
                r.pos = p;
                rows.push_back(r);
            }
        ++pair;
        model->forward(rows, ws);
    });
    caches.clear();

    double attnUs = attentionUs(
        tr, parent, *model,
        std::llround(std::max(shape.attentionContext, 1.0)), reps, ws, rng);
    double attnDecodeUs =
        attentionUs(tr, parent, *model, decodeCtx, reps, ws, rng);
    out.add("llm.decode_step_us", decodeUs, "us");
    out.add("llm.prefill_step_us", prefillUs, "us");
    out.add("llm.attention_us_per_row", attnUs, "us");
    out.add("llm.glue_us_per_row",
            (decodeUs - static_cast<double>(cfg.nLayers) * layerPlansB16 -
             lmHeadB16 - 16.0 * attnDecodeUs) /
                16.0,
            "us");
}

} // namespace

void
replayLayers(Tracer &tracer, ClassifyStack &classify,
             const ClassifyPool &rows, const ReplayShape &shape,
             MetricList &out, ReplayChecks &checks)
{
    int root = tracer.begin("replay");
    int simd = tracer.begin("simd", root);
    double ceiling = simdCeiling(tracer, simd, shape.reps);
    tracer.end(simd);
    out.add("simd.ceiling_gwords_per_s", ceiling, "Gword/s");

    // The plans run on every engine thread, so their roofline is the
    // per-thread ceiling times the thread cap.
    const double hostCeiling = ceiling * maxWorkerThreads();
    for (std::int64_t n : {16, 1}) {
        int id = tracer.begin("classifier_b" + std::to_string(n), root);
        replayClassifier(tracer, id, *classify.model, rows, n, shape.reps,
                         hostCeiling, out);
        tracer.end(id);
    }

    int wire = tracer.begin("wire_vs_in_process", root);
    out.add("net.wire_us_p50",
            wireOverheadUs(tracer, wire, classify, rows, shape.wirePairs,
                           checks),
            "us");
    tracer.end(wire);

    int gen = tracer.begin("generator", root);
    replayGenerator(tracer, gen, shape, out);
    tracer.end(gen);
    tracer.end(root);
}

} // namespace servebench
