/**
 * @file
 * servebench — wire-level serving benchmark.
 *
 *   servebench prepare --out FILE
 *       Build the classify model and write its BBMS container.
 *   servebench run --workload W --seed N --seconds S --trace 0|1
 *                  --container FILE [--spans FILE] [--short]
 *       Run one closed-loop workload over the socket front-end and print
 *       a run record line, then the result line (last line of stdout).
 *
 * Workloads: classify (InferenceServer behind NetServer), chat
 * (GenerationScheduler behind NetServer). Inputs come
 * from the seed; every reply is checked against the repository's
 * oracles; oracle work happens before the timed window. With --trace 1
 * the run also replays the per-layer calls under spans (replay.hpp) and
 * reports per-layer metrics instead of end-to-end ones.
 */
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "obs/exposition.hpp"
#include "replay.hpp"
#include "simd/simd.hpp"
#include "stacks.hpp"
#include "util.hpp"

namespace {

using namespace servebench;

/** One workload: traffic shape plus the tail percentile each timing
 *  reports (the highest of p75/p90/p95/p99 that keeps at least ten
 *  samples beyond it in a 30 s run, or p75). */
struct Workload
{
    const char *name;
    bool generate;
    int connections;
    int depth;
    int pool; ///< distinct rows or prompts
    int promptMin, promptMax;
    std::uint32_t maxNew;
    double warmupSeconds;
    /** An operation, for per-operation ratios, is a streamed token, not
     *  a request: chat's throughput is tokens_per_s. */
    bool tokenOps;
    double latencyTail, ttftTail, itlTail;
};

double
meanPrompt(const Workload &w)
{
    return (w.promptMin + w.promptMax) / 2.0;
}

/** Mean tokens attended to (pos + 1) over a request's step rows: the
 *  prompt rows, then a decode row for each continuation token after the
 *  first. */
double
meanContext(const Workload &w)
{
    double rows = meanPrompt(w) + w.maxNew - 1.0;
    return (rows + 1.0) / 2.0;
}

const Workload kWorkloads[] = {
    {"classify", false, 4, 8, 64, 0, 0, 0, 3.0, false, 0.99, 0.99, 0.99},
    {"chat", true, 4, 4, 8, 8, 32, 128, 3.0, true, 0.75, 0.75, 0.99},
};

/** The prompt length at whose mean position the replayed prefill step
 *  runs: the middle of 128-224 tokens, a long summarising prompt. */
constexpr double kLongPromptTokens = 176.0;

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

struct Args
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string container;
    std::string spans;
    std::string out;
    bool shortRun = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc < 2)
        return false;
    a.command = argv[1];
    try {
        for (int i = 2; i < argc; ++i) {
            std::string k = argv[i];
            if (k == "--short") {
                a.shortRun = true;
                continue;
            }
            if (i + 1 >= argc)
                return false;
            std::string v = argv[++i];
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = v == "1";
            else if (k == "--container")
                a.container = v;
            else if (k == "--spans")
                a.spans = v;
            else if (k == "--out")
                a.out = v;
            else
                return false;
        }
    } catch (const std::exception &) {
        return false; // a malformed number
    }
    return true;
}

std::string
percentileName(double q)
{
    char buf[8];
    std::snprintf(buf, sizeof(buf), "p%d", static_cast<int>(q * 100.0 + 0.5));
    return buf;
}

/**
 * Scrape-derived per-layer metrics over the window. Tallies that grow
 * with throughput are divided by the window's completed operations
 * (@p ops), so a faster program does not read as more work; error
 * tallies stay counts. The time-valued ones go to @p recordOnly: their
 * series are empty by construction on some workloads, so they stay in
 * the run record only.
 */
void
windowLayerMetrics(const Scrape &a, const Scrape &b, double kvMaxBytes,
                   double ops, MetricList &out, MetricList &recordOnly)
{
    using bbs::obs::histogramQuantile;
    auto perOp = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
    out.add("net.frames_in",
            perOp(counterDelta(a, b, "bbs_net_frames_in_total")),
            "frames/op");
    out.add("net.frames_out",
            perOp(counterDelta(a, b, "bbs_net_responses_out_total") +
                  counterDelta(a, b, "bbs_net_stream_chunks_out_total")),
            "frames/op");
    out.add("net.protocol_errors",
            counterDelta(a, b, "bbs_net_protocol_errors_total"), "count");
    out.add("serve.batches",
            perOp(counterDelta(a, b, "bbs_serve_batches_total")),
            "batches/op");
    out.add("serve.batch_rows_mean",
            histogramMean(histogramDelta(a, b, "bbs_serve_batch_rows")),
            "rows");
    out.add("serve.rejected",
            counterDelta(a, b, "bbs_serve_requests_overloaded_total") +
                counterDelta(a, b, "bbs_serve_requests_expired_total") +
                counterDelta(a, b, "bbs_serve_requests_shutdown_total"),
            "count");
    double steps = counterDelta(a, b, "bbs_llm_steps_total");
    double decodeRows = counterDelta(a, b, "bbs_llm_decode_rows_total");
    double prefillRows = counterDelta(a, b, "bbs_llm_prefill_rows_total");
    out.add("serve.gen_steps", perOp(steps), "steps/op");
    out.add("serve.gen_decode_rows", perOp(decodeRows), "rows/op");
    out.add("serve.gen_prefill_rows", perOp(prefillRows), "rows/op");
    out.add("serve.gen_step_rows_mean",
            steps > 0 ? (decodeRows + prefillRows) / steps : 0.0, "rows");
    out.add("serve.gen_kv_mb_max", kvMaxBytes / (1024.0 * 1024.0), "MiB");
    for (const char *kind :
         {"per-dot", "tiled-bit-serial", "compressed-batched"}) {
        std::string label = std::string("kind=\"") + kind + "\"";
        out.add(std::string("engine.plan_runs.") + kind,
                perOp(counterDelta(a, b, "bbs_engine_plan_runs_total",
                                   label)),
                "runs/op");
        recordOnly.add(std::string("engine.plan_p50_us.") + kind,
                  histogramQuantile(
                      histogramDelta(a, b, "bbs_engine_plan_latency_us",
                                     label),
                      0.5),
                  "us");
    }
    for (const char *outcome : {"hit", "miss", "fallback"}) {
        std::string label = std::string("outcome=\"") + outcome + "\"";
        out.add(std::string("engine.tune_lookups.") + outcome,
                perOp(counterDelta(a, b, "bbs_engine_tune_lookups_total",
                                   label)),
                "lookups/op");
    }
    double jobs = counterDelta(a, b, "bbs_pool_jobs_total");
    out.add("common.pool_jobs_per_op", perOp(jobs), "ratio");
    out.add("common.pool_helpers_per_job",
            jobs > 0 ? counterDelta(a, b, "bbs_pool_helpers_total") / jobs
                     : 0.0,
            "ratio");
    out.add("common.pool_fallbacks",
            counterDelta(a, b, "bbs_pool_fallback_total"), "count");
    recordOnly.add("serve.queue_wait_p50_us",
              histogramQuantile(
                  histogramDelta(a, b, "bbs_serve_queue_wait_us"), 0.5),
              "us");
    recordOnly.add("serve.gen_step_p50_us",
              histogramQuantile(
                  histogramDelta(a, b, "bbs_llm_step_latency_us"), 0.5),
              "us");
}

/** Median store.* timings of classify set-ups. */
void
storeMetrics(const std::vector<SetupTimes> &setups, MetricList &out)
{
    std::vector<double> open, map, first;
    for (const auto &s : setups) {
        open.push_back(s.openMs);
        map.push_back(s.mapMs);
        first.push_back(s.firstRequestMs);
    }
    out.add("store.open_ms", median(open), "ms");
    out.add("store.map_ms", median(map), "ms");
    out.add("store.first_request_ms", median(first), "ms");
}

/** The seeded classify pool and its oracle, on the container's model;
 *  false when the container cannot be opened. */
bool
loadClassifyPool(const Args &a, int count, ClassifyPool &rows)
{
    std::shared_ptr<const bbs::store::MappedContainer> c;
    if (!bbs::store::MappedContainer::tryOpen(a.container, c)) {
        std::cerr << "servebench: cannot open " << a.container << "\n";
        return false;
    }
    rows = makeClassifyPool(bbs::store::mapModel(c), a.seed, count);
    return true;
}

int
prepare(const Args &a)
{
    if (a.out.empty())
        return 2;
    bbs::store::writeModelContainer(buildClassifier(), a.out);
    return 0;
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string out;
    for (double x : v)
        out += (out.empty() ? "" : ", ") + jsonNumber(x);
    return "[" + out + "]";
}

/**
 * The gated end-to-end metrics of one run: set-up time, peak RSS and CPU
 * time per reply and per token. The wall-clock figures (rates, p50s and
 * tails) go to @p wall and the tails' percentile and sample counts to
 * @p tailRecord: on a shared 4-vCPU host they follow the host's load, not
 * the program (README.md, "Bounds and steadiness"), so they are reported
 * in the run record but not gated. One-shot replies count as one-token
 * streams, so on classify the token metrics equal the request ones.
 */
MetricList
endToEndMetrics(const Workload &w, const std::vector<double> &setupS,
                double peakRss, const LoadResult &load, MetricList &wall,
                std::string &tailRecord)
{
    const double window = load.windowSeconds;
    const double reqs = static_cast<double>(load.windowRequests);
    const double toks = static_cast<double>(load.windowTokens);
    MetricList e2e;
    e2e.add("setup_s", median(setupS), "s");
    e2e.add("peak_rss_mb", peakRss, "MiB");
    e2e.add("cpu_ms_per_req", load.cpuMsPerRequest, "ms");
    e2e.add("cpu_ms_per_token", load.cpuMsPerToken, "ms");
    wall.add("req_per_s", window > 0 ? reqs / window : 0.0, "1/s");
    wall.add("tokens_per_s", window > 0 ? toks / window : 0.0, "1/s");
    struct Timing
    {
        const char *name;
        const std::vector<double> &samples;
        double tail;
    };
    const Timing timings[] = {{"latency", load.latencyMs, w.latencyTail},
                              {"ttft", load.ttftMs, w.ttftTail},
                              {"itl", load.itlMs, w.itlTail}};
    for (const Timing &t : timings) {
        const double tail = quantile(t.samples, t.tail);
        wall.add(std::string(t.name) + "_p50_ms", median(t.samples), "ms");
        wall.add(std::string(t.name) + "_tail_ms", tail, "ms");
        const auto beyond = std::count_if(t.samples.begin(), t.samples.end(),
                                          [&](double v) { return v > tail; });
        tailRecord += (tailRecord.empty() ? "\"" : ", \"") +
                      std::string(t.name) + "_tail_ms\": {\"percentile\": \"" +
                      percentileName(t.tail) + "\", \"samples\": " +
                      std::to_string(t.samples.size()) +
                      ", \"beyond\": " + std::to_string(beyond) + "}";
    }
    return e2e;
}

int
run(const Args &a)
{
    const Workload *w = findWorkload(a.workload);
    if (!w || a.container.empty() || a.seconds <= 0.0) {
        std::cerr << "servebench: unknown workload or missing arguments\n";
        return 2;
    }
    const int setupReps = a.shortRun ? 2 : (w->generate ? 7 : 9);
    const int poolSize = a.shortRun ? std::min(w->pool, 2) : w->pool;
    std::uint64_t attempted = 0, failed = 0;
    std::string firstError;

    // Inputs and their oracles, before anything is timed. The classify
    // pool also feeds the traced replay; generation workloads build it
    // only there, after peak_rss_mb is read.
    ClassifyPool rows;
    if (!w->generate && !loadClassifyPool(a, a.shortRun ? 16 : poolSize, rows))
        return 2;
    PromptPool prompts;
    if (w->generate) {
        bbs::llm::TransformerModel oracleModel(generatorConfig());
        prompts = makePromptPool(oracleModel, a.seed, poolSize, w->promptMin,
                                 w->promptMax, w->maxNew);
    }

    // Set-up, several times; the last stack serves the window.
    std::vector<SetupTimes> setups;
    std::unique_ptr<ClassifyStack> classify;
    std::unique_ptr<GenerateStack> generate;
    for (int i = 0; i < setupReps; ++i) {
        SetupTimes t;
        if (w->generate) {
            generate.reset();
            generate = startGenerate(prompts, t);
        } else {
            classify.reset();
            classify = startClassify(a.container, rows, t);
            if (!classify) {
                std::cerr << "servebench: cannot open " << a.container << "\n";
                return 2;
            }
        }
        ++attempted;
        if (!t.firstReplyOk) {
            ++failed;
            firstError = "set-up request differs from its oracle";
        }
        setups.push_back(t);
    }
    bbs::InferenceServer &server =
        w->generate ? *generate->server : *classify->server;

    // The measured window.
    Scrape s0, s1;
    double kvMax = 0.0;
    LoadSpec spec;
    spec.model = w->generate ? kGenerateModel : kClassifyModel;
    spec.connections = w->connections;
    spec.depth = w->depth;
    spec.classify = w->generate ? nullptr : &rows;
    spec.generate = w->generate ? &prompts : nullptr;
    spec.warmupSeconds = a.shortRun ? 0.5 : w->warmupSeconds;
    spec.windowSeconds = a.seconds;
    spec.onWindowStart = [&] { s0 = scrape(server.metrics()); };
    spec.onWindowEnd = [&] { s1 = scrape(server.metrics()); };
    if (w->generate)
        spec.onTick = [&] {
            kvMax = std::max(kvMax, scrape(server.metrics())
                                        .gauge("bbs_llm_kv_resident_bytes"));
        };
    const LoadResult load = runLoad(
        w->generate ? generate->net->port() : classify->net->port(), spec);
    attempted += load.attempted;
    failed += load.failed;
    if (firstError.empty())
        firstError = load.firstError;

    std::vector<double> setupS, setupWallS;
    for (const auto &s : setups) {
        setupS.push_back(s.cpuS);
        setupWallS.push_back(s.wallS);
    }
    std::string tailRecord;
    MetricList wall;
    const MetricList e2e =
        endToEndMetrics(*w, setupS, peakRssMiB(), load, wall, tailRecord);

    // Per-layer metrics: registry scrapes over the window always, the
    // span replay on traced runs.
    MetricList layers, recordOnly;
    windowLayerMetrics(
        s0, s1, kvMax,
        static_cast<double>(w->tokenOps ? load.windowTokens
                                        : load.windowRequests),
        layers, recordOnly);
    Tracer tracer;
    double ceiling = 0.0, replaySeconds = 0.0;
    if (a.trace) {
        const Clock::time_point r0 = Clock::now();
        std::unique_ptr<ClassifyStack> replayStack;
        std::vector<SetupTimes> storeSetups = setups;
        if (w->generate) {
            // The wire comparison and store.* need a classify server.
            if (!loadClassifyPool(a, 16, rows))
                return 2;
            storeSetups.clear();
            for (int i = 0; i < setupReps; ++i) {
                SetupTimes t;
                replayStack.reset();
                replayStack = startClassify(a.container, rows, t);
                storeSetups.push_back(t);
            }
        }
        storeMetrics(storeSetups, layers);
        const Workload &chat = *findWorkload("chat");
        ReplayShape shape;
        shape.chatDecodeContext = meanPrompt(chat) + chat.maxNew / 2.0;
        shape.prefillPosition = kLongPromptTokens / 2.0;
        shape.attentionContext = meanContext(chat);
        shape.reps = a.shortRun ? 3 : 9;
        shape.wirePairs = a.shortRun ? 10 : 80;
        shape.seed = a.seed;
        ReplayChecks checks;
        replayLayers(tracer, replayStack ? *replayStack : *classify, rows,
                     shape, layers, checks);
        attempted += checks.attempted;
        failed += checks.failed;
        if (checks.failed > 0 && firstError.empty())
            firstError = "replayed classify reply differs from its oracle";
        for (const auto &e : layers.entries)
            if (e.name == "simd.ceiling_gwords_per_s")
                ceiling = e.value;
        replaySeconds = secondsBetween(r0, Clock::now());
        if (!a.spans.empty() && !tracer.write(a.spans))
            std::cerr << "servebench: cannot write " << a.spans << "\n";
    } else {
        ceiling = simdCeiling(tracer, -1, 5);
    }
    classify.reset();
    generate.reset();

    const bool correct = failed == 0 && attempted > 0 &&
                         load.cpuRequests > 0 && load.cpuTokens > 0;
    std::cout << "{\"record\": {\"workload\": " << jsonString(w->name)
              << ", \"seed\": " << a.seed << ", \"seconds\": "
              << jsonNumber(a.seconds) << ", \"trace\": " << (a.trace ? 1 : 0)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"engine_thread_cap\": " << bbs::maxWorkerThreads()
              << ", \"simd_level\": "
              << jsonString(bbs::simdLevelName(bbs::activeSimdLevel()))
              << ", \"simd.ceiling_gwords_per_s\": " << jsonNumber(ceiling)
              << ", \"setup_cpu_s_samples\": " << jsonList(setupS)
              << ", \"setup_wall_s_samples\": " << jsonList(setupWallS)
              << ", \"window\": {\"seconds\": " << jsonNumber(load.windowSeconds)
              << ", \"requests\": " << load.windowRequests
              << ", \"tokens\": " << load.windowTokens
              << ", \"cpu_requests\": " << load.cpuRequests
              << ", \"cpu_tokens\": " << load.cpuTokens << "}"
              << ", \"end_to_end\": " << e2e.json()
              << ", \"wall\": " << wall.json()
              << ", \"tails\": {" << tailRecord << "}"
              << ", \"per_layer\": " << layers.json()
              << ", \"per_layer_record_only\": " << recordOnly.json()
              << ", \"replay_seconds\": " << jsonNumber(replaySeconds)
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"first_error\": " << jsonString(firstError) << "}}\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << (a.trace ? layers.json() : e2e.json())
              << "}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::cerr << "usage: servebench prepare --out FILE\n"
                     "       servebench run --workload W --seed N --seconds S"
                     " --trace 0|1 --container FILE [--spans FILE]"
                     " [--short]\n";
        return 2;
    }
    if (a.command == "prepare")
        return prepare(a);
    if (a.command == "run")
        return run(a);
    std::cerr << "servebench: unknown command " << a.command << "\n";
    return 2;
}
