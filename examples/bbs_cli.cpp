/**
 * @file
 * bbs_cli — a small command-line front end to the library, the shape of
 * tool a deployment flow would script against.
 *
 *   bbs_cli sparsity    --model ResNet-50
 *   bbs_cli compress    --model ViT-Base --columns 4 --strategy zp [--beta 0.2]
 *   bbs_cli simulate    --model Bert-MRPC [--accelerator "BitVert (mod)"]
 *   bbs_cli engine-info [--rows K --cols C --batch N --columns T]
 *   bbs_cli serve-stats [--requests N --clients M]
 *   bbs_cli autotune    --out tuning.json [--reps N --warmup N]
 *   bbs_cli store-pack  --out model.bbms [--in N --hidden N --classes N]
 *   bbs_cli store-info  --path model.bbms
 *
 * All workloads are the synthetic zoo (deterministic per seed); see
 * DESIGN.md for the substitution rationale.
 */
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "accel/factory.hpp"
#include "common/aligned.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "core/bbs.hpp"
#include "engine/engine.hpp"
#include "gemm/gemm.hpp"
#include "core/global_pruning.hpp"
#include "metrics/kl_divergence.hpp"
#include "models/model_zoo.hpp"
#include "models/workload.hpp"
#include "nn/layers.hpp"
#include "serve/server.hpp"
#include "sim/prepared_model.hpp"
#include "store/container.hpp"
#include "tensor/distribution.hpp"

namespace {

using namespace bbs;

/** Tiny flag parser: --key value pairs after the subcommand. */
std::map<std::string, std::string>
parseFlags(int argc, char **argv, int first)
{
    std::map<std::string, std::string> flags;
    for (int i = first; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        BBS_REQUIRE(key.rfind("--", 0) == 0, "expected --flag, got ", key);
        flags[key.substr(2)] = argv[i + 1];
    }
    return flags;
}

std::string
flagOr(const std::map<std::string, std::string> &flags,
       const std::string &key, const std::string &fallback)
{
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

MaterializedModel
load(const std::string &name)
{
    MaterializeOptions opts;
    opts.maxWeightsPerLayer = 1'000'000;
    return materializeModel(modelByName(name), opts);
}

int
cmdSparsity(const std::map<std::string, std::string> &flags)
{
    MaterializedModel mm = load(flagOr(flags, "model", "ResNet-50"));
    Table t({"Layer", "Value", "Bit (2's c)", "Sign-mag", "BBS(8)"});
    for (const auto &l : mm.layers) {
        const Int8Tensor &c = l.weights.values;
        t.addRow({l.desc.name, formatDouble(valueSparsity(c), 3),
                  formatDouble(bitSparsityTwosComplement(c), 3),
                  formatDouble(bitSparsitySignMagnitude(c), 3),
                  formatDouble(bbsSparsity(c, 8), 3)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdCompress(const std::map<std::string, std::string> &flags)
{
    MaterializedModel mm = load(flagOr(flags, "model", "ResNet-50"));
    GlobalPruneConfig cfg = moderateConfig();
    cfg.targetColumns = std::stoi(flagOr(flags, "columns", "4"));
    cfg.beta = std::stod(flagOr(flags, "beta", "0.2"));
    std::string strategy = flagOr(flags, "strategy", "zp");
    cfg.strategy = strategy == "ra" ? PruneStrategy::RoundedAveraging
                                    : PruneStrategy::ZeroPointShifting;

    PrunedModel pruned = globalBinaryPrune(mm.toPrunableLayers(), cfg);
    Table t({"Layer", "Sensitive", "Eff. bits", "KL"});
    for (std::size_t i = 0; i < pruned.layers.size(); ++i) {
        const PrunedLayer &pl = pruned.layers[i];
        t.addRow({pl.name, std::to_string(pl.numSensitive()),
                  formatDouble(pl.effectiveBits(), 2),
                  format("%.2e",
                         klDivergence(mm.layers[i].weights.values,
                                      pl.codes))});
    }
    t.print(std::cout);
    std::cout << "model: " << formatDouble(pruned.effectiveBits(), 2)
              << " bits/weight ("
              << formatDouble(pruned.compressionRatio(), 2)
              << "x compression)\n";
    return 0;
}

int
cmdSimulate(const std::map<std::string, std::string> &flags)
{
    MaterializedModel mm = load(flagOr(flags, "model", "ResNet-50"));
    std::string only = flagOr(flags, "accelerator", "");

    GlobalPruneConfig cons = conservativeConfig();
    GlobalPruneConfig mod = moderateConfig();
    PreparedModel plain = prepareModel(mm);
    PreparedModel withCons = prepareModel(mm, &cons);
    PreparedModel withMod = prepareModel(mm, &mod);
    SimConfig cfg;

    Table t({"Accelerator", "Cycles (M)", "Energy (uJ)", "EDP (norm)"});
    double refEdp = 0.0;
    for (auto &acc : evaluationLineup()) {
        if (!only.empty() && acc->name() != only)
            continue;
        const PreparedModel *pm = &plain;
        if (acc->name() == "BitVert (cons)")
            pm = &withCons;
        else if (acc->name() == "BitVert (mod)")
            pm = &withMod;
        ModelSim ms = acc->simulateModel(*pm, cfg);
        if (refEdp == 0.0)
            refEdp = ms.edp();
        t.addRow({acc->name(), format("%.2f", ms.totalCycles() / 1e6),
                  format("%.1f", ms.totalEnergyPj() / 1e6),
                  format("%.3f", ms.edp() / refEdp)});
    }
    t.print(std::cout);
    return 0;
}

/**
 * The engine/pool observability tallies from the process-global
 * registry: plan runs by kind (with per-kind latency), tune-cache
 * lookup outcomes, worker-pool utilization. Empty until something has
 * executed plans in THIS process (engine-info runs a probe first), and
 * compiled out entirely at BBS_OBS=0.
 */
void
printGlobalObs(std::ostream &os)
{
    std::vector<obs::MetricSnapshot> ms = obs::Registry::global().snapshot();
    if (ms.empty()) {
        os << "(no engine metrics: BBS_OBS=0 build, or nothing has "
              "executed yet)\n";
        return;
    }
    Table t({"engine/pool metric", "value"});
    for (const obs::MetricSnapshot &m : ms) {
        std::string name =
            m.labels.empty() ? m.name : m.name + "{" + m.labels + "}";
        switch (m.type) {
        case obs::MetricSnapshot::Type::Counter:
            t.addRow({name, std::to_string(m.counterValue)});
            break;
        case obs::MetricSnapshot::Type::Gauge:
            t.addRow({name, std::to_string(m.gaugeValue)});
            break;
        case obs::MetricSnapshot::Type::Histogram:
            t.addRow({name,
                      format("n=%llu mean=%.1f",
                             static_cast<unsigned long long>(m.count),
                             m.count > 0
                                 ? m.sum / static_cast<double>(m.count)
                                 : 0.0)});
            break;
        }
    }
    t.print(os);
}

/**
 * engine-info: what the engine facade resolved on this host — detected
 * SIMD level, worker-thread cap, the alignment guarantees the kernels
 * rely on — which plan kind a given (rows, cols, batch) shape would
 * select at a compression operating point, and the observability
 * tallies (plan-run counters, tune-cache hit/miss/fallback) after a
 * live probe of that shape.
 */
int
cmdEngineInfo(const std::map<std::string, std::string> &flags)
{
    std::int64_t rows = std::stoll(flagOr(flags, "rows", "64"));
    std::int64_t cols = std::stoll(flagOr(flags, "cols", "256"));
    std::int64_t batch = std::stoll(flagOr(flags, "batch", "8"));
    int columns = std::stoi(flagOr(flags, "columns", "4"));
    BBS_REQUIRE(rows > 0 && cols > 0 && batch > 0,
                "--rows/--cols/--batch must be positive");
    BBS_REQUIRE(columns >= 0 && columns <= kMaxPrunedColumns,
                "--columns must be 0..", kMaxPrunedColumns);

    // Show the raw environment values (an operator debugging a cap that
    // "isn't taking effect" needs to see a set-but-not-clamping value,
    // not "(unset)"); the resolved rows above them show the effect.
    const char *envThreads = std::getenv("BBS_THREADS");
    const char *envSimd = std::getenv("BBS_SIMD");
    Table rt({"engine runtime", "value"});
    rt.addRow({"active SIMD level", simdLevelName(activeSimdLevel())});
    rt.addRow({"max supported SIMD", simdLevelName(maxSupportedSimdLevel())});
    rt.addRow({"BBS_SIMD", envSimd ? envSimd : "(unset)"});
    rt.addRow({"worker-thread cap", std::to_string(maxWorkerThreads())});
    rt.addRow({"BBS_THREADS",
               envThreads ? envThreads : "(unset)"});
    rt.addRow({"plane alignment",
               std::to_string(kCacheLineBytes) + " B (64-byte bases)"});
    rt.addRow({"row-plane padding",
               std::to_string(kRowPlaneWordAlign) +
                   " words (whole cache lines)"});
    rt.addRow({"cache topology", engine::cacheTopologySummary()});
    rt.addRow({"GEMM depth block",
               std::to_string(
                   engine::EngineConfig{}.tuning
                       .resolvedDepthBlockWords()) +
                   " words"});
    const char *envCache = std::getenv("BBS_TUNE_CACHE");
    engine::Session probe; // loads BBS_TUNE_CACHE if deployed
    rt.addRow({"BBS_TUNE_CACHE", envCache ? envCache : "(unset)"});
    rt.addRow({"tuning cache",
               probe.tuningCache()
                   ? std::to_string(probe.tuningCache()->entries.size()) +
                         " measured shape classes"
                   : "(none: heuristic selection)"});
    rt.print(std::cout);

    // Plan selection for the requested shape: the stored-bit sparsity a
    // compressed operand would report is roughly 8 - targetColumns (the
    // compressor may do better via redundant columns).
    double storedBits = 8.0 - static_cast<double>(columns);
    Table plan({"operand", "batch", "plan kind"});
    for (std::int64_t b : {std::int64_t{1}, std::int64_t{2}, batch}) {
        plan.addRow({"dense", std::to_string(b),
                     planKindName(
                         engine::MatmulPlan::selectKind(b, false, 8.0))});
        plan.addRow({format("compressed (%d cols pruned)", columns),
                     std::to_string(b),
                     planKindName(engine::MatmulPlan::selectKind(
                         b, true, storedBits))});
    }
    plan.print(std::cout);
    std::cout << "shape: weights [" << rows << ", " << cols
              << "], activations [" << batch << ", " << cols << "]\n";

    // Live probe: execute the same shapes through the session so the
    // tallies below reflect this host's actual selections, not just the
    // static heuristic table above.
    if (rows * cols <= 4'000'000 && cols <= kMaxGemmDepth) {
        Rng rng(0x9e0be);
        Int8Tensor w(Shape{rows, cols});
        for (std::int64_t i = 0; i < w.numel(); ++i)
            w.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        engine::PackOptions popts;
        popts.targetColumns = columns;
        engine::PackedOperand dense = probe.pack(w);
        engine::PackedOperand comp = probe.pack(w, popts);
        Int32Tensor out;
        for (std::int64_t b : {std::int64_t{1}, std::int64_t{2}, batch}) {
            Int8Tensor x(Shape{b, cols});
            for (std::int64_t i = 0; i < x.numel(); ++i)
                x.flat(i) =
                    static_cast<std::int8_t>(rng.uniformInt(-128, 127));
            probe.plan(dense, {b}).run(x, out);
            probe.plan(comp, {b}).run(x, out);
        }
    }
    std::cout << "\nobservability (process-global registry, probe "
                 "included):\n";
    printGlobalObs(std::cout);
    return 0;
}

/**
 * serve-stats: stand up an InferenceServer, push a burst of closed-loop
 * traffic through it, and print the stats snapshot plus the full
 * Prometheus text exposition — the scrape surface a deployment wires a
 * collector to.
 */
int
cmdServeStats(const std::map<std::string, std::string> &flags)
{
    std::int64_t requests = std::stoll(flagOr(flags, "requests", "512"));
    int clients = std::stoi(flagOr(flags, "clients", "8"));
    BBS_REQUIRE(requests > 0 && clients > 0,
                "--requests/--clients must be positive");

    constexpr std::int64_t kFeatures = 64;
    Rng rng(0x5e77e);
    Network net;
    net.add(std::make_unique<Dense>(kFeatures, 32, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(32, 8, rng));
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("demo",
                  Int8Network::fromNetwork(
                      net, 32, 4, PruneStrategy::ZeroPointShifting));

    ServerConfig cfg;
    cfg.maxBatch = 16;
    cfg.maxDelayUs = 500;
    InferenceServer server(registry, cfg);

    std::vector<std::vector<float>> pool(16);
    Rng prng(0xf00d);
    for (auto &sample : pool) {
        sample.resize(static_cast<std::size_t>(kFeatures));
        for (float &v : sample)
            v = static_cast<float>(prng.uniformReal(-1.0, 1.0));
    }

    std::int64_t perClient = (requests + clients - 1) / clients;
    std::atomic<std::int64_t> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            for (std::int64_t i = 0; i < perClient; ++i) {
                std::size_t idx = static_cast<std::size_t>(
                    static_cast<std::int64_t>(t) + i) % pool.size();
                if (server.submit("demo", pool[idx]).get().status !=
                    ServeStatus::Ok)
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    BBS_REQUIRE(failures.load() == 0, failures.load(),
                " requests failed to serve");

    StatsSnapshot s = server.stats();
    Table t({"metric", "value"});
    t.addRow({"completed", std::to_string(s.completed)});
    t.addRow({"batches", std::to_string(s.batches)});
    t.addRow({"mean batch rows", format("%.2f", s.meanBatchRows)});
    t.addRow({"p50 latency", format("%.2f ms", s.p50Us / 1e3)});
    t.addRow({"p99 latency", format("%.2f ms", s.p99Us / 1e3)});
    t.addRow({"throughput", format("%.0f req/s", s.throughputRps)});
    t.print(std::cout);

    std::cout << "\n" << server.metricsText();
    return 0;
}

/**
 * autotune: measure the plan-kind / kernel-parameter winners for the
 * default shape suite on THIS host and write the tuning cache JSON.
 * Deploy by pointing BBS_TUNE_CACHE (or EngineConfig::tuneCachePath) at
 * the file.
 */
int
cmdAutotune(const std::map<std::string, std::string> &flags)
{
    std::string out = flagOr(flags, "out", "tuning.json");
    engine::AutotuneOptions opts;
    opts.reps = std::stoi(flagOr(flags, "reps", "3"));
    opts.warmup = std::stoi(flagOr(flags, "warmup", "1"));
    BBS_REQUIRE(opts.reps >= 1, "--reps must be >= 1");

    std::cout << "autotuning on " << engine::runtimeSummary() << "\n"
              << "topology: " << engine::cacheTopologySummary() << "\n";
    engine::TuningCache cache = engine::autotuneSuite(opts);

    Table t({"shape (r x d)", "batch", "stored bits", "winner",
             "depth block", "tile", "best s"});
    for (const engine::TuneEntry &e : cache.entries)
        t.addRow({format("%lld x %lld", static_cast<long long>(e.rows),
                         static_cast<long long>(e.depth)),
                  std::to_string(e.batch),
                  formatDouble(e.storedBits, 2), planKindName(e.kind),
                  e.depthBlockWords == 0 ? "topo"
                                         : std::to_string(
                                               e.depthBlockWords),
                  format("%dx%d", e.tileRows, e.tileCols),
                  format("%.2e", e.seconds)});
    t.print(std::cout);

    BBS_REQUIRE(cache.save(out), "cannot write tuning cache to ", out);
    std::cout << "wrote " << cache.entries.size()
              << " shape classes to " << out
              << "\ndeploy: BBS_TUNE_CACHE=" << out << "\n";
    return 0;
}

/**
 * store-pack: build the demo MLP (deterministic per --seed), compress it
 * at the requested operating point, and write it as a BBMS model
 * container — the artifact `ModelStore` / `store::mapModel` serve
 * zero-copy. The written file is reopened and mapped before reporting
 * success, so a "wrote ..." line implies a loadable container.
 */
int
cmdStorePack(const std::map<std::string, std::string> &flags)
{
    std::string out = flagOr(flags, "out", "model.bbms");
    std::int64_t in = std::stoll(flagOr(flags, "in", "512"));
    std::int64_t hidden = std::stoll(flagOr(flags, "hidden", "256"));
    std::int64_t classes = std::stoll(flagOr(flags, "classes", "64"));
    int columns = std::stoi(flagOr(flags, "columns", "4"));
    std::uint64_t seed = std::stoull(flagOr(flags, "seed", "42"));
    BBS_REQUIRE(in % 32 == 0 && hidden % 32 == 0,
                "--in and --hidden must be multiples of the group size "
                "(32), got ",
                in, " and ", hidden);

    Rng rng(seed);
    Network net;
    net.add(std::make_unique<Dense>(in, hidden, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(hidden, classes, rng));
    Int8Network engine = Int8Network::fromNetwork(
        net, 32, columns, PruneStrategy::ZeroPointShifting);

    std::size_t bytes = store::writeModelContainer(engine, out);
    auto container = store::MappedContainer::open(out);
    Int8Network mapped = store::mapModel(container);
    std::cout << format("wrote %s: %zu bytes, %zu layers, "
                        "%.2f effective bits/weight (verified: mapped "
                        "%lld -> %lld network)\n",
                        out.c_str(), bytes, container->layerCount(),
                        engine.effectiveBits(),
                        static_cast<long long>(mapped.inputFeatures()),
                        static_cast<long long>(
                            mapped.layers().back().outFeatures()));
    return 0;
}

/** store-info: validate + map a BBMS container and describe it. */
int
cmdStoreInfo(const std::map<std::string, std::string> &flags)
{
    std::string path = flagOr(flags, "path", "model.bbms");
    std::shared_ptr<const store::MappedContainer> c;
    std::string error;
    if (!store::MappedContainer::tryOpen(path, c, &error)) {
        std::cerr << "store-info: " << path << ": " << error << "\n";
        return 1;
    }
    std::cout << path << ": " << c->bytes() << " bytes, "
              << c->layerCount() << " layers, " << c->operandCount()
              << " operands"
              << (c->hasModel() ? "" : " (bare operands, no model)")
              << "\n";
    if (flagOr(flags, "verify", "0") != "0") {
        if (!c->verifyChecksums(&error)) {
            std::cerr << "store-info: " << error << "\n";
            return 1;
        }
        std::cout << (c->hasChecksums()
                          ? "checksums: all sections verified\n"
                          : "checksums: none stored (pre-checksum "
                            "container)\n");
    }
    Table t({"layer", "shape", "group", "stored bits", "activation"});
    for (std::size_t i = 0; i < c->layerCount(); ++i) {
        const store::MappedContainer::Layer &l = c->layer(i);
        t.addRow({std::to_string(i),
                  format("%lld x %lld",
                         static_cast<long long>(l.meta.outFeatures),
                         static_cast<long long>(l.meta.inFeatures)),
                  std::to_string(l.meta.groupSize),
                  formatDouble(c->operandStoredBits(
                                   static_cast<std::size_t>(
                                       l.meta.operandIndex)),
                               2),
                  l.meta.reluAfter   ? "relu"
                  : l.meta.geluAfter ? "gelu"
                                     : "-"});
    }
    t.print(std::cout);
    return 0;
}

int
usage()
{
    std::cerr << "usage: bbs_cli "
                 "<sparsity|compress|simulate|engine-info|serve-stats|"
                 "autotune|store-pack|store-info> "
                 "[--model NAME] [--columns N] [--strategy zp|ra] "
                 "[--beta F] [--accelerator NAME] [--rows K] [--cols C] "
                 "[--batch N] [--requests N] [--clients M] [--out PATH] "
                 "[--reps N] [--warmup N] [--in N] [--hidden N] "
                 "[--classes N] [--seed N] [--path FILE] [--verify 1]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    auto flags = parseFlags(argc, argv, 2);
    if (cmd == "sparsity")
        return cmdSparsity(flags);
    if (cmd == "compress")
        return cmdCompress(flags);
    if (cmd == "simulate")
        return cmdSimulate(flags);
    if (cmd == "engine-info")
        return cmdEngineInfo(flags);
    if (cmd == "serve-stats")
        return cmdServeStats(flags);
    if (cmd == "autotune")
        return cmdAutotune(flags);
    if (cmd == "store-pack")
        return cmdStorePack(flags);
    if (cmd == "store-info")
        return cmdStoreInfo(flags);
    return usage();
}
