/**
 * @file
 * Soak-and-chaos harness for the serving engine: does the runtime hold
 * its latency, memory and allocation invariants over MINUTES of open-loop
 * load with faults injected — not just over a benchmark's seconds?
 *
 * Load model. Three hosted models with heavy-tailed input sizes and
 * Zipf-like popularity (a small model takes most traffic, a rare large
 * one drags in the big GEMMs), Poisson arrivals across --clients open-
 * loop client threads, and a deadline mixture (most requests unbounded, a
 * slice generous, a slice tight enough to exercise the expiry path).
 * The offered rate is set to ~55% of a measured closed-loop capacity so
 * the steady state is stable by construction — any drift the gates catch
 * is the server's, not the load generator's.
 *
 * Observability loop. The server runs with workers = 0 and the harness
 * owns one drain thread per queue shard, so common/alloc_count.hpp's
 * thread-local counters measure exactly the drain paths' heap traffic.
 * Admission control is ON (maxShardDepth) — the soak covers the
 * production shape, and Overloaded is a legal answer under backlog. A
 * NetServer runs over the same engine and a slice of the traffic
 * arrives through the socket path, so the epoll loop, framing and
 * completion plumbing soak alongside the kernels. Every window
 * (1-2 s) the harness scrapes the server registry + the process-global
 * registry, computes the window's completed-rate and p99 (from latency
 * histogram bucket DELTAS — the percentile of that window alone), reads
 * RSS from /proc/self/statm, and appends everything to a timeline JSON
 * (--timeline) written through the shared JsonWriter.
 *
 * Chaos. Mid-run the harness injects: a drain stall (the "worker wedged
 * mid-batch" fault — queue depth spikes, deadlines expire, then the
 * backlog drains), a shard drain-thread KILL + restart (the shard goes
 * dead for 300 ms, then the restarted thread must drain the backlog and
 * serve bit-identically again), a connection stalled MID-FRAME for a
 * second (half a Request frame held across a window — other connections
 * must keep being served, and completing the frame must still yield the
 * bit-exact answer), a corrupted operand container that MUST be
 * rejected by MappedContainer::tryOpen (the registry-load fault), a
 * queue-overflow burst of tight-deadline requests (with admission on,
 * the shed + expiry counters together must absorb it), and a
 * worker-pool hog (a foreign parallelFor occupies the persistent pool,
 * forcing the server's GEMMs onto the spawn-per-call fallback — visible
 * in bbs_pool_fallback_total), and a model HOT-SWAP under load (the
 * most popular model re-packed into a BBMS container, mapped, and
 * atomically swapped into the registry mid-traffic — the clients'
 * per-request oracle checks must stay clean across the version bump).
 * Fault windows and one recovery window
 * after each are marked in the timeline and EXCLUDED from the gates.
 *
 * Drift gates, evaluated over the steady (post-warmup, non-fault)
 * windows; any failure exits non-zero:
 *   - p99 bounded (absolute cap) and not drifting (late-run median vs
 *     early-run median);
 *   - RSS plateau: the last steady window's RSS within 10% + slack of
 *     the first steady window's;
 *   - ZERO drain-thread heap allocations summed over steady windows;
 *   - completed-rate of every steady window within 10% of the first;
 *   - the final Prometheus exposition round-trips through
 *     obs::parsePrometheusText and agrees with the stats snapshot.
 *
 * Defaults are a short smoke (~20 s); nightly CI runs --seconds 180.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.hpp"
#include "common/alloc_count.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "engine/packed_operand.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "nn/layers.hpp"
#include "obs/exposition.hpp"
#include "serve/server.hpp"
#include "store/container.hpp"

namespace {

using namespace bbs;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- load model

/** Hosted model shapes: heavy-tailed input sizes, Zipf-ish popularity. */
struct ModelSpec
{
    const char *name;
    std::int64_t input, hidden, classes;
    double popularity;
};

constexpr ModelSpec kModels[] = {
    {"mobile", 128, 64, 16, 0.70},
    {"base", 512, 256, 64, 0.25},
    {"xl", 1024, 512, 64, 0.05},
};
constexpr std::size_t kNumModels = sizeof(kModels) / sizeof(kModels[0]);
constexpr std::size_t kPoolSize = 32; ///< distinct samples per model

/** Deadline mixture: none / generous / tight (µs). */
std::int64_t
drawDeadlineUs(Rng &rng)
{
    double u = rng.uniformReal(0.0, 1.0);
    if (u < 0.80)
        return 0;
    if (u < 0.95)
        return 100'000;
    return 20'000;
}

struct HostedModel
{
    std::string name;
    std::vector<std::vector<float>> pool;   ///< input samples
    std::vector<std::vector<float>> oracle; ///< per-dot forward logits
};

// ----------------------------------------------------------- scrape utils

std::vector<obs::MetricSnapshot>
scrapeAll(const InferenceServer &server)
{
    std::vector<obs::MetricSnapshot> all = server.metrics().snapshot();
    std::vector<obs::MetricSnapshot> g = obs::Registry::global().snapshot();
    all.insert(all.end(), std::make_move_iterator(g.begin()),
               std::make_move_iterator(g.end()));
    return all;
}

const obs::MetricSnapshot *
findMetric(const std::vector<obs::MetricSnapshot> &ms, std::string_view name)
{
    for (const auto &m : ms)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::uint64_t
counterValue(const std::vector<obs::MetricSnapshot> &ms,
             std::string_view name)
{
    const obs::MetricSnapshot *m = findMetric(ms, name);
    return m != nullptr ? m->counterValue : 0;
}

/**
 * The window's own p99, from the latency histogram's bucket deltas
 * between two scrapes: the smallest bucket bound covering >= 99% of the
 * observations that landed in this window. 0 when the window saw none.
 */
double
p99FromDeltas(const obs::MetricSnapshot *cur, const obs::MetricSnapshot *prev)
{
    if (cur == nullptr || prev == nullptr ||
        cur->bucketCounts.size() != prev->bucketCounts.size())
        return 0.0;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cur->bucketCounts.size(); ++i)
        total += cur->bucketCounts[i] - prev->bucketCounts[i];
    if (total == 0)
        return 0.0;
    std::uint64_t target =
        total - static_cast<std::uint64_t>(0.01 * static_cast<double>(total));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < cur->bucketCounts.size(); ++i) {
        cum += cur->bucketCounts[i] - prev->bucketCounts[i];
        if (cum >= target)
            return i < cur->bounds.size() ? cur->bounds[i]
                                          : cur->bounds.back();
    }
    return cur->bounds.back();
}

/** Resident set size in KiB from /proc/self/statm; -1 when unreadable. */
long
rssKb()
{
    std::ifstream f("/proc/self/statm");
    long pages = 0, resident = 0;
    if (!(f >> pages >> resident))
        return -1;
    long pageKb = sysconf(_SC_PAGESIZE) / 1024;
    return resident * pageKb;
}

// ------------------------------------------------------------ fault marks

struct FaultEvent
{
    std::string name;
    double startS = 0.0;
    double endS = -1.0; ///< -1 while the fault is still in progress
};

class FaultLog
{
  public:
    std::size_t
    begin(const std::string &name, double atS)
    {
        std::lock_guard<std::mutex> lk(m_);
        events_.push_back({name, atS, -1.0});
        return events_.size() - 1;
    }

    void
    end(std::size_t idx, double atS)
    {
        std::lock_guard<std::mutex> lk(m_);
        events_[idx].endS = atS;
    }

    /** First event overlapping [fromS, toS]; empty string when none. */
    std::string
    overlap(double fromS, double toS) const
    {
        std::lock_guard<std::mutex> lk(m_);
        for (const FaultEvent &e : events_) {
            double end = e.endS < 0.0 ? 1e300 : e.endS;
            if (e.startS <= toS && end >= fromS)
                return e.name;
        }
        return "";
    }

    std::vector<FaultEvent>
    all() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return events_;
    }

  private:
    mutable std::mutex m_;
    std::vector<FaultEvent> events_;
};

// ---------------------------------------------------------------- windows

struct Window
{
    double tS = 0.0;       ///< window end, seconds since open-loop start
    double rps = 0.0;      ///< Ok completions / window
    double p99Us = 0.0;    ///< this window's p99 (bucket deltas)
    std::int64_t queueDepth = 0;
    long rssKb = -1;
    std::uint64_t drainAllocs = 0; ///< drain-thread heap allocations
    std::string fault;             ///< "" = clean; else fault/recovery name
    bool steady = false;           ///< participates in the drift gates
    std::vector<obs::MetricSnapshot> scrape; ///< full registry reading
};

struct ChaosReport
{
    bool blobCorruptRejected = false;
    bool blobTruncatedRejected = false;
    bool blobIntactAccepted = false;
    bool shardRestartServed = false; ///< killed shard serves after restart
    bool netStallServed = false;     ///< mid-frame stall completes to Ok
    std::uint64_t burstExpired = 0;
    std::uint64_t burstShed = 0; ///< burst requests answered Overloaded
    std::uint64_t hogFallbacks = 0;
    bool hogRan = false;
    std::uint64_t swapVersion = 0;    ///< registry version after hot-swap
    bool swapServedIdentical = false; ///< swapped-in engine is bit-exact
};

/**
 * The registry-load fault: an operand is written to a BBMS container,
 * and two corrupted copies of the file (a flipped magic byte, a
 * truncation) must each be rejected by MappedContainer::tryOpen WITHOUT
 * terminating; the intact file must still map back to the operand.
 */
void
injectMalformedBlob(ChaosReport &report)
{
    Rng rng(0x0b10b);
    Int8Tensor w(Shape{16, 64});
    for (std::int64_t i = 0; i < w.numel(); ++i)
        w.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-100, 100));
    engine::PackOptions opts;
    opts.targetColumns = 4;
    engine::PackedOperand op = engine::PackedOperand::packCompressed(w, opts);
    std::string path =
        "/tmp/bbs_soak_blob_" + std::to_string(::getpid()) + ".bbms";
    store::writeOperandContainer({op}, path);
    std::string blob;
    {
        std::ifstream in(path, std::ios::binary);
        blob.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }

    auto rejects = [&](const std::string &bytes) {
        std::string badPath = path + ".bad";
        std::ofstream(badPath, std::ios::binary | std::ios::trunc) << bytes;
        std::shared_ptr<const store::MappedContainer> c;
        std::string error;
        bool rejected = !store::MappedContainer::tryOpen(badPath, c, &error);
        std::remove(badPath.c_str());
        return rejected && c == nullptr && !error.empty();
    };
    std::string bad = blob;
    bad[0] ^= 0xff; // magic
    report.blobCorruptRejected = rejects(bad);
    report.blobTruncatedRejected = rejects(blob.substr(0, blob.size() / 2));

    std::shared_ptr<const store::MappedContainer> container;
    if (store::MappedContainer::tryOpen(path, container)) {
        // Compression is lossy, so the reference is the ORIGINAL
        // operand's reconstruction, which the mapped view must match
        // bit-exactly.
        Int8Tensor round = store::mapOperand(container, 0).unpack();
        Int8Tensor ref = op.unpack();
        std::span<const std::int8_t> a = round.data(), b = ref.data();
        report.blobIntactAccepted =
            a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------------------ gates

struct GateResults
{
    bool p99Bounded = true;
    bool p99NoDrift = true;
    bool rssPlateau = true;
    bool allocFree = true;
    bool throughputStable = true;
    bool faultsHandled = true;
    bool promRoundTrip = true;

    bool
    all() const
    {
        return p99Bounded && p99NoDrift && rssPlateau && allocFree &&
               throughputStable && faultsHandled && promRoundTrip;
    }
};

constexpr double kP99CapUs = 250'000.0; ///< absolute steady p99 bound

double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    double seconds = 20.0;
    int clients = 64;
    std::string timelinePath;
    for (int i = 1; i + 1 < argc; ++i) {
        std::string a = argv[i];
        if (a == "--seconds")
            seconds = std::max(6.0, std::atof(argv[i + 1]));
        else if (a == "--clients")
            clients = std::max(1, std::atoi(argv[i + 1]));
        else if (a == "--timeline")
            timelinePath = argv[i + 1];
    }
    bench::jsonInit("soak_serve", argc, argv);
    bench::printHeader(
        "soak_serve",
        format("open-loop soak (%.0f s, %d clients) with fault injection: "
               "bounded p99, RSS plateau, zero drain-path allocations, "
               "stable throughput",
               seconds, clients));

    // ---- hosted models + per-sample oracles ---------------------------
    std::vector<HostedModel> models(kNumModels);
    auto registry = std::make_shared<ModelRegistry>();
    {
        Rng wrng(0x50a1c);
        for (std::size_t mi = 0; mi < kNumModels; ++mi) {
            const ModelSpec &spec = kModels[mi];
            Network net;
            net.add(std::make_unique<Dense>(spec.input, spec.hidden, wrng));
            net.add(std::make_unique<ReluLayer>());
            net.add(std::make_unique<Dense>(spec.hidden, spec.classes, wrng));
            registry->add(spec.name,
                          Int8Network::fromNetwork(
                              net, 32, 4, PruneStrategy::ZeroPointShifting));
            std::shared_ptr<const Int8Network> engine =
                registry->find(spec.name);

            HostedModel &hm = models[mi];
            hm.name = spec.name;
            hm.pool.resize(kPoolSize);
            hm.oracle.resize(kPoolSize);
            Rng prng(0xf00d + mi);
            for (std::size_t s = 0; s < kPoolSize; ++s) {
                hm.pool[s].resize(static_cast<std::size_t>(spec.input));
                for (float &v : hm.pool[s])
                    v = static_cast<float>(prng.uniformReal(-1.0, 1.0));
                Batch x(Shape{1, spec.input});
                for (std::int64_t c = 0; c < spec.input; ++c)
                    x.at(0, c) = hm.pool[s][static_cast<std::size_t>(c)];
                Batch y = engine->forward(
                    x, {engine::Calibration::PerBatch,
                        engine::PlanKind::PerDot});
                hm.oracle[s].resize(static_cast<std::size_t>(spec.classes));
                for (std::int64_t c = 0; c < spec.classes; ++c)
                    hm.oracle[s][static_cast<std::size_t>(c)] = y.at(0, c);
            }
        }
    }

    // ---- server: workers = 0, the harness owns one drain thread PER
    //      SHARD so the thread-local alloc counters measure exactly the
    //      drain paths. Admission control is on — the production shape.
    ServerConfig cfg;
    cfg.maxBatch = 64;
    cfg.maxDelayUs = 1000;
    cfg.workers = 0;
    cfg.shards = 2;
    cfg.maxShardDepth = 4096;
    InferenceServer server(registry, cfg);
    const std::size_t kShards = server.queues().shardCount();
    // The shard the most popular model routes to: the stall and
    // kill/restart faults target it so the faulted shard is guaranteed
    // live traffic (a drain thread on an idle shard blocks in
    // drainOnce and would never observe its kill flag).
    const std::size_t victimShard =
        server.queues().indexFor(kModels[0].name);

    /// Per-shard drain stall deadlines, set by the drain warm-up and the
    /// drain-stall fault.
    std::vector<std::atomic<long long>> stallUntilNs(kShards);
    struct DrainShard
    {
        std::atomic<std::uint64_t> allocsPub{0};
        std::atomic<bool> kill{false};
        std::uint64_t allocBase = 0; ///< allocs of dead incarnations
        std::thread thread;
    };
    std::vector<DrainShard> drains(kShards);
    auto drainLoop = [&](std::size_t s) {
        DrainShard &ds = drains[s];
        std::uint64_t base = ds.allocBase;
        for (;;) {
            long long st = stallUntilNs[s].load(std::memory_order_relaxed);
            long long now = Clock::now().time_since_epoch().count();
            if (st > now)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(st - now));
            if (ds.kill.load(std::memory_order_relaxed))
                break;
            if (server.drainOnce(s) == 0)
                break;
            ds.allocsPub.store(base + threadAllocCount(),
                               std::memory_order_relaxed);
        }
        // Hand the tally to the next incarnation (the kill/restart
        // fault joins this thread before starting the next one).
        ds.allocBase = base + threadAllocCount();
        ds.allocsPub.store(ds.allocBase, std::memory_order_relaxed);
    };
    for (std::size_t s = 0; s < kShards; ++s)
        drains[s].thread = std::thread(drainLoop, s);
    auto drainAllocsTotal = [&] {
        std::uint64_t sum = 0;
        for (const DrainShard &d : drains)
            sum += d.allocsPub.load(std::memory_order_relaxed);
        return sum;
    };

    // ---- network front-end over the same engine: a slice of the soak
    //      traffic arrives through the socket path.
    net::NetServer netServer(server, net::NetServerConfig{});
    netServer.start();

    std::atomic<std::uint64_t> mismatches{0};
    auto checkResponse = [&](std::size_t mi, std::size_t sample,
                             InferenceResponse r) {
        if (r.status == ServeStatus::Ok) {
            if (r.logits != models[mi].oracle[sample])
                mismatches.fetch_add(1);
        } else if (r.status != ServeStatus::DeadlineExpired &&
                   r.status != ServeStatus::ShutDown &&
                   r.status != ServeStatus::Overloaded) {
            // Overloaded is legal here: admission control is armed, so
            // backlogs behind a stalled/killed drain shed at the door.
            mismatches.fetch_add(1);
        }
    };

    // ---- phase 1: closed-loop calibration (doubles as warm-up: every
    //      model's plans tune, the pool and per-thread buffers reach
    //      their high-water marks before any gated measurement).
    double capacityRps = 0.0;
    {
        std::atomic<bool> calibrating{true};
        std::vector<std::thread> calib;
        for (int t = 0; t < clients; ++t) {
            calib.emplace_back([&, t] {
                std::size_t i = 0;
                while (calibrating.load(std::memory_order_relaxed)) {
                    std::size_t mi = (static_cast<std::size_t>(t) + i) %
                                     kNumModels;
                    std::size_t s = i % kPoolSize;
                    checkResponse(
                        mi, s,
                        server.submit(models[mi].name, models[mi].pool[s])
                            .get());
                    ++i;
                }
            });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1200));
        auto c0 = scrapeAll(server);
        auto t0 = Clock::now();
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        auto c1 = scrapeAll(server);
        auto t1 = Clock::now();
        calibrating.store(false);
        for (auto &th : calib)
            th.join();
        double dt = std::chrono::duration<double>(t1 - t0).count();
        capacityRps =
            static_cast<double>(
                counterValue(c1, "bbs_serve_requests_completed_total") -
                counterValue(c0, "bbs_serve_requests_completed_total")) /
            dt;
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    // ---- drain warm-up. Calibration sets no deadlines, so no drain
    //      thread has completed an expired request yet. Every drain
    //      stalls for 80 ms while a full batch of every model queues
    //      with a 30 ms deadline, then a full batch of every model with
    //      none. Each drain thread then completes one burst of expired
    //      requests and serves one maxBatch batch of each of its models,
    //      so its rejection scratch and batch buffers reach their
    //      high-water marks before any gated window.
    {
        long long until = (Clock::now() + std::chrono::milliseconds(80))
                              .time_since_epoch()
                              .count();
        for (auto &st : stallUntilNs)
            st.store(until, std::memory_order_relaxed);
        struct Sent
        {
            std::size_t mi, sample;
            std::future<InferenceResponse> fut;
        };
        std::vector<Sent> sent;
        for (std::int64_t deadlineUs : {30'000, 0})
            for (std::size_t mi = 0; mi < kNumModels; ++mi)
                for (std::int64_t i = 0; i < cfg.maxBatch; ++i) {
                    std::size_t sample =
                        static_cast<std::size_t>(i) % kPoolSize;
                    sent.push_back({mi, sample,
                                    server.submit(models[mi].name,
                                                  models[mi].pool[sample],
                                                  deadlineUs)});
                }
        for (Sent &s : sent)
            checkResponse(s.mi, s.sample, s.fut.get());
    }

    double offeredRps = std::max(50.0, 0.55 * capacityRps);
    std::cout << format("closed-loop capacity %.0f req/s -> open-loop "
                        "offered rate %.0f req/s\n",
                        capacityRps, offeredRps);

    // ---- phase 2: open-loop soak --------------------------------------
    const double windowS = seconds >= 60.0 ? 2.0 : 1.0;
    const auto openStart = Clock::now();
    auto sinceStart = [&](Clock::time_point t) {
        return std::chrono::duration<double>(t - openStart).count();
    };
    std::atomic<bool> running{true};
    FaultLog faults;

    // Popularity CDF for the Zipf-like model draw.
    double cdf[kNumModels];
    {
        double acc = 0.0;
        for (std::size_t i = 0; i < kNumModels; ++i)
            cdf[i] = (acc += kModels[i].popularity);
    }

    std::vector<std::thread> load;
    double perClientRate = offeredRps / clients;
    for (int t = 0; t < clients; ++t) {
        load.emplace_back([&, t] {
            Rng rng(0xc11e47 + static_cast<std::uint64_t>(t) * 7919);
            struct Pending
            {
                std::size_t mi, sample;
                std::future<InferenceResponse> fut;
            };
            std::deque<Pending> pending;
            auto reap = [&](bool block) {
                while (!pending.empty()) {
                    bool ready =
                        pending.front().fut.wait_for(
                            std::chrono::seconds(0)) ==
                        std::future_status::ready;
                    if (!ready && !block && pending.size() <= 256)
                        return;
                    Pending p = std::move(pending.front());
                    pending.pop_front();
                    checkResponse(p.mi, p.sample, p.fut.get());
                    if (!block && pending.size() <= 256)
                        return;
                }
            };
            auto next = Clock::now();
            while (running.load(std::memory_order_relaxed)) {
                double gapS = -std::log(1.0 - rng.uniformReal(0.0, 1.0)) /
                              perClientRate;
                next += std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(gapS));
                std::this_thread::sleep_until(next);
                if (!running.load(std::memory_order_relaxed))
                    break;
                double u = rng.uniformReal(0.0, 1.0);
                std::size_t mi = 0;
                while (mi + 1 < kNumModels && u > cdf[mi])
                    ++mi;
                std::size_t s = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(kPoolSize) - 1));
                Pending p;
                p.mi = mi;
                p.sample = s;
                p.fut = server.submit(models[mi].name, models[mi].pool[s],
                                      drawDeadlineUs(rng));
                pending.push_back(std::move(p));
                reap(false);
            }
            reap(true);
        });
    }

    // ---- net clients: light closed-loop traffic through the socket
    //      front-end for the whole open-loop phase (constant extra load,
    //      so the throughput gate's baseline includes it).
    constexpr int kNetClients = 2;
    std::atomic<std::uint64_t> netOk{0}, netShed{0}, netErrors{0};
    std::vector<std::thread> netLoad;
    for (int t = 0; t < kNetClients; ++t) {
        netLoad.emplace_back([&, t] {
            net::NetClient client;
            if (!client.connect("127.0.0.1", netServer.port(),
                                /*recvTimeoutMs=*/30000)) {
                netErrors.fetch_add(1);
                return;
            }
            std::size_t i = 0;
            while (running.load(std::memory_order_relaxed)) {
                std::size_t mi =
                    (static_cast<std::size_t>(t) + i) % kNumModels;
                std::size_t s = i % kPoolSize;
                auto resp =
                    client.request(models[mi].name, models[mi].pool[s]);
                if (!resp.has_value()) {
                    netErrors.fetch_add(1);
                    break;
                }
                auto status = static_cast<ServeStatus>(resp->status);
                if (status == ServeStatus::Ok) {
                    if (resp->logits == models[mi].oracle[s])
                        netOk.fetch_add(1);
                    else
                        mismatches.fetch_add(1);
                } else if (status == ServeStatus::Overloaded) {
                    netShed.fetch_add(1);
                } else if (status != ServeStatus::ShutDown) {
                    mismatches.fetch_add(1);
                }
                ++i;
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
        });
    }

    // ---- chaos thread: scheduled faults at fixed fractions of the run.
    ChaosReport chaos;
    std::thread chaosThread([&] {
        auto sleepUntilFrac = [&](double frac) {
            auto target = openStart + std::chrono::duration_cast<
                                          Clock::duration>(
                                          std::chrono::duration<double>(
                                              frac * seconds));
            while (Clock::now() < target) {
                if (!running.load(std::memory_order_relaxed))
                    return false;
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            }
            return running.load(std::memory_order_relaxed);
        };

        // Fault 1: the drain "worker" wedges for 400 ms mid-run.
        if (sleepUntilFrac(0.25)) {
            std::size_t ev =
                faults.begin("drain-stall", sinceStart(Clock::now()));
            stallUntilNs[victimShard].store(
                (Clock::now() + std::chrono::milliseconds(400))
                    .time_since_epoch()
                    .count(),
                std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(450));
            faults.end(ev, sinceStart(Clock::now()));
        }

        // Fault 2: kill the victim shard's drain thread outright, leave
        // the shard dead for 300 ms, restart it. The backlog must drain
        // and the shard must serve bit-identically again; the OTHER
        // shard keeps serving throughout.
        if (sleepUntilFrac(0.35)) {
            std::size_t ev = faults.begin("shard-drain-kill",
                                          sinceStart(Clock::now()));
            DrainShard &ds = drains[victimShard];
            ds.kill.store(true, std::memory_order_relaxed);
            ds.thread.join();
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            ds.kill.store(false, std::memory_order_relaxed);
            ds.thread = std::thread(drainLoop, victimShard);
            // At a high offered rate the 300 ms backlog fills the shard
            // past maxShardDepth, and admission sheds a probe sent into
            // it as Overloaded. So wait (bounded) for the restarted
            // drain to empty the queue, and retry a shed probe until the
            // same deadline; the judged condition stays an Ok,
            // bit-identical answer.
            const auto probeDeadline =
                Clock::now() + std::chrono::seconds(3);
            const RequestQueue &victimQueue =
                server.queues().shard(victimShard);
            while (victimQueue.size() > 0 && Clock::now() < probeDeadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            InferenceResponse probe =
                server.submit(models[0].name, models[0].pool[0]).get();
            while (probe.status == ServeStatus::Overloaded &&
                   Clock::now() < probeDeadline) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                probe =
                    server.submit(models[0].name, models[0].pool[0]).get();
            }
            chaos.shardRestartServed =
                probe.status == ServeStatus::Ok &&
                probe.logits == models[0].oracle[0];
            faults.end(ev, sinceStart(Clock::now()));
        }

        // Fault 3: a connection stalls MID-FRAME — half a Request frame,
        // then a one-second hold with the listener's framing state
        // parked — while the net clients keep being served. Completing
        // the frame must still yield the bit-exact answer.
        if (sleepUntilFrac(0.44)) {
            std::size_t ev = faults.begin("net-midframe-stall",
                                          sinceStart(Clock::now()));
            net::NetClient stall;
            if (stall.connect("127.0.0.1", netServer.port(),
                              /*recvTimeoutMs=*/10000)) {
                net::RequestFrame r;
                r.tag = 0x57a11;
                r.model = models[0].name;
                r.input = models[0].pool[3];
                std::vector<std::uint8_t> frame;
                net::encodeRequest(r, frame);
                std::size_t half = frame.size() / 2;
                if (stall.sendRaw(frame.data(), half)) {
                    std::this_thread::sleep_for(std::chrono::seconds(1));
                    net::ResponseFrame resp;
                    chaos.netStallServed =
                        stall.sendRaw(frame.data() + half,
                                      frame.size() - half) &&
                        stall.recvResponse(resp) && resp.tag == r.tag &&
                        static_cast<ServeStatus>(resp.status) ==
                            ServeStatus::Ok &&
                        resp.logits == models[0].oracle[3];
                }
            }
            faults.end(ev, sinceStart(Clock::now()));
        }

        // Fault 4: malformed operand container at "registry load" — must
        // be rejected without terminating, and serving must not notice.
        if (sleepUntilFrac(0.52)) {
            std::size_t ev =
                faults.begin("malformed-blob", sinceStart(Clock::now()));
            injectMalformedBlob(chaos);
            faults.end(ev, sinceStart(Clock::now()));
        }

        // Fault 5: queue-overflow burst of tight-deadline requests;
        // with admission armed most are shed with Overloaded at the
        // door, the remainder expires — between them the burst must be
        // fully absorbed.
        if (sleepUntilFrac(0.62)) {
            std::size_t ev =
                faults.begin("queue-burst", sinceStart(Clock::now()));
            auto before = server.metrics().snapshot();
            std::uint64_t beforeExpired = counterValue(
                before, "bbs_serve_requests_expired_total");
            std::uint64_t beforeShed = counterValue(
                before, "bbs_serve_requests_overloaded_total");
            for (int i = 0; i < 2048; ++i)
                (void)server.submit(
                    models[0].name,
                    models[0].pool[static_cast<std::size_t>(i) % kPoolSize],
                    /*deadlineUs=*/100);
            std::this_thread::sleep_for(std::chrono::milliseconds(800));
            auto after = server.metrics().snapshot();
            chaos.burstExpired =
                counterValue(after, "bbs_serve_requests_expired_total") -
                beforeExpired;
            chaos.burstShed =
                counterValue(after,
                             "bbs_serve_requests_overloaded_total") -
                beforeShed;
            faults.end(ev, sinceStart(Clock::now()));
        }

        // Fault 6: a foreign parallelFor hogs the persistent worker
        // pool; the server's GEMMs must fall back (and keep serving).
        if (sleepUntilFrac(0.75) && maxWorkerThreads() > 1) {
            chaos.hogRan = true;
            std::size_t ev =
                faults.begin("pool-hog", sinceStart(Clock::now()));
            std::uint64_t before = counterValue(
                obs::Registry::global().snapshot(), "bbs_pool_fallback_total");
            std::int64_t n =
                static_cast<std::int64_t>(maxWorkerThreads()) * 100;
            parallelFor(
                n,
                [](std::int64_t) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(4));
                },
                /*chunk=*/1);
            chaos.hogFallbacks =
                counterValue(obs::Registry::global().snapshot(),
                             "bbs_pool_fallback_total") -
                before;
            faults.end(ev, sinceStart(Clock::now()));
        }

        // Fault 7: model hot-swap under load — the most popular model
        // is packed into a BBMS container, mapped back, and atomically
        // swapped into the registry mid-traffic. The weights are
        // identical, so the open-loop clients' per-request oracle
        // checks double as the zero-divergence proof; here we pin the
        // version bump and one bit-exact probe through the swapped-in
        // mapped engine.
        if (sleepUntilFrac(0.85)) {
            std::size_t ev =
                faults.begin("model-hot-swap", sinceStart(Clock::now()));
            std::string swapPath = "/tmp/bbs_soak_swap_" +
                                   std::to_string(::getpid()) + ".bbms";
            std::shared_ptr<const Int8Network> current =
                registry->find(models[0].name);
            store::writeModelContainer(*current, swapPath);
            std::shared_ptr<const store::MappedContainer> container;
            if (store::MappedContainer::tryOpen(swapPath, container)) {
                chaos.swapVersion = registry->swap(
                    models[0].name, std::make_shared<const Int8Network>(
                                        store::mapModel(container)));
                InferenceResponse probe =
                    server.submit(models[0].name, models[0].pool[5]).get();
                chaos.swapServedIdentical =
                    probe.status == ServeStatus::Ok &&
                    probe.logits == models[0].oracle[5];
            }
            std::remove(swapPath.c_str()); // mapping survives the unlink
            faults.end(ev, sinceStart(Clock::now()));
        }
    });

    // ---- windowed scraping on the main thread -------------------------
    std::vector<Window> windows;
    std::vector<obs::MetricSnapshot> prevScrape = scrapeAll(server);
    std::uint64_t prevAllocs = drainAllocsTotal();
    int numWindows = static_cast<int>(seconds / windowS);
    for (int w = 0; w < numWindows; ++w) {
        std::this_thread::sleep_until(
            openStart +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>((w + 1) * windowS)));
        Window win;
        win.scrape = scrapeAll(server);
        win.tS = sinceStart(Clock::now());
        win.rps = static_cast<double>(
                      counterValue(win.scrape,
                                   "bbs_serve_requests_completed_total") -
                      counterValue(prevScrape,
                                   "bbs_serve_requests_completed_total")) /
                  windowS;
        win.p99Us =
            p99FromDeltas(findMetric(win.scrape, "bbs_serve_latency_us"),
                          findMetric(prevScrape, "bbs_serve_latency_us"));
        // With shards > 1 the depth gauge is per shard (labelled);
        // the window records the sum.
        for (const obs::MetricSnapshot &m : win.scrape)
            if (m.name == "bbs_serve_queue_depth")
                win.queueDepth += m.gaugeValue;
        win.rssKb = rssKb();
        std::uint64_t allocsNow = drainAllocsTotal();
        win.drainAllocs = allocsNow - prevAllocs;
        prevAllocs = allocsNow;

        double winStart = w * windowS, winEnd = (w + 1) * windowS;
        win.fault = faults.overlap(winStart, winEnd);
        if (win.fault.empty()) {
            // One recovery window after each fault is excluded too: the
            // backlog from a stall drains into it.
            std::string prior = faults.overlap(winStart - windowS, winEnd);
            if (!prior.empty())
                win.fault = "recovery:" + prior;
        }
        win.steady = w >= 2 && win.fault.empty();
        prevScrape = win.scrape;
        windows.push_back(std::move(win));
    }

    // ---- wind down: clients finish (their pending futures resolve while
    //      the drain thread still runs), then the server stops and the
    //      drain loop sees 0.
    running.store(false);
    for (auto &th : load)
        th.join();
    for (auto &th : netLoad)
        th.join();
    chaosThread.join();
    StatsSnapshot finalStats = server.stats();
    std::string promText = server.metricsText(/*includeGlobal=*/true);
    netServer.stop();
    server.stop();
    for (auto &d : drains)
        d.thread.join();

    // ---- report -------------------------------------------------------
    Table table({"t", "fault", "req/s", "p99", "queue", "rss", "allocs"});
    for (const Window &w : windows)
        table.addRow({format("%5.1fs", w.tS),
                      w.fault.empty() ? (w.steady ? "" : "warmup") : w.fault,
                      format("%.0f", w.rps), format("%.2f ms", w.p99Us / 1e3),
                      format("%lld", static_cast<long long>(w.queueDepth)),
                      format("%ld MB", w.rssKb / 1024),
                      format("%llu",
                             static_cast<unsigned long long>(w.drainAllocs))});
    table.print(std::cout);

    GateResults gates;
    std::vector<const Window *> steady;
    for (const Window &w : windows)
        if (w.steady)
            steady.push_back(&w);

    BBS_REQUIRE(mismatches.load() == 0, mismatches.load(),
                " responses deviated from the per-request oracle");
    BBS_REQUIRE(steady.size() >= 3,
                "soak produced only ", steady.size(),
                " steady windows; run longer (--seconds)");

    // p99: absolute cap on every steady window, plus no late-run drift.
    std::vector<double> p99s;
    std::uint64_t steadyAllocs = 0;
    for (const Window *w : steady) {
        p99s.push_back(w->p99Us);
        if (w->p99Us > kP99CapUs)
            gates.p99Bounded = false;
        steadyAllocs += w->drainAllocs;
    }
    if (steady.size() >= 6) {
        std::vector<double> early(p99s.begin(),
                                  p99s.begin() + p99s.size() / 2);
        std::vector<double> late(p99s.begin() + p99s.size() / 2, p99s.end());
        if (medianOf(late) > 4.0 * medianOf(early) + 2000.0)
            gates.p99NoDrift = false;
    }

    // RSS plateau: final steady RSS within 10% + 16 MiB of the first.
    long rss0 = steady.front()->rssKb, rss1 = steady.back()->rssKb;
    if (rss0 > 0 && rss1 > 0 &&
        static_cast<double>(rss1) > 1.10 * static_cast<double>(rss0) + 16384.0)
        gates.rssPlateau = false;

    // Zero drain-thread allocations across every steady window.
    gates.allocFree = steadyAllocs == 0;

    // Throughput: every steady window within 10% of the first (+ a small
    // absolute floor so low offered rates don't amplify Poisson noise).
    double rps0 = steady.front()->rps;
    for (const Window *w : steady)
        if (std::abs(w->rps - rps0) > 0.10 * rps0 + 20.0)
            gates.throughputStable = false;

    // Faults must have been HANDLED, not merely survived: the blobs
    // rejected, the killed shard serving again after restart, the
    // mid-frame stall completed to a bit-exact answer, and the net
    // clients' traffic clean throughout.
    gates.faultsHandled =
        chaos.blobCorruptRejected && chaos.blobTruncatedRejected &&
        chaos.blobIntactAccepted && chaos.shardRestartServed &&
        chaos.netStallServed && chaos.swapVersion >= 2 &&
        chaos.swapServedIdentical && netErrors.load() == 0 &&
        netOk.load() > 0;

    // The exposition must round-trip through the parser and agree with
    // the stats snapshot (same counters, two readings).
    {
        obs::ParsedExposition parsed;
        gates.promRoundTrip = obs::parsePrometheusText(promText, parsed);
        if (gates.promRoundTrip) {
            const obs::ParsedSample *c =
                parsed.find("bbs_serve_requests_completed_total");
            gates.promRoundTrip =
                c != nullptr &&
                static_cast<std::uint64_t>(c->value) >= finalStats.completed;
            const obs::ParsedSample *lc =
                parsed.find("bbs_serve_latency_us_count");
            if (lc == nullptr)
                gates.promRoundTrip = false;
            // The net layer's counters ride the same registry.
            if (parsed.find("bbs_net_frames_in_total") == nullptr)
                gates.promRoundTrip = false;
        }
    }

    std::cout << format(
        "\nsteady windows %zu/%zu | median p99 %.2f ms | rss %ld -> %ld MB "
        "| drain allocs %llu | burst shed+expired %llu+%llu | pool "
        "fallbacks %llu%s\n",
        steady.size(), windows.size(), medianOf(p99s) / 1e3, rss0 / 1024,
        rss1 / 1024, static_cast<unsigned long long>(steadyAllocs),
        static_cast<unsigned long long>(chaos.burstShed),
        static_cast<unsigned long long>(chaos.burstExpired),
        static_cast<unsigned long long>(chaos.hogFallbacks),
        chaos.hogRan ? "" : " (hog skipped: 1 worker)");
    std::cout << format(
        "net: %llu ok, %llu shed, %llu errors | shard restart served %s | "
        "mid-frame stall served %s | hot-swap v%llu served %s\n",
        static_cast<unsigned long long>(netOk.load()),
        static_cast<unsigned long long>(netShed.load()),
        static_cast<unsigned long long>(netErrors.load()),
        chaos.shardRestartServed ? "yes" : "NO",
        chaos.netStallServed ? "yes" : "NO",
        static_cast<unsigned long long>(chaos.swapVersion),
        chaos.swapServedIdentical ? "yes" : "NO");

    auto verdict = [](bool ok) { return ok ? "ok" : "FAILED"; };
    std::cout << format(
        "gates: p99-bounded %s | p99-drift %s | rss-plateau %s | "
        "alloc-free %s | throughput %s | faults-handled %s | "
        "prom-round-trip %s\n",
        verdict(gates.p99Bounded), verdict(gates.p99NoDrift),
        verdict(gates.rssPlateau), verdict(gates.allocFree),
        verdict(gates.throughputStable), verdict(gates.faultsHandled),
        verdict(gates.promRoundTrip));

    bench::jsonAdd("soak", "summary",
                   {{"capacity_rps", capacityRps},
                    {"offered_rps", offeredRps},
                    {"steady_windows", static_cast<double>(steady.size())},
                    {"median_p99_us", medianOf(p99s)},
                    {"rss_first_kb", static_cast<double>(rss0)},
                    {"rss_last_kb", static_cast<double>(rss1)},
                    {"drain_allocs", static_cast<double>(steadyAllocs)},
                    {"burst_expired",
                     static_cast<double>(chaos.burstExpired)},
                    {"burst_shed", static_cast<double>(chaos.burstShed)},
                    {"net_ok", static_cast<double>(netOk.load())},
                    {"net_shed", static_cast<double>(netShed.load())},
                    {"shard_restart_served",
                     chaos.shardRestartServed ? 1.0 : 0.0},
                    {"net_stall_served", chaos.netStallServed ? 1.0 : 0.0},
                    {"swap_version",
                     static_cast<double>(chaos.swapVersion)},
                    {"swap_served",
                     chaos.swapServedIdentical ? 1.0 : 0.0},
                    {"passed", gates.all() ? 1.0 : 0.0}});
    bench::jsonFlush();

    // ---- timeline JSON (--timeline): config, faults, per-window scrape
    //      of BOTH registries, final trace-ring dump, gate verdicts.
    if (!timelinePath.empty()) {
        std::ofstream out(timelinePath);
        BBS_REQUIRE(out.good(), "cannot open --timeline path ",
                    timelinePath);
        JsonWriter j(out);
        j.beginObject();
        j.member("bench", "soak_serve");
        j.member("seconds", seconds);
        j.member("clients", clients);
        j.member("window_s", windowS);
        j.member("capacity_rps", capacityRps);
        j.member("offered_rps", offeredRps);
        j.key("faults");
        j.beginArray();
        for (const FaultEvent &e : faults.all()) {
            j.beginObject();
            j.member("fault", e.name);
            j.member("start_s", e.startS);
            j.member("end_s", e.endS);
            j.endObject();
        }
        j.endArray();
        j.key("windows");
        j.beginArray();
        for (const Window &w : windows) {
            j.beginObject();
            j.member("t_s", w.tS);
            j.member("rps", w.rps);
            j.member("p99_us", w.p99Us);
            j.member("queue_depth", w.queueDepth);
            j.member("rss_kb", static_cast<std::int64_t>(w.rssKb));
            j.member("drain_allocs", w.drainAllocs);
            j.member("fault", w.fault);
            j.member("steady", w.steady);
            j.key("scrape");
            obs::writeJsonRecords(w.scrape, j);
            j.endObject();
        }
        j.endArray();
        j.key("trace");
        {
            std::ostringstream trace;
            server.dumpTrace(trace);
            j.raw(trace.str());
        }
        j.key("gates");
        j.beginObject();
        j.member("p99_bounded", gates.p99Bounded);
        j.member("p99_no_drift", gates.p99NoDrift);
        j.member("rss_plateau", gates.rssPlateau);
        j.member("alloc_free", gates.allocFree);
        j.member("throughput_stable", gates.throughputStable);
        j.member("faults_handled", gates.faultsHandled);
        j.member("prom_round_trip", gates.promRoundTrip);
        j.member("passed", gates.all());
        j.endObject();
        j.endObject();
        BBS_REQUIRE(j.complete() && out.good(),
                    "failed writing --timeline path ", timelinePath);
        std::cout << "timeline written to " << timelinePath << "\n";
    }

    std::cout << (gates.all() ? "\nSOAK PASSED\n" : "\nSOAK FAILED\n");
    return gates.all() ? 0 : 1;
}
