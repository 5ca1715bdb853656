/**
 * @file
 * The socket front-end under sustained mixed-model traffic — the
 * Release CI gate for the network serving layer.
 *
 * Section 1 (capacity): 256 concurrent TCP connections (16 client
 * threads x 16 connections each, closed loop) issue single-sample
 * requests for two models — one of whose names carries a quote, so the
 * exposition-escaping path is exercised by real traffic. Gates:
 *
 *  - every request is ANSWERED over the wire (zero accepted-then-
 *    dropped: ok + overloaded == issued, nothing expires, no transport
 *    error), and every Ok response is bit-identical to the per-sample
 *    per-dot forward oracle;
 *  - client-observed p99 stays bounded (a loose absolute lid — the
 *    real assertion is that the tail exists at all under 256
 *    connections, not a sharp latency SLO on shared CI hardware).
 *
 * Section 2 (overload): a deliberately under-provisioned server (one
 * worker, small shard depth bound, 2 ms deadlines against a >= 5 ms
 * flush delay) takes a burst. Gate: the server sheds with Overloaded
 * answered in microseconds INSTEAD of deadline churn — overloads must
 * outnumber expiries, expiries stay a small fraction of traffic, and
 * again nothing goes unanswered.
 *
 * Section 3 (scrape): the stats frame returns Prometheus text that
 * parsePrometheusText round-trips, including the per-model series
 * whose label value contains the quoted model name.
 */
#include <chrono>
#include <iostream>
#include <thread>

#include "bench/bench_common.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "nn/layers.hpp"
#include "obs/exposition.hpp"
#include "serve/server.hpp"

namespace {

using namespace bbs;

constexpr std::int64_t kInputDim = 256;
constexpr std::int64_t kHidden = 128;
constexpr std::int64_t kClasses = 32;
constexpr std::size_t kPoolSize = 32;

// The quote in this name is load-bearing: it flows through submit()'s
// per-model label and must survive exposition + reparse (section 3).
const char *const kModelA = "clf-a";
const char *const kModelB = "clf\"b";

Int8Network
makeEngine(std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.add(std::make_unique<Dense>(kInputDim, kHidden, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(kHidden, kClasses, rng));
    return Int8Network::fromNetwork(net, 32, 4,
                                    PruneStrategy::ZeroPointShifting);
}

std::vector<std::vector<float>>
makePool(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<float>> pool(kPoolSize);
    for (auto &sample : pool) {
        sample.resize(static_cast<std::size_t>(kInputDim));
        for (float &v : sample)
            v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    }
    return pool;
}

std::vector<std::vector<float>>
oracleOf(const Int8Network &engine,
         const std::vector<std::vector<float>> &pool)
{
    std::vector<std::vector<float>> oracle(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
        Batch x(Shape{1, kInputDim});
        for (std::int64_t c = 0; c < kInputDim; ++c)
            x.at(0, c) = pool[i][static_cast<std::size_t>(c)];
        Batch y = engine.forward(x, {engine::Calibration::PerBatch,
                                     engine::PlanKind::PerDot});
        oracle[i].resize(static_cast<std::size_t>(kClasses));
        for (std::int64_t c = 0; c < kClasses; ++c)
            oracle[i][static_cast<std::size_t>(c)] = y.at(0, c);
    }
    return oracle;
}

struct TrafficResult
{
    std::int64_t issued = 0;
    std::int64_t ok = 0;
    std::int64_t overloaded = 0;
    std::int64_t expired = 0;
    std::int64_t otherStatus = 0;
    std::int64_t transportErrors = 0;
    std::int64_t mismatches = 0;
    std::vector<double> latenciesUs;
};

/**
 * Closed-loop traffic: @p threads client threads, each owning
 * @p connsPerThread connections, one request in flight per connection,
 * @p perConn requests per connection. Models alternate per connection.
 */
TrafficResult
driveTraffic(std::uint16_t port, int threads, int connsPerThread,
             int perConn, std::int64_t deadlineUs,
             const std::vector<std::vector<float>> &pool,
             const std::vector<std::vector<float>> &oracleA,
             const std::vector<std::vector<float>> &oracleB)
{
    std::vector<TrafficResult> perThread(
        static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            TrafficResult &res =
                perThread[static_cast<std::size_t>(t)];
            std::vector<net::NetClient> conns(
                static_cast<std::size_t>(connsPerThread));
            for (auto &c : conns)
                if (!c.connect("127.0.0.1", port, /*recvTimeoutMs=*/30000))
                    BBS_PANIC("client connect failed");
            for (int i = 0; i < perConn; ++i) {
                // Send one request on every connection, then collect
                // every answer: connsPerThread requests stay in flight
                // per thread.
                std::vector<std::chrono::steady_clock::time_point>
                    sentAt(conns.size());
                for (std::size_t k = 0; k < conns.size(); ++k) {
                    bool modelB = (static_cast<int>(k) + t) % 2 == 1;
                    std::size_t idx = static_cast<std::size_t>(
                        (t * 131 + static_cast<int>(k) * 17 + i) %
                        static_cast<int>(kPoolSize));
                    net::RequestFrame r;
                    r.tag = (static_cast<std::uint64_t>(modelB) << 32) |
                            idx;
                    r.deadlineUs = deadlineUs;
                    r.model = modelB ? kModelB : kModelA;
                    r.input = pool[idx];
                    sentAt[k] = std::chrono::steady_clock::now();
                    if (!conns[k].sendRequest(r)) {
                        ++res.transportErrors;
                        continue;
                    }
                    ++res.issued;
                }
                for (std::size_t k = 0; k < conns.size(); ++k) {
                    net::ResponseFrame resp;
                    if (!conns[k].recvResponse(resp)) {
                        ++res.transportErrors;
                        continue;
                    }
                    res.latenciesUs.push_back(microsBetween(
                        sentAt[k], std::chrono::steady_clock::now()));
                    auto status =
                        static_cast<ServeStatus>(resp.status);
                    if (status == ServeStatus::Ok) {
                        ++res.ok;
                        bool modelB = (resp.tag >> 32) != 0;
                        std::size_t idx = static_cast<std::size_t>(
                            resp.tag & 0xffffffffu);
                        const auto &oracle =
                            modelB ? oracleB : oracleA;
                        if (resp.logits != oracle[idx])
                            ++res.mismatches;
                    } else if (status == ServeStatus::Overloaded) {
                        ++res.overloaded;
                    } else if (status == ServeStatus::DeadlineExpired) {
                        ++res.expired;
                    } else {
                        ++res.otherStatus;
                    }
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();

    TrafficResult total;
    for (TrafficResult &r : perThread) {
        total.issued += r.issued;
        total.ok += r.ok;
        total.overloaded += r.overloaded;
        total.expired += r.expired;
        total.otherStatus += r.otherStatus;
        total.transportErrors += r.transportErrors;
        total.mismatches += r.mismatches;
        total.latenciesUs.insert(total.latenciesUs.end(),
                                 r.latenciesUs.begin(),
                                 r.latenciesUs.end());
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::jsonInit("micro_serve_net", argc, argv);
    bench::printHeader(
        "micro_serve_net",
        "the socket front-end answers every request under 256 "
        "concurrent connections of mixed-model traffic (bit-identical, "
        "bounded p99), sheds overload with Overloaded instead of "
        "deadline churn, and serves a parseable Prometheus scrape over "
        "the same listener");

    auto registry = std::make_shared<ModelRegistry>();
    registry->add(kModelA, makeEngine(0xaaaa));
    registry->add(kModelB, makeEngine(0xbbbb));
    auto pool = makePool(0xf00d);
    auto oracleA = oracleOf(*registry->find(kModelA), pool);
    auto oracleB = oracleOf(*registry->find(kModelB), pool);

    bool gatePassed = true;
    Table table({"section", "issued", "ok", "overloaded", "expired",
                 "p50", "p99", "verdict"});

    // ------------------------------------------------ section 1: capacity
    {
        ServerConfig cfg;
        cfg.maxBatch = 64;
        cfg.maxDelayUs = 1000;
        cfg.workers = 1; // raised to one per shard
        cfg.shards = 2;
        cfg.maxShardDepth = 1024; // far above the closed-loop ceiling
        InferenceServer server(registry, cfg);
        net::NetServer netServer(server, net::NetServerConfig{});
        netServer.start();

        constexpr int kThreads = 16, kConns = 16, kPerConn = 24;
        TrafficResult res = driveTraffic(
            netServer.port(), kThreads, kConns, kPerConn,
            /*deadlineUs=*/0, pool, oracleA, oracleB);

        double p50 = percentile(res.latenciesUs, 50.0);
        double p99 = percentile(res.latenciesUs, 99.0);
        // Zero accepted-then-dropped: every issued request came back,
        // as Ok (no deadline was set, so Overloaded would itself be a
        // config failure here given the depth headroom).
        bool ok = res.transportErrors == 0 && res.mismatches == 0 &&
                  res.otherStatus == 0 && res.expired == 0 &&
                  res.ok + res.overloaded == res.issued &&
                  res.issued ==
                      static_cast<std::int64_t>(kThreads) * kConns *
                          kPerConn &&
                  p99 < 5e6;
        StatsSnapshot s = server.stats();
        if (s.expired != 0 ||
            s.completed != static_cast<std::uint64_t>(res.ok))
            ok = false;
        gatePassed = gatePassed && ok;
        table.addRow({"256-conn mixed", format("%lld", res.issued),
                      format("%lld", res.ok),
                      format("%lld", res.overloaded),
                      format("%lld", res.expired),
                      format("%.2f ms", p50 / 1e3),
                      format("%.2f ms", p99 / 1e3),
                      ok ? "pass" : "FAIL"});
        bench::jsonAdd("net-serve", "capacity",
                       {{"issued", static_cast<double>(res.issued)},
                        {"ok", static_cast<double>(res.ok)},
                        {"p50_us", p50},
                        {"p99_us", p99},
                        {"mismatches",
                         static_cast<double>(res.mismatches)}});
        netServer.stop();
        server.stop();
    }

    // ------------------------------------------------ section 2: overload
    {
        ServerConfig cfg;
        cfg.maxBatch = 16;
        cfg.maxDelayUs = 5000; // alone already dwarfs the 2 ms deadline
        cfg.workers = 1;
        cfg.shards = 1;
        cfg.maxShardDepth = 8; // small: bursts hit the bound fast
        InferenceServer server(registry, cfg);
        net::NetServer netServer(server, net::NetServerConfig{});
        netServer.start();

        constexpr int kThreads = 8, kConns = 8, kPerConn = 24;
        TrafficResult res = driveTraffic(
            netServer.port(), kThreads, kConns, kPerConn,
            /*deadlineUs=*/2000, pool, oracleA, oracleB);

        double p50 = res.latenciesUs.empty()
                         ? 0.0
                         : percentile(res.latenciesUs, 50.0);
        double p99 = res.latenciesUs.empty()
                         ? 0.0
                         : percentile(res.latenciesUs, 99.0);
        // The shed must do the rejecting: Overloaded answers dominate,
        // expiries stay a small fraction of traffic (a few slip in
        // before the first completed batch arms the estimator), and
        // nothing is accepted then lost.
        bool ok = res.transportErrors == 0 && res.mismatches == 0 &&
                  res.otherStatus == 0 && res.overloaded > 0 &&
                  res.overloaded > res.expired &&
                  res.expired * 5 < res.issued &&
                  res.ok + res.overloaded + res.expired == res.issued;
        gatePassed = gatePassed && ok;
        table.addRow({"overload burst", format("%lld", res.issued),
                      format("%lld", res.ok),
                      format("%lld", res.overloaded),
                      format("%lld", res.expired),
                      format("%.2f ms", p50 / 1e3),
                      format("%.2f ms", p99 / 1e3),
                      ok ? "pass" : "FAIL"});
        bench::jsonAdd(
            "net-serve", "overload",
            {{"issued", static_cast<double>(res.issued)},
             {"overloaded", static_cast<double>(res.overloaded)},
             {"expired", static_cast<double>(res.expired)},
             {"ok", static_cast<double>(res.ok)}});

        // -------------------------------------------- section 3: scrape
        net::NetClient scraper;
        bool scrapeOk =
            scraper.connect("127.0.0.1", netServer.port(), 10000);
        obs::ParsedExposition parsed;
        if (scrapeOk) {
            auto text = scraper.stats();
            scrapeOk = text.has_value() &&
                       obs::parsePrometheusText(*text, parsed);
            if (scrapeOk) {
                std::string label = "model=\"" +
                                    obs::escapeLabelValue(kModelB) +
                                    "\"";
                const obs::ParsedSample *series = parsed.find(
                    "bbs_serve_model_requests_total", label);
                scrapeOk = series != nullptr && series->value > 0.0 &&
                           parsed.find(
                               "bbs_net_connections_accepted_total") !=
                               nullptr;
            }
        }
        gatePassed = gatePassed && scrapeOk;
        table.addRow({"stats scrape", "-", "-", "-", "-", "-", "-",
                      scrapeOk ? "pass" : "FAIL"});
        bench::jsonAdd("net-serve", "scrape",
                       {{"round_trip", scrapeOk ? 1.0 : 0.0},
                        {"samples",
                         static_cast<double>(parsed.samples.size())}});
        netServer.stop();
        server.stop();
    }

    table.print(std::cout);
    std::cout << (gatePassed
                      ? "\nnetwork serving gates met (answered "
                        "everything, shed with Overloaded, scrape "
                        "round-trips)\n"
                      : "\nnetwork serving gate FAILED\n");
    bench::jsonFlush();
    return gatePassed ? 0 : 1;
}
