/**
 * @file
 * Observability layer tests: the metrics primitives' torn-free snapshot
 * guarantees (stressed with concurrent writers — this file runs in the
 * TSAN CI job), Prometheus text round-tripping through our own parser,
 * the trace ring's bounded-history semantics, and the server-level
 * exposition surface (metricsText, latency-window saturation fields).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <sstream>
#include <thread>

#include "common/json_writer.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace bbs {
namespace {

TEST(ObsHistogram, BucketPlacementAndTornFreeCount)
{
    const double bounds[] = {1.0, 10.0, 100.0};
    obs::Histogram h(bounds);
    h.observe(0.5);   // le=1
    h.observe(1.0);   // le=1 (inclusive upper bound)
    h.observe(9.9);   // le=10
    h.observe(100.0); // le=100
    h.observe(1e9);   // +Inf tail
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // implicit +Inf
    // The count IS the bucket sum — no separate total to tear against.
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 9.9 + 100.0 + 1e9);
}

TEST(ObsHistogram, LatencyLadderIsStrictlyAscending)
{
    std::span<const double> b = obs::Histogram::latencyBoundsUs();
    ASSERT_GE(b.size(), 8u);
    for (std::size_t i = 1; i < b.size(); ++i)
        EXPECT_LT(b[i - 1], b[i]) << "at " << i;
    EXPECT_LE(b.front(), 1.0);      // resolves a microsecond run
    EXPECT_GE(b.back(), 1'000'000); // and a multi-second stall
}

TEST(ObsHistogram, QuantileInterpolatesWithinOwningBucket)
{
    obs::MetricSnapshot h;
    h.type = obs::MetricSnapshot::Type::Histogram;
    h.bounds = {10.0, 20.0, 40.0};

    // Empty histograms and non-histograms report 0.
    h.bucketCounts = {0, 0, 0, 0};
    h.count = 0;
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.5), 0.0);
    obs::MetricSnapshot counter;
    counter.type = obs::MetricSnapshot::Type::Counter;
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(counter, 0.5), 0.0);

    // 10 observations in (10, 20]: rank q*10 interpolates linearly
    // between the bucket's lower and upper bound.
    h.bucketCounts = {0, 10, 0, 0};
    h.count = 10;
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.5), 15.0);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 1.0), 20.0);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.0), 11.0); // rank 1

    // Split 5/5: the median closes the first bucket, p75 sits halfway
    // up the second, and the first bucket interpolates from 0.
    h.bucketCounts = {5, 5, 0, 0};
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.5), 10.0);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.75), 15.0);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.2), 4.0);

    // A quantile landing in the +Inf tail clamps to the last finite
    // bound — the estimator cannot invent values past the ladder.
    h.bucketCounts = {5, 0, 0, 5};
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.99), 40.0);

    // A count read after the buckets can run ahead of them (one
    // observation landed between the reads). The rank must come from
    // the buckets walked, or p99 runs off the ladder to its last bound.
    h.bucketCounts = {0, 10, 0, 0};
    h.count = 11;
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.99), 19.9);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(h, 0.5), 15.0);
}

TEST(ObsHistogram, QuantileAgreesWithRawPercentileWithinBucketWidth)
{
    // The bucket estimator vs the exact raw-sample percentile on the
    // same data: they can only disagree within the owning bucket's
    // width. ServerStats' p50Us/p99Us come from this estimator.
    Rng rng(0x9a77);
    obs::Histogram h(obs::Histogram::latencyBoundsUs());
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i) {
        // Log-uniform latencies, the shape the ladder was built for.
        double v = std::pow(10.0, rng.uniformReal(0.5, 5.0));
        samples.push_back(v);
        h.observe(v);
    }
    obs::MetricSnapshot snap;
    snap.type = obs::MetricSnapshot::Type::Histogram;
    snap.bounds = h.bounds();
    for (std::size_t i = 0; i <= h.bounds().size(); ++i)
        snap.bucketCounts.push_back(h.bucketCount(i));
    snap.count = h.count();
    snap.sum = h.sum();

    std::sort(samples.begin(), samples.end());
    for (double q : {0.5, 0.9, 0.99}) {
        double exact = samples[static_cast<std::size_t>(
            q * (samples.size() - 1))];
        double est = obs::histogramQuantile(snap, q);
        // Locate the owning bucket of the exact value; the estimate
        // must land within that bucket's bounds.
        std::size_t b = 0;
        while (b < snap.bounds.size() && exact > snap.bounds[b])
            ++b;
        double lower = b == 0 ? 0.0 : snap.bounds[b - 1];
        ASSERT_LT(b, snap.bounds.size()) << "q=" << q;
        EXPECT_GE(est, lower) << "q=" << q;
        EXPECT_LE(est, snap.bounds[b]) << "q=" << q;
    }
}

TEST(ObsRegistry, GetOrCreateSharesSeriesAndKeepsOrder)
{
    obs::Registry reg;
    obs::Counter &a = reg.counter("bbs_test_events_total", "help");
    obs::Counter &b = reg.counter("bbs_test_events_total");
    EXPECT_EQ(&a, &b); // same (name, labels) -> same instance
    obs::Counter &lbl =
        reg.counter("bbs_test_events_total", "", "kind=\"x\"");
    EXPECT_NE(&a, &lbl); // labels split the series
    reg.gauge("bbs_test_depth");

    a.inc(3);
    lbl.inc();
    std::vector<obs::MetricSnapshot> snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u); // registration order, no duplicates
    EXPECT_EQ(snap[0].name, "bbs_test_events_total");
    EXPECT_EQ(snap[0].counterValue, 3u);
    EXPECT_EQ(snap[1].labels, "kind=\"x\"");
    EXPECT_EQ(snap[1].counterValue, 1u);
    EXPECT_EQ(snap[2].type, obs::MetricSnapshot::Type::Gauge);
}

/** The load-bearing concurrency claim (runs under TSAN in CI): scrapes
 *  taken while writers hammer the registry are monotone per metric, and
 *  a histogram's count can never exceed a later-read total. */
TEST(ObsRegistry, SnapshotsAreMonotoneUnderConcurrentWriters)
{
    constexpr int kWriters = 4;
    constexpr std::uint64_t kPerWriter = 20'000;
    obs::Registry reg;
    obs::Counter &events = reg.counter("bbs_stress_events_total");
    obs::Gauge &depth = reg.gauge("bbs_stress_depth");
    const double bounds[] = {10.0, 100.0, 1000.0};
    obs::Histogram &lat = reg.histogram("bbs_stress_us", bounds);

    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
            Rng rng(0xbeef + static_cast<std::uint64_t>(t));
            for (std::uint64_t i = 0; i < kPerWriter; ++i) {
                events.inc();
                depth.add(t % 2 == 0 ? 1 : -1);
                lat.observe(rng.uniformReal(0.0, 2000.0));
            }
        });
    }

    std::thread scraper([&] {
        std::uint64_t prevEvents = 0, prevLatCount = 0;
        while (!done.load(std::memory_order_acquire)) {
            std::vector<obs::MetricSnapshot> snap = reg.snapshot();
            ASSERT_EQ(snap.size(), 3u);
            EXPECT_GE(snap[0].counterValue, prevEvents);
            prevEvents = snap[0].counterValue;
            const obs::MetricSnapshot &h = snap[2];
            std::uint64_t bucketSum = 0;
            for (std::uint64_t c : h.bucketCounts)
                bucketSum += c;
            // Per-metric consistency: the reported count is exactly the
            // bucket reads it was derived from, and monotone.
            EXPECT_EQ(h.count, bucketSum);
            EXPECT_GE(h.count, prevLatCount);
            prevLatCount = h.count;
        }
    });

    for (auto &w : writers)
        w.join();
    done.store(true, std::memory_order_release);
    scraper.join();

    std::vector<obs::MetricSnapshot> fin = reg.snapshot();
    EXPECT_EQ(fin[0].counterValue, kWriters * kPerWriter);
    EXPECT_EQ(fin[1].gaugeValue, 0); // two +1 writers, two -1 writers
    EXPECT_EQ(fin[2].count, kWriters * kPerWriter);
}

TEST(ObsExposition, PrometheusTextRoundTrips)
{
    obs::Registry reg;
    reg.counter("bbs_rt_events_total", "Events").inc(42);
    reg.gauge("bbs_rt_depth", "Depth").set(-7);
    const double bounds[] = {1.0, 5.0};
    obs::Histogram &h = reg.histogram("bbs_rt_us", bounds, "Latency",
                                      "kind=\"a\"");
    h.observe(0.5);
    h.observe(3.0);
    h.observe(9.0);

    std::string text = obs::prometheusText(reg.snapshot());
    obs::ParsedExposition parsed;
    ASSERT_TRUE(obs::parsePrometheusText(text, parsed)) << text;

    EXPECT_EQ(parsed.types.at("bbs_rt_events_total"), "counter");
    EXPECT_EQ(parsed.types.at("bbs_rt_depth"), "gauge");
    EXPECT_EQ(parsed.types.at("bbs_rt_us"), "histogram");

    const obs::ParsedSample *events = parsed.find("bbs_rt_events_total");
    ASSERT_NE(events, nullptr);
    EXPECT_DOUBLE_EQ(events->value, 42.0);
    const obs::ParsedSample *depth = parsed.find("bbs_rt_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_DOUBLE_EQ(depth->value, -7.0);

    // Cumulative bucket series: le="5" includes the le="1" observation.
    const obs::ParsedSample *b1 =
        parsed.find("bbs_rt_us_bucket", "kind=\"a\",le=\"1\"");
    const obs::ParsedSample *b5 =
        parsed.find("bbs_rt_us_bucket", "kind=\"a\",le=\"5\"");
    const obs::ParsedSample *binf =
        parsed.find("bbs_rt_us_bucket", "kind=\"a\",le=\"+Inf\"");
    ASSERT_NE(b1, nullptr);
    ASSERT_NE(b5, nullptr);
    ASSERT_NE(binf, nullptr);
    EXPECT_DOUBLE_EQ(b1->value, 1.0);
    EXPECT_DOUBLE_EQ(b5->value, 2.0);
    EXPECT_DOUBLE_EQ(binf->value, 3.0);
    const obs::ParsedSample *cnt =
        parsed.find("bbs_rt_us_count", "kind=\"a\"");
    const obs::ParsedSample *sum =
        parsed.find("bbs_rt_us_sum", "kind=\"a\"");
    ASSERT_NE(cnt, nullptr);
    ASSERT_NE(sum, nullptr);
    EXPECT_DOUBLE_EQ(cnt->value, 3.0);
    EXPECT_DOUBLE_EQ(sum->value, 12.5);
}

TEST(ObsExposition, LabelValueEscapingRoundTrips)
{
    // Label values are caller-controlled strings (model names reach
    // them); the exposition-format escapes must survive emission AND
    // the round-trip parser — in particular a `}` or `"` inside a
    // quoted value must not truncate the label body.
    EXPECT_EQ(obs::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(obs::escapeLabelValue("quo\"te"), "quo\\\"te");
    EXPECT_EQ(obs::escapeLabelValue("back\\slash"), "back\\\\slash");
    EXPECT_EQ(obs::escapeLabelValue("new\nline"), "new\\nline");

    obs::Registry reg;
    std::string evil = "mo\"de}l\\x";
    std::string label =
        "model=\"" + obs::escapeLabelValue(evil) + "\"";
    reg.counter("bbs_esc_total", "Escaping", label).inc(3);
    reg.counter("bbs_esc_after_total", "Must survive the evil line")
        .inc(7);

    std::string text = obs::prometheusText(reg.snapshot());
    obs::ParsedExposition parsed;
    ASSERT_TRUE(obs::parsePrometheusText(text, parsed)) << text;

    const obs::ParsedSample *evilSample =
        parsed.find("bbs_esc_total", label);
    ASSERT_NE(evilSample, nullptr) << text;
    EXPECT_DOUBLE_EQ(evilSample->value, 3.0);
    // The series AFTER the evil one parsed intact: the label body did
    // not swallow the rest of the exposition.
    const obs::ParsedSample *after =
        parsed.find("bbs_esc_after_total");
    ASSERT_NE(after, nullptr);
    EXPECT_DOUBLE_EQ(after->value, 7.0);
}

TEST(ObsExposition, ParserRejectsMalformedLines)
{
    obs::ParsedExposition out;
    EXPECT_FALSE(obs::parsePrometheusText("not a sample line", out));
    EXPECT_FALSE(obs::parsePrometheusText("name{unclosed 1", out));
    EXPECT_FALSE(obs::parsePrometheusText("name notanumber", out));
    // Comments and blanks are fine.
    EXPECT_TRUE(obs::parsePrometheusText("# HELP x y\n\nx 1\n", out));
    ASSERT_EQ(out.samples.size(), 1u);
    EXPECT_EQ(out.samples[0].name, "x");
}

TEST(ObsExposition, JsonRecordsEmitOneObjectPerMetric)
{
    obs::Registry reg;
    reg.counter("bbs_j_total").inc(5);
    const double bounds[] = {1.0};
    reg.histogram("bbs_j_us", bounds).observe(0.5);

    std::ostringstream os;
    JsonWriter w(os);
    obs::writeJsonRecords(reg.snapshot(), w);
    EXPECT_TRUE(w.complete());
    std::string text = os.str();
    EXPECT_NE(text.find("\"bbs_j_total\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"bbs_j_us\""), std::string::npos);
    EXPECT_NE(text.find("\"metrics\""), std::string::npos);
}

TEST(ObsTrace, RingKeepsMostRecentAndCountsDropped)
{
    obs::TraceRing ring(4);
    for (std::uint64_t i = 1; i <= 6; ++i) {
        obs::TraceSpan s;
        s.id = i;
        s.setModel("m");
        s.submitUs = static_cast<double>(i);
        ring.record(s);
    }
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);

    std::ostringstream os;
    ring.dumpJson(os, nullptr);
    std::string text = os.str();
    EXPECT_NE(text.find("\"dropped\": 2"), std::string::npos) << text;
    // Oldest-first: span 3 (the oldest survivor) precedes span 6.
    std::size_t p3 = text.find("\"id\": 3");
    std::size_t p6 = text.find("\"id\": 6");
    ASSERT_NE(p3, std::string::npos);
    ASSERT_NE(p6, std::string::npos);
    EXPECT_LT(p3, p6);
    // Span 2 was overwritten.
    EXPECT_EQ(text.find("\"id\": 2"), std::string::npos);

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(ObsTrace, SamplingShedsDeterministicallyAndCountsSeparately)
{
    // 1-in-3: spans 1, 4, 7, 10 survive (the first of every three).
    obs::TraceRing ring(16, 3);
    EXPECT_EQ(ring.sampleEvery(), 3u);
    for (std::uint64_t i = 1; i <= 10; ++i) {
        obs::TraceSpan s;
        s.id = i;
        s.setModel("m");
        ring.record(s);
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.sampledOut(), 6u);
    EXPECT_EQ(ring.dropped(), 0u); // sampling shed is NOT ring overflow

    std::ostringstream os;
    ring.dumpJson(os, nullptr);
    std::string text = os.str();
    EXPECT_NE(text.find("\"sampled_out\": 6"), std::string::npos) << text;
    EXPECT_NE(text.find("\"sample_every\": 3"), std::string::npos);
    for (int kept : {1, 4, 7, 10})
        EXPECT_NE(text.find("\"id\": " + std::to_string(kept)),
                  std::string::npos)
            << text;
    EXPECT_EQ(text.find("\"id\": 2"), std::string::npos);

    // Overflow and sampling count independently: a 2-slot ring at
    // 1-in-2 offered 8 spans keeps {7}, drops {1, 3} from the ring,
    // and sheds {2, 4, 6, 8}.
    obs::TraceRing tiny(2, 2);
    for (std::uint64_t i = 1; i <= 8; ++i) {
        obs::TraceSpan s;
        s.id = i;
        tiny.record(s);
    }
    EXPECT_EQ(tiny.size(), 2u);
    EXPECT_EQ(tiny.sampledOut(), 4u);
    EXPECT_EQ(tiny.dropped(), 2u);

    tiny.clear();
    EXPECT_EQ(tiny.sampledOut(), 0u);

    // The environment knob: an unset / invalid value keeps every span.
    obs::TraceRing everything(4);
    EXPECT_GE(everything.sampleEvery(), 1u);
}

TEST(ObsTrace, ModelNameTruncatesToFit)
{
    obs::TraceSpan s;
    s.setModel("a-model-name-well-beyond-the-inline-buffer");
    EXPECT_EQ(std::string_view(s.model).size(),
              obs::TraceSpan::kModelChars - 1);
}

/** The server's exposition surface end to end: serve real traffic, then
 *  assert the Prometheus text parses and agrees with the snapshot API,
 *  and that the snapshot's latency fields are the registry histograms'
 *  estimates. */
TEST(ObsServe, MetricsTextMatchesSnapshot)
{
    Rng rng(0x0b5);
    Network net;
    net.add(std::make_unique<Dense>(16, 24, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(24, 4, rng));
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", Int8Network::fromNetwork(
                           net, 32, 2, PruneStrategy::ZeroPointShifting));

    ServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxDelayUs = 200;
    cfg.workers = 1;
    InferenceServer server(registry, cfg);

    std::vector<float> input(16, 0.25f);
    constexpr std::uint64_t kRequests = 40;
    for (std::uint64_t i = 0; i < kRequests; ++i)
        ASSERT_EQ(server.submit("m", input).get().status, ServeStatus::Ok);

    StatsSnapshot s = server.stats();
    EXPECT_EQ(s.completed, kRequests);
    EXPECT_EQ(s.queueDepth, 0u); // all futures resolved

    // Every completion is recorded before its future resolves, so the
    // registry now holds all 40: the snapshot's percentiles are
    // histogramQuantile over bbs_serve_latency_us, and its mean queue
    // wait is bbs_serve_queue_wait_us's sum over count.
    EXPECT_GT(s.p50Us, 0.0);
    EXPECT_GE(s.p99Us, s.p50Us);
    int seen = 0;
    for (const obs::MetricSnapshot &m : server.metrics().snapshot()) {
        if (m.name == "bbs_serve_latency_us") {
            ++seen;
            EXPECT_EQ(m.count, kRequests);
            EXPECT_DOUBLE_EQ(s.p50Us, obs::histogramQuantile(m, 0.50));
            EXPECT_DOUBLE_EQ(s.p99Us, obs::histogramQuantile(m, 0.99));
        } else if (m.name == "bbs_serve_queue_wait_us") {
            ++seen;
            EXPECT_EQ(m.count, kRequests);
            EXPECT_DOUBLE_EQ(s.meanQueueUs,
                             m.sum / static_cast<double>(kRequests));
        }
    }
    EXPECT_EQ(seen, 2);

    std::string text = server.metricsText(/*includeGlobal=*/false);
    obs::ParsedExposition parsed;
    ASSERT_TRUE(obs::parsePrometheusText(text, parsed)) << text;
    const obs::ParsedSample *completed =
        parsed.find("bbs_serve_requests_completed_total");
    ASSERT_NE(completed, nullptr);
    EXPECT_DOUBLE_EQ(completed->value, static_cast<double>(kRequests));
    const obs::ParsedSample *latCount =
        parsed.find("bbs_serve_latency_us_count");
    ASSERT_NE(latCount, nullptr);
    EXPECT_DOUBLE_EQ(latCount->value, static_cast<double>(kRequests));
    EXPECT_NE(parsed.find("bbs_serve_queue_depth"), nullptr);

    // After stop() (workers joined — a span is recorded after the
    // future resolves, so only now is the count settled), the trace
    // ring saw every request.
    server.stop();
    EXPECT_EQ(server.trace().size() + server.trace().dropped(),
              kRequests);
}

} // namespace
} // namespace bbs
