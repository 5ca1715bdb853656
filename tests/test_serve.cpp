/**
 * @file
 * Concurrency and correctness tests for the serving runtime. The load-
 * bearing invariant: a request's response is bit-identical to running
 * that sample alone through the per-dot policy — the serial
 * oracle — no matter which co-riders the batcher coalesced it with, how
 * many producer threads raced, or which worker drained the batch. Also
 * covered: flush-on-timeout, shutdown with pending requests, deadline
 * expiry, submit-time rejection, and multi-model batching hygiene.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/alloc_count.hpp"
#include "common/random.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "obs/exposition.hpp"
#include "serve/batcher.hpp"
#include "engine/engine.hpp"
#include "serve/server.hpp"

namespace bbs {
namespace {

/** Random (untrained) dense->relu->dense engine; weights are whatever
 *  init drew, which is all the bit-exactness tests need. */
Int8Network
makeEngine(std::int64_t in, std::int64_t hidden, std::int64_t out,
           int targetColumns, std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.add(std::make_unique<Dense>(in, hidden, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(hidden, out, rng));
    return Int8Network::fromNetwork(net, 32, targetColumns,
                                    PruneStrategy::ZeroPointShifting);
}

/** Pool of distinct random samples, as flat vectors. */
std::vector<std::vector<float>>
makePool(std::size_t count, std::int64_t features, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<float>> pool(count);
    for (auto &sample : pool) {
        sample.resize(static_cast<std::size_t>(features));
        for (float &v : sample)
            v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    }
    return pool;
}

/** Serial single-sample oracle: per-dot policy on a one-row batch. */
std::vector<std::vector<float>>
oracleLogits(const Int8Network &engine,
             const std::vector<std::vector<float>> &pool)
{
    std::vector<std::vector<float>> out(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
        Batch x(Shape{1, engine.inputFeatures()});
        for (std::int64_t c = 0; c < engine.inputFeatures(); ++c)
            x.at(0, c) = pool[i][static_cast<std::size_t>(c)];
        Batch y = engine.forward(
            x, InferencePolicy{bbs::engine::Calibration::PerBatch,
                               bbs::engine::PlanKind::PerDot});
        out[i].resize(static_cast<std::size_t>(y.shape().dim(1)));
        for (std::int64_t c = 0; c < y.shape().dim(1); ++c)
            out[i][static_cast<std::size_t>(c)] = y.at(0, c);
    }
    return out;
}

int
argmaxOf(const std::vector<float> &logits)
{
    int best = 0;
    for (std::size_t i = 1; i < logits.size(); ++i)
        if (logits[i] > logits[static_cast<std::size_t>(best)])
            best = static_cast<int>(i);
    return best;
}

TEST(RowCalibratedForward, BitIdenticalToSingleSampleOracle)
{
    // The serving math itself, before any threading: row r of a
    // row-calibrated batch == that sample alone through the per-dot
    // plan kind.
    Int8Network engine = makeEngine(24, 32, 8, 3, 0xc0de);
    auto pool = makePool(9, 24, 0x5eed);
    auto oracle = oracleLogits(engine, pool);

    Batch x(Shape{9, 24});
    for (std::int64_t r = 0; r < 9; ++r)
        for (std::int64_t c = 0; c < 24; ++c)
            x.at(r, c) = pool[static_cast<std::size_t>(r)]
                             [static_cast<std::size_t>(c)];
    Batch y = engine.forward(
        x, InferencePolicy{bbs::engine::Calibration::PerRow,
                           bbs::engine::PlanKind::Auto});
    ASSERT_EQ(y.shape().dim(1), 8);
    for (std::int64_t r = 0; r < 9; ++r)
        for (std::int64_t c = 0; c < 8; ++c)
            ASSERT_EQ(y.at(r, c),
                      oracle[static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(c)])
                << "r=" << r << " c=" << c;
}

TEST(ServeStress, ConcurrentProducersGetBitIdenticalResponses)
{
    constexpr int kProducers = 6;
    constexpr int kPerProducer = 40;
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(24, 32, 8, 3, 0xc0de));
    auto pool = makePool(16, 24, 0xfeed);
    auto oracle = oracleLogits(*registry->find("clf"), pool);

    ServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxDelayUs = 500;
    cfg.workers = 2;
    InferenceServer server(registry, cfg);

    struct Pending
    {
        std::size_t poolIdx;
        std::future<InferenceResponse> fut;
    };
    std::vector<std::vector<Pending>> perThread(kProducers);
    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t) {
        producers.emplace_back([&, t] {
            Rng rng(0xabba + static_cast<std::uint64_t>(t));
            for (int i = 0; i < kPerProducer; ++i) {
                std::size_t idx = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          pool.size()) - 1));
                perThread[static_cast<std::size_t>(t)].push_back(
                    {idx, server.submit("clf", pool[idx])});
            }
        });
    }
    for (auto &p : producers)
        p.join();

    std::int64_t completed = 0;
    for (auto &thread : perThread) {
        for (Pending &p : thread) {
            InferenceResponse resp = p.fut.get();
            ASSERT_EQ(resp.status, ServeStatus::Ok)
                << serveStatusName(resp.status);
            ASSERT_EQ(resp.logits, oracle[p.poolIdx]);
            EXPECT_EQ(resp.predicted, argmaxOf(oracle[p.poolIdx]));
            EXPECT_GE(resp.batchRows, 1);
            EXPECT_LE(resp.batchRows, cfg.maxBatch);
            EXPECT_GE(resp.totalUs, resp.queueUs);
            ++completed;
        }
    }
    server.stop();

    StatsSnapshot s = server.stats();
    EXPECT_EQ(s.completed,
              static_cast<std::uint64_t>(kProducers * kPerProducer));
    EXPECT_EQ(completed, kProducers * kPerProducer);
    std::uint64_t histRows = 0;
    for (std::size_t n = 0; n < s.batchHist.size(); ++n)
        histRows += s.batchHist[n] * n;
    EXPECT_EQ(histRows, s.completed); // every request in exactly one batch
    EXPECT_LE(s.p50Us, s.p99Us);
    EXPECT_GE(s.meanBatchRows, 1.0);
    EXPECT_EQ(s.expired, 0u);
    EXPECT_EQ(s.shutdownRejected, 0u);
}

TEST(Serve, FlushOnTimeoutServesPartialBatch)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
    auto pool = makePool(3, 16, 0x1234);
    auto oracle = oracleLogits(*registry->find("clf"), pool);

    ServerConfig cfg;
    cfg.maxBatch = 64; // far more than we will ever submit
    cfg.maxDelayUs = 3000;
    cfg.workers = 1;
    InferenceServer server(registry, cfg);

    std::vector<std::future<InferenceResponse>> futs;
    for (std::size_t i = 0; i < pool.size(); ++i)
        futs.push_back(server.submit("clf", pool[i]));
    for (std::size_t i = 0; i < futs.size(); ++i) {
        // get() returning at all proves the flush timer fired: the batch
        // can never fill to maxBatch.
        InferenceResponse resp = futs[i].get();
        ASSERT_EQ(resp.status, ServeStatus::Ok);
        EXPECT_EQ(resp.logits, oracle[i]);
        EXPECT_GE(resp.batchRows, 1);
        EXPECT_LE(resp.batchRows, 3);
    }
}

TEST(Serve, ShutdownCompletesEveryPendingFuture)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
    auto pool = makePool(5, 16, 0x4321);

    ServerConfig cfg;
    cfg.workers = 0; // nobody drains: submissions stay pending
    InferenceServer server(registry, cfg);

    std::vector<std::future<InferenceResponse>> futs;
    for (const auto &sample : pool)
        futs.push_back(server.submit("clf", sample));
    server.stop();

    for (auto &f : futs) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_EQ(f.get().status, ServeStatus::ShutDown);
    }
    EXPECT_EQ(server.stats().shutdownRejected, 5u);

    // Submissions after stop() resolve immediately with ShutDown too.
    auto late = server.submit("clf", pool[0]);
    EXPECT_EQ(late.get().status, ServeStatus::ShutDown);
}

TEST(Serve, DeadlineExpiredRequestsAreRejectedNotExecuted)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
    auto pool = makePool(2, 16, 0x9999);
    auto oracle = oracleLogits(*registry->find("clf"), pool);

    ServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxDelayUs = 0; // serve exactly what is queued
    cfg.workers = 0;    // manual drain => deterministic expiry
    InferenceServer server(registry, cfg);

    auto doomed = server.submit("clf", pool[0], /*deadlineUs=*/1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto live = server.submit("clf", pool[1]);

    EXPECT_EQ(server.drainOnce(), 1); // only the live request executes
    EXPECT_EQ(doomed.get().status, ServeStatus::DeadlineExpired);
    InferenceResponse ok = live.get();
    ASSERT_EQ(ok.status, ServeStatus::Ok);
    EXPECT_EQ(ok.logits, oracle[1]);

    StatsSnapshot s = server.stats();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.completed, 1u);
}

TEST(BatcherDirect, SameModelRequestInFlightHoldsTheBatchToTimeout)
{
    // A claimed-but-uncompleted request (a request executing on another
    // worker: popped, promise pending, markCompleted not yet called)
    // keeps its model's live count up, so the next same-model batch must
    // wait out maxDelayUs for co-riders — the leader's deadline can
    // expire during that wait, which is what the server's flush-time
    // re-check guards (claimed requests are returned, never dropped).
    RequestQueue queue;
    auto pushNamed = [&](const char *model, std::int64_t deadlineUs) {
        InferenceRequest r;
        r.model = model;
        r.enqueued = std::chrono::steady_clock::now();
        r.deadline = deadlineUs > 0
                         ? r.enqueued + std::chrono::microseconds(
                                            deadlineUs)
                         : std::chrono::steady_clock::time_point::max();
        queue.push(std::move(r));
    };
    Batcher batcher(queue, BatcherConfig{64, 20'000});

    pushNamed("m", 0);
    std::vector<InferenceRequest> held = batcher.nextBatch();
    ASSERT_EQ(held.size(), 1u); // claimed, never completed: stays live
    EXPECT_EQ(queue.liveCount("m"), 1);

    pushNamed("m", 3000);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<InferenceRequest> batch = batcher.nextBatch();
    double waitedUs = microsBetween(t0, std::chrono::steady_clock::now());
    ASSERT_EQ(batch.size(), 1u);
    // The in-flight same-model request blocked the all-aboard flush, so
    // the batch waited for the flush timeout and the claimed leader is
    // now past its 3 ms deadline (the server-side flush re-check would
    // reject it instead of executing).
    EXPECT_GE(waitedUs, 15'000.0);
    EXPECT_LE(batch.front().deadline, std::chrono::steady_clock::now());

    // Completion releases the live count.
    queue.markCompleted("m", 2);
    EXPECT_EQ(queue.liveCount("m"), 0);
    // Unset promises above: futures were never taken, so dropping the
    // requests is fine — this test only exercises batch formation.
}

TEST(Serve, OtherModelRequestsDoNotHoldABatchOpen)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
    registry->add("other", makeEngine(16, 24, 4, 2, 0xeeee));
    auto pool = makePool(1, 16, 0x7777);

    ServerConfig cfg;
    cfg.maxBatch = 64;
    cfg.maxDelayUs = 30'000; // would dwarf the deadline if waited out
    cfg.workers = 0;         // drive the drain by hand: no pop-time race
    InferenceServer server(registry, cfg);

    // The queued other-model request can never join a clf batch, so the
    // per-model all-aboard flush must fire immediately: the clf request
    // executes well inside its 5 ms deadline instead of expiring during
    // a 30 ms co-rider wait.
    auto fut = server.submit("clf", pool[0], /*deadlineUs=*/5000);
    auto other = server.submit("other", pool[0]);
    EXPECT_EQ(server.drainOnce(), 1);
    EXPECT_EQ(fut.get().status, ServeStatus::Ok);

    EXPECT_EQ(server.drainOnce(), 1);
    EXPECT_EQ(other.get().status, ServeStatus::Ok);
    StatsSnapshot s = server.stats();
    EXPECT_EQ(s.expired, 0u);
    EXPECT_EQ(s.completed, 2u);
}

TEST(Serve, UnknownModelAndBadInputRejectedAtSubmit)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
    InferenceServer server(registry, ServerConfig{.workers = 0});

    auto unknown = server.submit("not-registered",
                                 std::vector<float>(16, 0.5f));
    EXPECT_EQ(unknown.get().status, ServeStatus::UnknownModel);

    auto narrow = server.submit("clf", std::vector<float>(7, 0.5f));
    EXPECT_EQ(narrow.get().status, ServeStatus::BadInput);

    EXPECT_EQ(server.stats().badRequests, 2u);
    EXPECT_EQ(server.stats().completed, 0u);
}

TEST(Serve, TwoHostedModelsNeverShareABatch)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("small", makeEngine(16, 24, 4, 2, 0xaaaa));
    registry->add("wide", makeEngine(24, 32, 8, 4, 0xbbbb));
    auto poolSmall = makePool(8, 16, 0x1111);
    auto poolWide = makePool(8, 24, 0x2222);
    auto oracleSmall = oracleLogits(*registry->find("small"), poolSmall);
    auto oracleWide = oracleLogits(*registry->find("wide"), poolWide);

    ServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxDelayUs = 300;
    cfg.workers = 2;
    InferenceServer server(registry, cfg);

    constexpr int kThreads = 4, kPer = 30;
    struct Pending
    {
        bool wide;
        std::size_t idx;
        std::future<InferenceResponse> fut;
    };
    std::vector<std::vector<Pending>> perThread(kThreads);
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&, t] {
            Rng rng(0xcafe + static_cast<std::uint64_t>(t));
            for (int i = 0; i < kPer; ++i) {
                bool wide = rng.bernoulli(0.5);
                const auto &pool = wide ? poolWide : poolSmall;
                std::size_t idx = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          pool.size()) - 1));
                perThread[static_cast<std::size_t>(t)].push_back(
                    {wide, idx,
                     server.submit(wide ? "wide" : "small", pool[idx])});
            }
        });
    }
    for (auto &p : producers)
        p.join();

    for (auto &thread : perThread) {
        for (Pending &p : thread) {
            InferenceResponse resp = p.fut.get();
            ASSERT_EQ(resp.status, ServeStatus::Ok);
            // Logit width and exact values prove the request ran on its
            // own model: a cross-model batch would misshape or corrupt.
            const auto &oracle = p.wide ? oracleWide : oracleSmall;
            ASSERT_EQ(resp.logits, oracle[p.idx]);
        }
    }
    server.stop();
    EXPECT_EQ(server.stats().completed,
              static_cast<std::uint64_t>(kThreads * kPer));
}

TEST(BatcherDirect, GroupsSameModelRunsAndPreservesOthers)
{
    RequestQueue queue;
    auto pushNamed = [&](const char *model) {
        InferenceRequest r;
        r.model = model;
        r.enqueued = std::chrono::steady_clock::now();
        r.deadline = std::chrono::steady_clock::time_point::max();
        queue.push(std::move(r));
    };
    pushNamed("a");
    pushNamed("b");
    pushNamed("a");
    pushNamed("a");
    pushNamed("b");

    Batcher batcher(queue, BatcherConfig{8, 0});
    std::vector<InferenceRequest> first = batcher.nextBatch();
    ASSERT_EQ(first.size(), 3u); // all the a's, skipping the b's
    for (const auto &r : first)
        EXPECT_EQ(r.model, "a");

    std::vector<InferenceRequest> second = batcher.nextBatch();
    ASSERT_EQ(second.size(), 2u);
    for (const auto &r : second)
        EXPECT_EQ(r.model, "b");

    queue.shutdown();
    EXPECT_TRUE(batcher.nextBatch().empty());
    // Unset promises above: futures were never taken, so dropping the
    // requests is fine — this test only exercises batch formation.
}

TEST(RequestQueueDirect, ShutdownRejectsPendingAndRefusesPushes)
{
    RequestQueue queue;
    std::vector<std::future<InferenceResponse>> futs;
    for (int i = 0; i < 3; ++i) {
        InferenceRequest r;
        r.model = "m";
        r.enqueued = std::chrono::steady_clock::now();
        r.deadline = std::chrono::steady_clock::time_point::max();
        futs.push_back(r.promise.get_future());
        EXPECT_TRUE(queue.push(std::move(r)));
    }
    EXPECT_EQ(queue.size(), 3u);
    queue.shutdown();
    EXPECT_EQ(queue.size(), 0u);
    for (auto &f : futs)
        EXPECT_EQ(f.get().status, ServeStatus::ShutDown);

    InferenceRequest late;
    late.model = "m";
    late.enqueued = std::chrono::steady_clock::now();
    late.deadline = std::chrono::steady_clock::time_point::max();
    auto lateFut = late.promise.get_future();
    EXPECT_FALSE(queue.push(std::move(late)));
    EXPECT_EQ(lateFut.get().status, ServeStatus::ShutDown);
    EXPECT_EQ(queue.shutdownCount(), 4u);
    EXPECT_FALSE(queue.waitFront().has_value());
}

TEST(RequestQueueDirect, DepthBoundRejectsWithOverloadedExactly)
{
    RequestQueue queue;
    queue.setMaxDepth(2);
    auto makeReq = [] {
        InferenceRequest r;
        r.model = "m";
        r.enqueued = std::chrono::steady_clock::now();
        r.deadline = std::chrono::steady_clock::time_point::max();
        return r;
    };
    EXPECT_EQ(queue.tryPush(makeReq()), PushResult::Ok);
    EXPECT_EQ(queue.tryPush(makeReq()), PushResult::Ok);

    InferenceRequest third = makeReq();
    auto fut = third.promise.get_future();
    EXPECT_EQ(queue.tryPush(std::move(third)), PushResult::Overloaded);
    // Terminal state delivered before tryPush returned.
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(fut.get().status, ServeStatus::Overloaded);
    EXPECT_EQ(queue.overloadedCount(), 1u);
    EXPECT_EQ(queue.size(), 2u);
    queue.shutdown();
}

TEST(RequestQueueDirect, RejectionCallbackRunsOutsideTheQueueLock)
{
    // The out-of-lock completion discipline, pinned: a rejection's
    // onComplete may call back INTO the queue (query it, even push
    // another doomed request, which lands in the same thread_local
    // rejection scratch mid-iteration). Under the old
    // complete-under-mutex_ scheme both calls deadlock on the
    // non-recursive queue mutex.
    RequestQueue queue;
    queue.setMaxDepth(1);
    auto makeReq = [] {
        InferenceRequest r;
        r.model = "m";
        r.enqueued = std::chrono::steady_clock::now();
        r.deadline = std::chrono::steady_clock::time_point::max();
        return r;
    };
    EXPECT_EQ(queue.tryPush(makeReq()), PushResult::Ok);

    bool outerRan = false;
    std::future<InferenceResponse> nestedFut;
    InferenceRequest outer = makeReq();
    outer.onComplete = [&](InferenceResponse &&resp) {
        EXPECT_EQ(resp.status, ServeStatus::Overloaded);
        EXPECT_EQ(queue.size(), 1u); // would deadlock under mutex_
        InferenceRequest nested = makeReq();
        nestedFut = nested.promise.get_future();
        // Also rejected (depth still 1): a nested rejection completing
        // inside the outer rejection's callback.
        EXPECT_EQ(queue.tryPush(std::move(nested)),
                  PushResult::Overloaded);
        outerRan = true;
    };
    EXPECT_EQ(queue.tryPush(std::move(outer)), PushResult::Overloaded);
    EXPECT_TRUE(outerRan);
    ASSERT_TRUE(nestedFut.valid());
    EXPECT_EQ(nestedFut.get().status, ServeStatus::Overloaded);
    EXPECT_EQ(queue.overloadedCount(), 2u);
    queue.shutdown();
}

TEST(Serve, FlushTimeExpiryCountsThroughTheQueuePath)
{
    // The counting-unification fix, pinned end to end: an expiry noticed
    // at FLUSH time (after the request left the queue) must move the
    // queue's own expired tally, StatsSnapshot::expired and the
    // Prometheus series together — before the fix the flush path bumped
    // only the registry counter, so queue.expiredCount() drifted from
    // snapshot.expired forever.
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
    auto pool = makePool(2, 16, 0x8811);

    ServerConfig cfg;
    cfg.maxBatch = 64;
    cfg.maxDelayUs = 400'000;
    cfg.workers = 0;
    InferenceServer server(registry, cfg);
    RequestQueue &queue = server.queues().shard(0);

    // Act as a wedged worker: claim the first request and never finish
    // it. Its live count holds the next clf batch open to the timeout.
    auto stuck = server.submit("clf", pool[0]);
    std::optional<InferenceRequest> claimed = queue.waitFront();
    ASSERT_TRUE(claimed.has_value());
    ASSERT_EQ(queue.liveCount("clf"), 1);

    // This request becomes the next batch's leader; the claimed
    // in-flight request forces the batcher to wait out maxDelayUs, by
    // which time the 100 ms deadline has long expired — the flush-time
    // re-check rejects it. The deadline must outlast any stall before
    // drainOnce() pops the request: expired at pop, it would leave
    // drainOnce() waiting for work that never comes.
    auto doomed = server.submit("clf", pool[1], /*deadlineUs=*/100'000);
    EXPECT_EQ(server.drainOnce(), 1);
    EXPECT_EQ(doomed.get().status, ServeStatus::DeadlineExpired);

    StatsSnapshot s = server.stats();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(queue.expiredCount(), 1u); // the unified tally
    obs::ParsedExposition parsed;
    ASSERT_TRUE(
        obs::parsePrometheusText(server.metricsText(false), parsed));
    const obs::ParsedSample *series =
        parsed.find("bbs_serve_requests_expired_total");
    ASSERT_NE(series, nullptr);
    EXPECT_EQ(series->value, 1.0);

    // Release the claimed request so stop() isn't held up; its promise
    // is abandoned (the future reports broken_promise, which this test
    // never reads).
    queue.markCompleted("clf", 1);
    claimed.reset();
    stuck = {};
    server.stop();
}

TEST(Serve, ShardDepthBoundShedsWithOverloaded)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
    auto pool = makePool(1, 16, 0x2244);

    ServerConfig cfg;
    cfg.workers = 0; // nobody drains: the queue only fills
    cfg.maxShardDepth = 2;
    InferenceServer server(registry, cfg);

    auto a = server.submit("clf", pool[0]);
    auto b = server.submit("clf", pool[0]);
    auto c = server.submit("clf", pool[0]);
    ASSERT_EQ(c.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(c.get().status, ServeStatus::Overloaded);

    StatsSnapshot s = server.stats();
    EXPECT_EQ(s.overloaded, 1u);
    EXPECT_EQ(s.queueDepth, 2u);
    EXPECT_EQ(server.queues().shard(0).overloadedCount(), 1u);

    server.stop();
    EXPECT_EQ(a.get().status, ServeStatus::ShutDown);
    EXPECT_EQ(b.get().status, ServeStatus::ShutDown);
}

TEST(Serve, DeadlineAwareShedRejectsDoomedRequestsAtSubmit)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
    auto pool = makePool(1, 16, 0x3355);

    ServerConfig cfg;
    cfg.workers = 0;
    cfg.maxBatch = 8;
    cfg.maxDelayUs = 50'000; // dwarfs the deadline below
    cfg.maxShardDepth = 100; // depth bound never hit: the SHED rejects
    InferenceServer server(registry, cfg);

    // Arm the service-time estimator with one served batch.
    auto warm = server.submit("clf", pool[0]);
    EXPECT_EQ(server.drainOnce(), 1);
    EXPECT_EQ(warm.get().status, ServeStatus::Ok);

    // Estimated wait >= one flush delay (50 ms) >> the 1 ms deadline:
    // rejected at the door, in microseconds, instead of accepted and
    // expired after the full wait.
    auto doomed = server.submit("clf", pool[0], /*deadlineUs=*/1000);
    ASSERT_EQ(doomed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(doomed.get().status, ServeStatus::Overloaded);
    EXPECT_EQ(server.stats().overloaded, 1u);
    EXPECT_EQ(server.stats().expired, 0u);
    // A deadline the estimate can meet is still accepted.
    auto fine = server.submit("clf", pool[0], /*deadlineUs=*/5'000'000);
    EXPECT_EQ(server.drainOnce(), 1);
    EXPECT_EQ(fine.get().status, ServeStatus::Ok);
    server.stop();
}

TEST(Serve, ShardedServerServesBitIdenticalAcrossModels)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("a", makeEngine(16, 24, 4, 2, 0xaa00));
    registry->add("b", makeEngine(16, 24, 4, 2, 0xbb00));
    registry->add("c", makeEngine(24, 32, 8, 4, 0xcc00));
    auto poolA = makePool(6, 16, 0x0a);
    auto poolB = makePool(6, 16, 0x0b);
    auto poolC = makePool(6, 24, 0x0c);
    auto oracleA = oracleLogits(*registry->find("a"), poolA);
    auto oracleB = oracleLogits(*registry->find("b"), poolB);
    auto oracleC = oracleLogits(*registry->find("c"), poolC);

    ServerConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxDelayUs = 300;
    cfg.workers = 1; // raised to one drain thread per shard
    cfg.shards = 4;
    InferenceServer server(registry, cfg);
    ASSERT_EQ(server.queues().shardCount(), 4u);

    constexpr int kThreads = 3, kPer = 40;
    struct Pending
    {
        int which;
        std::size_t idx;
        std::future<InferenceResponse> fut;
    };
    std::vector<std::vector<Pending>> perThread(kThreads);
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&, t] {
            Rng rng(0xd1ce + static_cast<std::uint64_t>(t));
            for (int i = 0; i < kPer; ++i) {
                int which = static_cast<int>(rng.uniformInt(0, 2));
                const auto &pool =
                    which == 0 ? poolA : which == 1 ? poolB : poolC;
                std::size_t idx = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          pool.size()) - 1));
                const char *name =
                    which == 0 ? "a" : which == 1 ? "b" : "c";
                perThread[static_cast<std::size_t>(t)].push_back(
                    {which, idx, server.submit(name, pool[idx])});
            }
        });
    }
    for (auto &p : producers)
        p.join();

    for (auto &thread : perThread) {
        for (Pending &p : thread) {
            InferenceResponse resp = p.fut.get();
            ASSERT_EQ(resp.status, ServeStatus::Ok)
                << serveStatusName(resp.status);
            const auto &oracle = p.which == 0   ? oracleA
                                 : p.which == 1 ? oracleB
                                                : oracleC;
            ASSERT_EQ(resp.logits, oracle[p.idx]);
        }
    }
    server.stop();
    EXPECT_EQ(server.stats().completed,
              static_cast<std::uint64_t>(kThreads * kPer));
}

TEST(Serve, SubmitAsyncDeliversThroughCallback)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
    auto pool = makePool(1, 16, 0x6611);
    auto oracle = oracleLogits(*registry->find("clf"), pool);

    ServerConfig cfg;
    cfg.workers = 0;
    InferenceServer server(registry, cfg);

    InferenceResponse got;
    std::atomic<int> calls{0};
    server.submitAsync("clf", pool[0], 0,
                       [&](InferenceResponse &&resp) {
                           got = std::move(resp);
                           calls.fetch_add(1);
                       });
    EXPECT_EQ(server.drainOnce(), 1);
    ASSERT_EQ(calls.load(), 1);
    EXPECT_EQ(got.status, ServeStatus::Ok);
    EXPECT_EQ(got.logits, oracle[0]);

    // Immediate rejection also arrives through the callback, on the
    // submitting thread, exactly once.
    server.submitAsync("nope", pool[0], 0,
                       [&](InferenceResponse &&resp) {
                           EXPECT_EQ(resp.status,
                                     ServeStatus::UnknownModel);
                           calls.fetch_add(1);
                       });
    EXPECT_EQ(calls.load(), 2);
    server.stop();
}

TEST(Serve, RegistrationSharesPlanesInsteadOfCopying)
{
    // A network's weight payloads (prepacked planes, plan state) are
    // shared_ptr-held; registering it must move those pointers into the
    // registry, never duplicate a plane buffer. Pointer equality is the
    // proof; the allocation bound catches a reintroduced deep copy
    // (copying even this small model's planes would blow well past it).
    Int8Network engine = makeEngine(16, 24, 4, 2, 0x90ab);
    std::vector<const CompressedRowPlanes *> planes;
    std::vector<const void *> scaleData;
    for (const auto &l : engine.layers()) {
        planes.push_back(l.planes.get());
        scaleData.push_back(l.wScales.data());
    }

    auto registry = std::make_shared<ModelRegistry>();
    std::uint64_t before = threadAllocCount();
    registry->add("m", std::move(engine));
    std::uint64_t registrationAllocs = threadAllocCount() - before;

    std::shared_ptr<const Int8Network> found = registry->find("m");
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(found->layers().size(), planes.size());
    for (std::size_t i = 0; i < planes.size(); ++i) {
        EXPECT_EQ(found->layers()[i].planes.get(), planes[i])
            << "layer " << i << " planes were copied, not shared";
        EXPECT_EQ(found->layers()[i].wScales.data(), scaleData[i])
            << "layer " << i << " scales were copied, not moved";
    }
    // Registration bookkeeping: one shared Int8Network, a map node and
    // a key — not a weight payload in sight.
    EXPECT_LE(registrationAllocs, 32u);

    // Hot-swap bumps the version and replaces the engine atomically;
    // the pre-swap pointer keeps serving its holder.
    EXPECT_EQ(registry->version("m"), 1u);
    EXPECT_EQ(registry->swap("m",
                             std::make_shared<const Int8Network>(
                                 makeEngine(16, 24, 4, 2, 0x90ac))),
              2u);
    EXPECT_NE(registry->find("m"), found);
    EXPECT_EQ(found->layers()[0].planes.get(), planes[0]);
}

TEST(Serve, ArgmaxGuardsZeroWidthOutput)
{
    // execute() computes predicted through argmaxLogits; an empty logits
    // vector (a zero-width output — constructible only through layers
    // outside the Shape-validated factory path, but the serving contract
    // is defensive) must yield -1, never an indexing of logits[0].
    EXPECT_EQ(argmaxLogits({}), -1);
    EXPECT_EQ(argmaxLogits({-3.0f}), 0);
    EXPECT_EQ(argmaxLogits({2.0f, 5.0f, 5.0f, 1.0f}), 1); // first max
}

} // namespace
} // namespace bbs
