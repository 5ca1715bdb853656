/**
 * @file
 * Zero-allocation hot-path tests (common/alloc_count.hpp): linking this
 * test replaces global operator new/delete with the counting forwarders,
 * and the tests assert the serving runtime's steady-state guarantee —
 * once the per-thread buffers have grown to their high-water mark,
 * forming a batch, running the whole quantize -> GEMM -> dequant
 * forward, and completing the response futures performs ZERO heap
 * allocations — exactly what bench/micro_serve gates in CI.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "engine/engine.hpp"
#include "gemm/bit_serial_matrix.hpp"
#include "nn/int8_infer.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "serve/server.hpp"

namespace bbs {
namespace {

Int8Network
makeEngine(std::int64_t in, std::int64_t hidden, std::int64_t out,
           std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.add(std::make_unique<Dense>(in, hidden, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(hidden, out, rng));
    return Int8Network::fromNetwork(net, 32, 4,
                                    PruneStrategy::ZeroPointShifting);
}

Batch
randomBatch(std::int64_t rows, std::int64_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Batch x(Shape{rows, cols});
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x.flat(i) = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    return x;
}

// ----------------------------------------------------- counter plumbing

TEST(AllocCountTest, CountersObserveOperatorNew)
{
    std::uint64_t t0 = threadAllocCount();
    {
        std::vector<int> v(4096);
        EXPECT_GT(threadAllocCount(), t0);
    }
    // The process-wide counter only accumulates while enabled.
    bool was = allocCountingEnabled();
    setAllocCounting(false);
    std::uint64_t p0 = processAllocCount();
    { std::vector<int> v(4096); }
    EXPECT_EQ(processAllocCount(), p0);
    setAllocCounting(true);
    { std::vector<int> v(4096); }
    EXPECT_GT(processAllocCount(), p0);
    setAllocCounting(was);
}

// ------------------------------------------------ building-block reuse

TEST(HotPathTest, ResizeToAndPackIntoReuseWarmCapacity)
{
    // Tensor::resizeTo never shrinks capacity: growing once to the high
    // water then cycling smaller/equal shapes is allocation-free.
    Int8Tensor t(Shape{64, 128});
    std::uint64_t a0 = threadAllocCount();
    t.resizeTo(Shape{8, 128});
    t.resizeTo(Shape{1, 128});
    t.resizeTo(Shape{64, 128});
    EXPECT_EQ(threadAllocCount(), a0);

    // BitSerialMatrix::packInto reuses the destination's planes.
    Rng rng(0x9a7);
    Int8Tensor m(Shape{32, 128});
    for (std::int64_t i = 0; i < m.numel(); ++i)
        m.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    BitSerialMatrix warm;
    BitSerialMatrix::packInto(m, warm); // grows once
    BitSerialMatrix cold = BitSerialMatrix::pack(m);
    a0 = threadAllocCount();
    BitSerialMatrix::packInto(m, warm); // steady state: reuse
    EXPECT_EQ(threadAllocCount(), a0);
    EXPECT_EQ(warm.rows(), cold.rows());
    EXPECT_EQ(warm.cols(), cold.cols());
}

// ------------------------------------------------- forward steady state

TEST(HotPathTest, ForwardIntoIsAllocationFreeWhenWarm)
{
    Int8Network engine = makeEngine(96, 64, 10, 0xfeed);
    InferencePolicy policy{engine::Calibration::PerRow,
                           engine::PlanKind::Auto};

    Batch big = randomBatch(32, 96, 0x111);
    Batch small = randomBatch(4, 96, 0x222);
    Batch out;
    // Warm-up: grows the thread-local forward scratch (quantized input,
    // INT32 product, row scales, ping/pong activations) and the GEMM
    // arenas to the 32-row high-water mark.
    engine.forwardInto(big, policy, out);
    engine.forwardInto(small, policy, out);
    engine.forwardInto(big, policy, out);

    bool was = allocCountingEnabled();
    setAllocCounting(true);
    std::uint64_t p0 = processAllocCount();
    std::uint64_t t0 = threadAllocCount();
    engine.forwardInto(big, policy, out);
    engine.forwardInto(small, policy, out); // smaller batch reuses too
    engine.forwardInto(big, policy, out);
    std::uint64_t threadAllocs = threadAllocCount() - t0;
    std::uint64_t processAllocs = processAllocCount() - p0;
    setAllocCounting(was);
    EXPECT_EQ(threadAllocs, 0u);
    EXPECT_EQ(processAllocs, 0u); // pool workers included

    // The warm path computes the same thing as the allocating one.
    Batch fresh = engine.forward(big, policy);
    ASSERT_EQ(out.shape(), fresh.shape());
    for (std::int64_t i = 0; i < out.numel(); ++i)
        ASSERT_EQ(out.flat(i), fresh.flat(i)) << "i=" << i;
}

// ------------------------------------------------- serving steady state

TEST(HotPathTest, ServingDrainPathIsAllocationFreeWhenWarm)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", makeEngine(64, 48, 8, 0xbeef));
    std::shared_ptr<const Int8Network> engine = registry->find("m");

    ServerConfig cfg;
    cfg.maxBatch = 16;
    cfg.maxDelayUs = 0; // serve whatever is queued right now
    cfg.workers = 0;    // drained below, on the measuring thread
    InferenceServer server(registry, cfg);

    std::vector<std::vector<float>> pool(
        static_cast<std::size_t>(cfg.maxBatch));
    Rng rng(0xab);
    for (auto &sample : pool) {
        sample.resize(64);
        for (float &v : sample)
            v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    }

    auto serveRound = [&](std::int64_t rows,
                          std::uint64_t *threadAllocs,
                          std::uint64_t *processAllocs) {
        std::vector<std::future<InferenceResponse>> futs;
        futs.reserve(static_cast<std::size_t>(rows));
        for (std::int64_t i = 0; i < rows; ++i)
            futs.push_back(
                server.submit("m", pool[static_cast<std::size_t>(i)]));
        bool was = allocCountingEnabled();
        if (processAllocs != nullptr)
            setAllocCounting(true);
        std::uint64_t p0 = processAllocCount();
        std::uint64_t t0 = threadAllocCount();
        for (std::int64_t served = 0; served < rows;)
            served += server.drainOnce();
        if (threadAllocs != nullptr)
            *threadAllocs = threadAllocCount() - t0;
        if (processAllocs != nullptr) {
            *processAllocs = processAllocCount() - p0;
            setAllocCounting(was);
        }
        for (auto &f : futs) {
            InferenceResponse resp = f.get();
            ASSERT_EQ(resp.status, ServeStatus::Ok);
            ASSERT_EQ(resp.logits.size(), 8u);
        }
    };

    // Warm-up: the first max-size batches grow the drain thread's batch
    // vector, forward scratch, and GEMM arenas to their high water.
    for (int round = 0; round < 3; ++round)
        serveRound(cfg.maxBatch, nullptr, nullptr);

    // Steady state: the whole drain path — batch formation, gather,
    // forward, response completion — allocates nothing, at the full
    // batch size and at smaller ones (including the batch-of-1 per-dot
    // fast path).
    for (std::int64_t rows : {cfg.maxBatch, std::int64_t{5},
                              std::int64_t{1}}) {
        std::uint64_t threadAllocs = ~0ull, processAllocs = ~0ull;
        serveRound(rows, &threadAllocs, &processAllocs);
        EXPECT_EQ(threadAllocs, 0u) << "rows=" << rows;
        EXPECT_EQ(processAllocs, 0u) << "rows=" << rows;
    }

    // The guarantee is steady-state only: responses still match the
    // engine run directly (reuse must not leak rows between batches).
    Batch x(Shape{1, 64});
    for (std::int64_t c = 0; c < 64; ++c)
        x.at(0, c) = pool[0][static_cast<std::size_t>(c)];
    Batch y = engine->forward(
        x, InferencePolicy{engine::Calibration::PerRow,
                           engine::PlanKind::Auto});
    std::future<InferenceResponse> fut = server.submit("m", pool[0]);
    ASSERT_EQ(server.drainOnce(), 1); // workers = 0: drain it ourselves
    InferenceResponse resp = fut.get();
    for (std::int64_t c = 0; c < 8; ++c)
        ASSERT_EQ(resp.logits[static_cast<std::size_t>(c)], y.at(0, c));
}

// Requests that expire in the queue are completed by the draining
// thread through its per-thread rejection scratch. Once that scratch has
// held the largest burst, expiring requests allocates nothing more.
TEST(HotPathTest, ExpiryPathIsAllocationFreeWhenWarm)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", makeEngine(64, 48, 8, 0xbeef));
    ServerConfig cfg;
    cfg.maxBatch = 16;
    cfg.maxDelayUs = 0;
    cfg.workers = 0; // drained below, on the measuring thread
    InferenceServer server(registry, cfg);
    const std::vector<float> input(64, 0.5f);

    auto expireRound = [&](int doomed) {
        std::vector<std::future<InferenceResponse>> futs;
        for (int i = 0; i < doomed; ++i)
            futs.push_back(server.submit("m", input, /*deadlineUs=*/1));
        futs.push_back(server.submit("m", input));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::uint64_t t0 = threadAllocCount();
        EXPECT_EQ(server.drainOnce(), 1); // the doomed ones expire first
        std::uint64_t allocs = threadAllocCount() - t0;
        for (int i = 0; i < doomed; ++i)
            EXPECT_EQ(futs[static_cast<std::size_t>(i)].get().status,
                      ServeStatus::DeadlineExpired);
        EXPECT_EQ(futs.back().get().status, ServeStatus::Ok);
        return allocs;
    };

    expireRound(8); // warm-up: batch, forward scratch, rejection scratch
    for (int doomed : {8, 3, 8})
        EXPECT_EQ(expireRound(doomed), 0u) << doomed << " expired";
}

} // namespace
} // namespace bbs
