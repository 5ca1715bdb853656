/**
 * @file
 * Tests for the common utilities: stats, tables, RNG determinism, the
 * parallel loop and the fatal-error exit once its worker pool is live.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

#ifndef GTEST_FLAG_SET // googletest < 1.12; same definition as later releases
#define GTEST_FLAG_SET(name, value) (void)(::testing::GTEST_FLAG(name) = value)
#endif

namespace bbs {
namespace {

TEST(Stats, MeanAndStddev)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_NEAR(stddev(xs), 1.118, 1e-3);
    EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, GeomeanOfRatios)
{
    std::vector<double> xs = {2.0, 8.0};
    EXPECT_DOUBLE_EQ(geomean(xs), 4.0);
    std::vector<double> ones = {1.0, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(geomean(ones), 1.0);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
}

TEST(Stats, AccumulatorTracksRange)
{
    Accumulator acc;
    acc.add(3.0);
    acc.add(-1.0);
    acc.add(5.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.min(), -1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
    EXPECT_NEAR(acc.mean(), 7.0 / 3.0, 1e-12);
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"Model", "Speedup"});
    t.addRow({"ResNet-50", "3.03"});
    t.addRow({"VGG-16", "2.1"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("Model"), std::string::npos);
    EXPECT_NE(s.find("ResNet-50"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "a,b\n1,2\n");
}

TEST(Format, PrintfStyle)
{
    EXPECT_EQ(format("%.2f x", 3.0305), "3.03 x");
    EXPECT_EQ(formatDouble(1.666, 1), "1.7");
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic)
{
    Rng a(9), b(9);
    Rng fa = a.fork();
    Rng fb = b.fork();
    EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, GaussianMomentsRoughlyCorrect)
{
    Rng rng(7);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian(1.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double m = sum / n;
    double var = sq / n - m * m;
    EXPECT_NEAR(m, 1.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, LaplaceIsSymmetricWithHeavyTails)
{
    Rng rng(7);
    int pos = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        pos += rng.laplace(0.0, 1.0) > 0.0;
    EXPECT_NEAR(static_cast<double>(pos) / n, 0.5, 0.03);
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    const std::int64_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    }, 13);
    for (std::int64_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(Parallel, HandlesEmptyAndTiny)
{
    std::atomic<int> count{0};
    parallelFor(0, [&](std::int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    parallelFor(3, [&](std::int64_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
}

TEST(Parallel, ChunkForWorkReachesTheConstant)
{
    EXPECT_EQ(chunkForWork(0), kMinChunkWork);
    for (std::int64_t w : {std::int64_t{1}, std::int64_t{3},
                           std::int64_t{3072}, kMinChunkWork - 1,
                           kMinChunkWork, 4 * kMinChunkWork}) {
        // The fewest iterations whose work reaches the constant.
        std::int64_t c = chunkForWork(w);
        EXPECT_GE(c * w, kMinChunkWork) << w;
        EXPECT_LT((c - 1) * w, kMinChunkWork) << w;
    }
}

// Back-to-back jobs whose helper counts cycle through every width the
// cap allows, 0 (one chunk, run on the caller) through
// maxWorkerThreads() - 1. A job may wake only the helpers it uses, so a
// lost or misdirected wake-up would hang a job: the alarm turns that
// into a SIGALRM failure instead of a stalled suite.
TEST(Parallel, BackToBackJobsOfEveryWidthComplete)
{
    const unsigned threads = maxWorkerThreads();
    constexpr int kJobs = 10000;
    constexpr std::int64_t kMaxChunk = 5;
    std::vector<std::atomic<int>> hits(
        static_cast<std::size_t>(threads * kMaxChunk));
#if BBS_OBS
    auto &reg = obs::Registry::global();
    obs::Counter &jobs = reg.counter("bbs_pool_jobs_total");
    obs::Counter &helpers = reg.counter("bbs_pool_helpers_total");
#endif
    struct CancelAlarm
    {
        ~CancelAlarm() { alarm(0); } // also when an assertion returns early
    } cancelAlarm;
    alarm(120);
    for (int j = 0; j < kJobs; ++j) {
        const unsigned width = static_cast<unsigned>(j) % threads;
        const std::int64_t chunk = 1 + j % kMaxChunk;
        // width + 1 chunks, the last one 1..chunk iterations long.
        const std::int64_t n = width * chunk + 1 + (j / 7) % chunk;
        for (std::int64_t i = 0; i < n; ++i)
            hits[static_cast<std::size_t>(i)].store(0);
#if BBS_OBS
        const std::uint64_t jobs0 = jobs.value();
        const std::uint64_t helpers0 = helpers.value();
#endif
        parallelFor(n, [&](std::int64_t i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
        }, chunk);
        for (std::int64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
                << "job " << j << " n=" << n << " chunk=" << chunk
                << " index " << i;
#if BBS_OBS
        ASSERT_EQ(jobs.value() - jobs0, width > 0 ? 1u : 0u) << "job " << j;
        ASSERT_EQ(helpers.value() - helpers0, width) << "job " << j;
#endif
    }
}

/** Run one parallelFor wide enough to give the worker pool helpers. */
void
startPool()
{
    std::atomic<int> count{0};
    parallelFor(1024, [&](std::int64_t) { count.fetch_add(1); }, 1);
    ASSERT_EQ(count.load(), 1024);
}

// The default ("fast") death test forks, and the pool's helper threads
// do not exist in the child. A fatal error there must still exit with
// code 1, so std::exit must not join the helpers. The test starts the
// pool itself rather than relying on an earlier test to have done so.
TEST(ParallelDeathTest, FatalExitsWithCodeOneAfterPoolStarted)
{
    if (maxWorkerThreads() < 2)
        GTEST_SKIP() << "a single worker thread never starts the pool";
    startPool();
    EXPECT_EXIT(BBS_REQUIRE(false, "after the pool started"),
                ::testing::ExitedWithCode(1), "requirement failed");
}

// A child forked after the pool started inherits none of its helpers.
// Its parallelFor must still complete (serially) rather than wait for
// them; the alarm turns a hang into a SIGALRM death the parent sees.
TEST(Parallel, ForkedChildCompletesParallelFor)
{
    if (maxWorkerThreads() < 2)
        GTEST_SKIP() << "a single worker thread never starts the pool";
    startPool();
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        alarm(10);
        std::atomic<std::int64_t> sum{0};
        parallelFor(1000, [&](std::int64_t i) { sum.fetch_add(i); }, 1);
        _exit(sum.load() == 1000 * 999 / 2 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "child killed by signal "
        << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

// A fatal error raised on a pool helper must exit with code 1, not abort
// because the exiting helper tries to join itself. The threadsafe style
// re-executes the binary for the child, so the child starts its own pool
// instead of inheriting one whose helpers do not exist.
TEST(ParallelDeathTest, FatalOnPoolHelperExitsWithCodeOne)
{
    if (maxWorkerThreads() < 2)
        GTEST_SKIP() << "a single worker thread never starts the pool";
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    EXPECT_EXIT(
        {
            startPool();
            const std::thread::id caller = std::this_thread::get_id();
            // The caller's chunk waits for a helper's fatal error to end
            // the process; the bound turns a run in which no helper takes
            // a chunk into "did not die" instead of a hang.
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            parallelFor(2, [&](std::int64_t) {
                if (std::this_thread::get_id() != caller)
                    BBS_REQUIRE(false, "raised on a pool helper");
                while (std::chrono::steady_clock::now() < deadline)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
            }, 1);
        },
        ::testing::ExitedWithCode(1), "raised on a pool helper");
}

} // namespace
} // namespace bbs
