/**
 * @file
 * The persistent worker pool behind parallelFor.
 *
 * parallelFor used to spawn (and join) a fresh std::thread team on every
 * call — correct, but each call paid thread creation *allocations* and
 * latency, which is exactly what the serving hot path's zero-allocation
 * guarantee forbids. The pool here is created lazily on the first
 * parallel run, grows to the worker cap high-water mark, and then serves
 * every subsequent job allocation-free: jobs are published under a mutex
 * (a ParallelBody is two raw pointers), chunks are claimed from an
 * atomic counter by the helpers AND the calling thread, and completion
 * is signalled back over a condition variable.
 *
 * Wake protocol: each helper waits on its own condition variable for its
 * own `assigned` flag. A job with h helpers sets the flags of helpers
 * 0..h-1 under the pool mutex and notifies exactly those h, so a job
 * that wants one helper wakes one thread, not the whole pool. A helper
 * clears its flag when it takes the job, so a wake-up can never be taken
 * by a helper it was not meant for. (One shared condition variable with
 * one notify_one per helper can deadlock: a helper that already finished
 * and went back to waiting may take a wake-up meant for another.)
 *
 * One job runs at a time. A parallelFor arriving while another thread's
 * job is in flight gets `false` from poolRun and falls back to the old
 * spawn-per-call path — correct, just at the historical cost. Memory
 * ordering: the job publication and the finished-count handshake both go
 * through the pool mutex, so everything the caller wrote before
 * parallelFor happens-before the helpers' reads, and the helpers' output
 * writes happen-before the caller's return.
 *
 * The pool is built once and never destroyed. std::exit (a fatal error)
 * runs static destructors, and joining the helpers there would crash in
 * a forked child, where they do not exist, and abort on a helper, which
 * would join itself.
 *
 * Fork: a child forked after the pool starts inherits the pool's state
 * but none of its helper threads, and its mutexes may have been held by
 * a parent thread at the fork. Building the pool installs a
 * pthread_atfork child handler that marks the child's copy dead; the
 * child's pool-served loops then run serially on the calling thread,
 * touching no inherited mutex. The check is one relaxed load per
 * parallelFor — no syscall.
 */
#include "common/parallel.hpp"

#include <pthread.h>

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace bbs::detail {

namespace {

#if BBS_OBS
// Pool utilization series in the global registry (compiled out at
// BBS_OBS=0). Magic-static refs: registration allocates once, every job
// after that pays relaxed RMWs only — the pool serves the serving
// drain path, which must stay allocation-free.
struct PoolMetrics
{
    bbs::obs::Counter &jobs;
    bbs::obs::Counter &helpers;
    bbs::obs::Counter &fallbacks;
    bbs::obs::Gauge &threads;
};

PoolMetrics &
poolMetrics()
{
    auto &reg = bbs::obs::Registry::global();
    static PoolMetrics m{
        reg.counter("bbs_pool_jobs_total",
                    "parallelFor jobs served by the persistent pool"),
        reg.counter("bbs_pool_helpers_total",
                    "Helper threads summed over pool jobs (mean "
                    "helpers = helpers / jobs)"),
        reg.counter("bbs_pool_fallback_total",
                    "parallelFor calls that found the pool busy and "
                    "fell back to spawn-per-call"),
        reg.gauge("bbs_pool_threads", "Persistent pool size "
                  "(high-water mark; the pool never shrinks)"),
    };
    return m;
}
#endif // BBS_OBS

class WorkerPool
{
  public:
    static WorkerPool &
    instance()
    {
        static WorkerPool *pool = new WorkerPool; // leaked: see file comment
        return *pool;
    }

    bool
    run(std::int64_t n, std::int64_t chunk, ParallelBody fn,
        unsigned helpers)
    {
        if (helpers == 0 || forkedChild_.load(std::memory_order_relaxed)) {
            for (std::int64_t i = 0; i < n; ++i)
                fn(i);
            return true;
        }
        // One job at a time; a busy pool sends the caller to the
        // spawn-per-call fallback instead of queueing behind a job of
        // unknown length.
        if (!jobMutex_.try_lock()) {
#if BBS_OBS
            poolMetrics().fallbacks.inc();
#endif
            return false;
        }
        std::lock_guard<std::mutex> jobLock(jobMutex_, std::adopt_lock);

        {
            std::lock_guard<std::mutex> lk(m_);
            ensureHelpersLocked(helpers);
            helpers = std::min<unsigned>(
                helpers, static_cast<unsigned>(helpers_.size()));
#if BBS_OBS
            poolMetrics().threads.set(
                static_cast<std::int64_t>(helpers_.size()));
#endif
            if (helpers == 0) { // thread creation failed entirely
                for (std::int64_t i = 0; i < n; ++i)
                    fn(i);
                return true;
            }
            body_.emplace(fn);
            n_ = n;
            chunk_ = chunk;
            next_.store(0, std::memory_order_relaxed);
            active_ = helpers;
            finished_ = 0;
            for (unsigned i = 0; i < helpers; ++i)
                helpers_[i]->assigned = true;
        }
        // helpers_ changes only under jobMutex_, which this caller holds.
        for (unsigned i = 0; i < helpers; ++i)
            helpers_[i]->wake.notify_one();

        // The calling thread is a full participant: it claims chunks
        // alongside the pool (flagged as a worker so nested parallel
        // calls in the body stay serial).
        bool wasInside = insideParallelWorker();
        insideParallelWorker() = true;
        claimChunks(fn, n, chunk);
        insideParallelWorker() = wasInside;

        {
            std::unique_lock<std::mutex> lk(m_);
            doneCv_.wait(lk, [&] { return finished_ == active_; });
            body_.reset();
        }
#if BBS_OBS
        poolMetrics().jobs.inc();
        poolMetrics().helpers.inc(helpers);
#endif
        return true;
    }

  private:
    WorkerPool()
    {
        BBS_REQUIRE(pthread_atfork(nullptr, nullptr, [] {
                        forkedChild_.store(true, std::memory_order_relaxed);
                    }) == 0,
                    "could not install the worker pool's fork handler");
    }

    /** One pool thread and the wait object only its jobs notify. */
    struct Helper
    {
        std::condition_variable wake;
        bool assigned = false; ///< guarded by m_
        std::thread thread;
    };

    /** Grow the pool to @p want helpers; requires m_ held. The pool
     *  never shrinks — its high-water mark is the allocation paid once. */
    void
    ensureHelpersLocked(unsigned want)
    {
        helpers_.reserve(want);
        while (helpers_.size() < want) {
            auto h = std::make_unique<Helper>();
            Helper *self = h.get();
            h->thread = std::thread([this, self] { helperLoop(*self); });
            helpers_.push_back(std::move(h));
        }
    }

    static void
    claimChunks(const ParallelBody &fn, std::int64_t n, std::int64_t chunk,
                std::atomic<std::int64_t> &next)
    {
        for (;;) {
            std::int64_t begin =
                next.fetch_add(chunk, std::memory_order_relaxed);
            if (begin >= n)
                return;
            std::int64_t end = std::min(begin + chunk, n);
            for (std::int64_t i = begin; i < end; ++i)
                fn(i);
        }
    }

    void
    claimChunks(const ParallelBody &fn, std::int64_t n, std::int64_t chunk)
    {
        claimChunks(fn, n, chunk, next_);
    }

    void
    helperLoop(Helper &self)
    {
        std::unique_lock<std::mutex> lk(m_);
        for (;;) {
            self.wake.wait(lk, [&] { return self.assigned; });
            self.assigned = false;
            ParallelBody fn = *body_;
            std::int64_t n = n_, chunk = chunk_;
            lk.unlock();
            insideParallelWorker() = true;
            claimChunks(fn, n, chunk, next_);
            insideParallelWorker() = false;
            lk.lock();
            if (++finished_ == active_)
                doneCv_.notify_one();
        }
    }

    /** Set in a forked child (see file comment): no helpers exist. */
    static inline std::atomic<bool> forkedChild_{false};

    std::mutex jobMutex_; ///< serializes whole jobs (try_lock gate)

    std::mutex m_; ///< guards all job/pool state below
    std::condition_variable doneCv_; ///< caller waits for completion
    std::vector<std::unique_ptr<Helper>> helpers_;

    std::optional<ParallelBody> body_;
    std::int64_t n_ = 0;
    std::int64_t chunk_ = 0;
    unsigned active_ = 0;   ///< helpers participating in this job
    unsigned finished_ = 0; ///< helpers done with this job
    std::atomic<std::int64_t> next_{0};
};

} // namespace

bool
poolRun(std::int64_t n, std::int64_t chunk, ParallelBody fn,
        unsigned helpers)
{
    return WorkerPool::instance().run(n, chunk, fn, helpers);
}

} // namespace bbs::detail
