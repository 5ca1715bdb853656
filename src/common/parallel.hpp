/**
 * @file
 * Minimal data-parallel loop used by the compressor, the GEMM kernels and
 * the simulators. Deterministic: iteration i always does the same work
 * regardless of the thread count; only wall-clock time changes.
 *
 * Chunk rule: a parallelFor chunk is a contiguous block of iterations,
 * and the serving-path call sites size it from the work one iteration
 * carries (chunkForWork): a chunk holds at least kMinChunkWork element
 * steps. So a region whose whole work is below that constant is one
 * chunk and runs on the calling thread, and a larger region gets one
 * helper per further chunk, up to the worker cap. Chunks depend on
 * shapes only, never on the thread count.
 *
 * Allocation discipline (the serving hot path's zero-allocation
 * guarantee rests on this file):
 *
 *  - The body is passed as a non-owning ParallelBody (function_ref), not
 *    a std::function — no small-buffer spill to the heap for lambdas
 *    with several captures. parallelFor is fully synchronous, so the
 *    referenced temporary outlives every worker.
 *  - Workers come from a lazily-started persistent pool
 *    (common/parallel.cpp) instead of a fresh std::thread team per call:
 *    after the pool's first run, steady-state parallel loops perform
 *    zero heap allocations. A job wakes only the helpers it uses.
 *    Concurrent parallelFor calls from distinct threads fall back to the
 *    legacy spawn-per-call path (the pool runs one job at a time), which
 *    keeps them correct at the old cost.
 *    The pool is never destroyed, so a fatal std::exit joins nothing. A
 *    child forked after the pool started runs its parallel loops
 *    serially on the calling thread: the parent's helpers do not exist
 *    in it, and it takes none of the pool's inherited mutexes.
 */
#ifndef BBS_COMMON_PARALLEL_HPP
#define BBS_COMMON_PARALLEL_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

namespace bbs {

/**
 * Non-owning reference to a `void(std::int64_t)` callable. Safe here
 * because every parallel primitive in this header is synchronous: the
 * referenced callable (usually a lambda temporary at the call site)
 * outlives the call. Trivially copyable — worker threads receive it by
 * value with no heap traffic.
 */
class ParallelBody
{
  public:
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, ParallelBody>>>
    ParallelBody(const F &f) // NOLINT: implicit by design
        : obj_(&f), invoke_([](const void *o, std::int64_t i) {
              (*static_cast<const F *>(o))(i);
          })
    {
    }

    void operator()(std::int64_t i) const { invoke_(obj_, i); }

  private:
    const void *obj_;
    void (*invoke_)(const void *, std::int64_t);
};

namespace detail {

/** True while the current thread is a parallelFor worker. */
inline bool &
insideParallelWorker()
{
    thread_local bool inside = false;
    return inside;
}

/**
 * The startup worker cap (hardware concurrency clamped by BBS_THREADS),
 * resolved through the engine's single env parse path
 * (engine::EngineConfig::threadCapFromEnv, engine/engine_config.cpp).
 * This header no longer reads the environment itself.
 */
unsigned resolvedEnvThreadCap();

/** Runtime worker-cap override slot; 0 means "no override". */
inline std::atomic<unsigned> &
workerThreadCapOverride()
{
    static std::atomic<unsigned> cap{0};
    return cap;
}

/**
 * Run chunks of [0, n) on the persistent worker pool with @p helpers
 * pool threads assisting the calling thread. Returns false when the
 * pool is busy with another caller's job (fall back to spawning). In a
 * child forked after the pool started it runs the chunks serially.
 * Defined in common/parallel.cpp.
 */
bool poolRun(std::int64_t n, std::int64_t chunk, ParallelBody fn,
             unsigned helpers);

} // namespace detail

/**
 * Worker-count cap for every parallel primitive: hardware concurrency,
 * clamped by the BBS_THREADS environment variable when set to a positive
 * integer. BBS_THREADS is the deployment knob for co-located serving.
 *
 * The environment is read ONCE, on the first call (a thread-safe magic
 * static): the serving runtime hits this per batch, and getenv on that
 * hot path is both a needless syscall-ish cost and unsafe against
 * concurrent environment mutation. Runtime changes go through
 * setWorkerThreadCap() instead of the environment; scoped changes go
 * through an engine::Session's EngineConfig.
 */
inline unsigned
maxWorkerThreads()
{
    static const unsigned fromEnv = detail::resolvedEnvThreadCap();
    unsigned cap =
        detail::workerThreadCapOverride().load(std::memory_order_relaxed);
    if (cap > 0 && cap < fromEnv)
        return cap;
    return fromEnv;
}

/**
 * Cap the worker count at runtime (0 restores the cached BBS_THREADS /
 * hardware default). This replaces the old "flip BBS_THREADS between
 * calls" affordance the per-call getenv provided: tests and benchmarks
 * that want a temporary cap (e.g. a per-request baseline with intra-op
 * parallelism off) set it here, thread-safely, without touching the
 * environment.
 */
inline void
setWorkerThreadCap(unsigned cap)
{
    detail::workerThreadCapOverride().store(cap, std::memory_order_relaxed);
}

/**
 * The least work one parallelFor chunk carries, in element steps. A step
 * is one element through a loop's innermost body: a float quantized, an
 * INT8 value packed into bit planes, one activation plane window staged,
 * one stored weight bit against one activation (per-dot), one weight
 * plane word against a sample pair's 64-byte window block (stage 2). On
 * one core of a 4-vCPU AVX-512 VM each of these measured 1.3-4.5 ns, so
 * a chunk is at least about 11-37 us of work. There a pool job with one
 * helper cost 11-14 us of CPU and each further helper 6-7 us, so a
 * helper is given work only when the work pays for its wake-up.
 * Measured once; not tuned per host.
 */
inline constexpr std::int64_t kMinChunkWork = 8192;

/**
 * Iterations per parallelFor chunk for iterations of @p itemWork element
 * steps each (see kMinChunkWork): the fewest that reach the constant.
 */
constexpr std::int64_t
chunkForWork(std::int64_t itemWork)
{
    const std::int64_t w = std::max<std::int64_t>(itemWork, 1);
    return (kMinChunkWork + w - 1) / w;
}

/**
 * Run fn(i) for i in [0, n) across hardware threads.
 *
 * Work is handed out in contiguous chunks via an atomic counter, so
 * uneven iteration costs (e.g. different layer sizes) still balance. A
 * range of at most one chunk runs on the calling thread. Nested calls (a
 * parallel loop body invoking another parallel primitive) run serially:
 * a thread team per inner call would oversubscribe quadratically.
 *
 * @param n      iteration count
 * @param fn     body; must be safe to run concurrently for distinct i
 * @param chunk  iterations claimed per atomic fetch
 */
inline void
parallelFor(std::int64_t n, ParallelBody fn, std::int64_t chunk = 64)
{
    if (n <= 0)
        return;
    unsigned threads = maxWorkerThreads();
    if (threads <= 1 || n <= chunk || detail::insideParallelWorker()) {
        for (std::int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    unsigned count = std::min<unsigned>(
        threads, static_cast<unsigned>((n + chunk - 1) / chunk));
    // The persistent pool serves one job at a time with the caller
    // participating; count - 1 pool threads assist.
    if (detail::poolRun(n, chunk, fn, count - 1))
        return;

    // Pool busy (another thread's parallelFor is in flight): spawn a
    // one-shot team, exactly like the pre-pool implementation.
    std::atomic<std::int64_t> next{0};
    auto worker = [&]() {
        detail::insideParallelWorker() = true;
        for (;;) {
            std::int64_t begin = next.fetch_add(chunk);
            if (begin >= n)
                break;
            std::int64_t end = std::min(begin + chunk, n);
            for (std::int64_t i = begin; i < end; ++i)
                fn(i);
        }
        detail::insideParallelWorker() = false;
    };
    std::vector<std::thread> team;
    team.reserve(count);
    for (unsigned t = 0; t < count; ++t)
        team.emplace_back(worker);
    for (auto &th : team)
        th.join();
}

/**
 * Deterministic parallel reduction over [0, n).
 *
 * The range is split into fixed chunks of @p chunk iterations;
 * chunkFn(begin, end) computes each chunk's partial, and partials are
 * combined **in chunk order**, so the result is bitwise identical for any
 * thread count (unlike a naive atomic-accumulate of floating point).
 *
 * @param chunkFn  partial over [begin, end); safe to run concurrently
 * @param combine  associative combine of two partials
 */
template <typename T, typename ChunkFn, typename Combine>
T
parallelReduce(std::int64_t n, std::int64_t chunk, T init,
               const ChunkFn &chunkFn, const Combine &combine)
{
    if (n <= 0)
        return init;
    std::int64_t numChunks = (n + chunk - 1) / chunk;
    std::vector<T> partials(static_cast<std::size_t>(numChunks), init);
    parallelFor(numChunks, [&](std::int64_t ci) {
        std::int64_t begin = ci * chunk;
        std::int64_t end = std::min(begin + chunk, n);
        partials[static_cast<std::size_t>(ci)] = chunkFn(begin, end);
    }, /*chunk=*/1);
    T acc = init;
    for (const T &p : partials)
        acc = combine(acc, p);
    return acc;
}

} // namespace bbs

#endif // BBS_COMMON_PARALLEL_HPP
