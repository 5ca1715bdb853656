/**
 * @file
 * The concurrent inference runtime tying the serving layer together:
 *
 *   submit() -> ShardedQueue (route by model hash) -> per-shard Batcher
 *   (coalesce <= maxBatch, flush after maxDelayUs) -> worker pool -> one
 *   engine::MatmulPlan run per layer per batch -> per-request futures
 *   (or the submitAsync completion callback).
 *
 * The server holds per-model plans through the registry: every hosted
 * Int8Network prepares one MatmulPlan per layer at construction, and
 * execution is forward() with the per-row calibration policy — so every
 * response is bit-identical to running that request alone, and the
 * batch-of-1 fast path is the plan's Auto decision (per-dot at one row),
 * not batcher special-casing. Workers are plain threads; the GEMM inside
 * each batch additionally uses parallelFor, whose worker count honours
 * BBS_THREADS (resolved once through engine::EngineConfig) /
 * setWorkerThreadCap — with one server worker (the default), batches
 * execute sequentially with full intra-GEMM parallelism, which is the
 * throughput-optimal shape on a dedicated box.
 *
 * Sharding (the network-serving PR): the queue+batcher pair is
 * replicated `shards` times and requests route by hash of the model
 * name, so one hot model saturating its shard neither blocks other
 * models' submitters on its queue mutex nor consumes their admission
 * budget. shards = 1 (the default) is byte-for-byte the old single
 * queue. Admission control is opt-in via maxShardDepth: submit()
 * rejects with ServeStatus::Overloaded when the target shard is at its
 * depth bound, or — for deadline-carrying requests — when the shard's
 * observed service rate says the request would expire before a worker
 * reached it. Both reject-at-the-door paths keep an overloaded shard's
 * queue wait bounded instead of letting every accepted request pay the
 * full wait and then expire (deadline churn).
 */
#ifndef BBS_SERVE_SERVER_HPP
#define BBS_SERVE_SERVER_HPP

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/sharded_queue.hpp"
#include "serve/server_stats.hpp"

namespace bbs {

struct ServerConfig
{
    std::int64_t maxBatch = 32;   ///< requests per batched forward
    std::int64_t maxDelayUs = 2000; ///< flush-on-timeout bound
    /** Serving threads. 0 = none: drive manually with drainOnce()
     *  (deterministic tests). When > 0 the count is raised to at least
     *  `shards` so every shard has a dedicated drain thread (worker w
     *  drains shard w % shards). */
    int workers = 1;
    /** Queue+batcher shards (requests route by hash of the model name).
     *  1 = the classic single-queue server. */
    int shards = 1;
    /** Per-shard admission bound: a submit targeting a shard already
     *  holding this many queued requests is rejected with Overloaded
     *  instead of enqueued. 0 (default) = unbounded — no admission
     *  control, the pre-PR behavior. Enabling it also arms the
     *  deadline-aware shed (see InferenceServer::submit). */
    std::int64_t maxShardDepth = 0;
};

class InferenceServer
{
  public:
    /** Completion callback type of submitAsync (see
     *  InferenceRequest::onComplete for the threading contract). */
    using CompletionFn = std::function<void(InferenceResponse &&)>;

    /** Workers (if any) start immediately; the registry is shared so
     *  models can be added while serving. */
    explicit InferenceServer(std::shared_ptr<ModelRegistry> registry,
                             ServerConfig config = {});
    ~InferenceServer(); ///< stop()s

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Submit one sample for @p model. UnknownModel/BadInput resolve the
     * future immediately (as does an Overloaded admission rejection);
     * otherwise it resolves when the request is served, expires past
     * @p deadlineUs (relative, <= 0 = none), or the server stops.
     */
    std::future<InferenceResponse> submit(const std::string &model,
                                          std::vector<float> input,
                                          std::int64_t deadlineUs = 0);

    /**
     * submit() with callback delivery instead of a future: @p onComplete
     * receives the terminal response exactly once, from whichever thread
     * completes the request — immediately on the calling thread for
     * admission rejections (UnknownModel/BadInput/Overloaded/ShutDown),
     * else later from a serving worker or the shutdown path. This is the
     * socket front-end's entry point: an epoll loop cannot block on
     * futures, so the callback must be cheap and non-blocking (the net
     * layer just moves the response into a completion queue and signals
     * an eventfd).
     */
    void submitAsync(const std::string &model, std::vector<float> input,
                     std::int64_t deadlineUs, CompletionFn onComplete);

    /**
     * Serve one batch from @p shard synchronously on the calling thread
     * (blocks for the first request; honours the batching knobs).
     * Returns rows served — 0 means the queue shut down. Test/embedding
     * hook; safe alongside running workers, though normally used with
     * workers == 0.
     */
    std::int64_t drainOnce(std::size_t shard = 0);

    /**
     * Shut down: pending (unclaimed) requests are rejected with
     * ShutDown, in-flight batches complete normally, workers join.
     * Idempotent. Submissions after stop() resolve with ShutDown.
     */
    void stop();

    /** Execution stats merged with the queues' rejection counters. */
    StatsSnapshot stats() const;
    const ServerConfig &config() const { return config_; }
    const ModelRegistry &registry() const { return *registry_; }

    /** The sharded queue (shard routing, per-shard depth/tallies).
     *  Tests use this to claim requests and pin counting invariants;
     *  production code should not pop from it directly. */
    ShardedQueue &queues() { return shards_; }
    const ShardedQueue &queues() const { return shards_; }

    /** This server's metric registry (serving-layer series; the
     *  engine/pool series live in obs::Registry::global()). */
    obs::Registry &metrics() { return metrics_; }
    const obs::Registry &metrics() const { return metrics_; }

    /**
     * Prometheus text exposition of this server's registry, with the
     * process-global (engine/pool) series appended when
     * @p includeGlobal — one scrape shows the whole vertical.
     */
    std::string metricsText(bool includeGlobal = true) const;

    /** The per-request trace ring (submit → claimed → execute →
     *  complete spans for the most recent requests). */
    const obs::TraceRing &trace() const { return trace_; }

    /** Dump the trace ring as one JSON document (serve_demo
     *  --trace-dump, the soak harness). */
    void dumpTrace(std::ostream &out) const;

  private:
    /** Per-shard mutable hot state, cache-line isolated so one shard's
     *  drain loop never false-shares with another's. */
    struct alignas(64) ShardState
    {
        /** EMA of observed per-row service time (µs) on this shard; 0
         *  until the first batch completes. Written by drain threads
         *  (plain store — a lost update only delays the estimate by one
         *  batch), read by submitters for the deadline-aware shed. */
        std::atomic<double> emaRowUs{0.0};
    };

    /** Common tail of submit()/submitAsync(): validate, route, admit. */
    void submitImpl(InferenceRequest r);

    void workerLoop(std::size_t shard);
    /**
     * Execute one formed batch from @p shard and complete its requests.
     * Consumes the batch in place (the caller's reusable vector —
     * entries are moved-from afterwards): together with the per-thread
     * forward scratch and the presized response buffers, a warm worker
     * completes a request with zero heap allocations.
     */
    void execute(std::vector<InferenceRequest> &batch, std::size_t shard);

    /** Trace span for a request reaching its terminal state in the
     *  server (submit-side rejects, flush-time expiry, Ok). */
    void recordSpan(const InferenceRequest &r, ServeStatus status,
                    std::int32_t batchRows,
                    std::chrono::steady_clock::time_point execStart,
                    std::chrono::steady_clock::time_point done);

    std::shared_ptr<ModelRegistry> registry_;
    ServerConfig config_;
    /** Declared before stats_/shards_: they register metrics here. */
    obs::Registry metrics_;
    obs::TraceRing trace_;
    /** steady-clock zero of every trace-span timestamp. */
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> nextId_{1};
    ShardedQueue shards_;
    /** One batcher per shard (a batcher wraps exactly one queue). */
    std::vector<std::unique_ptr<Batcher>> batchers_;
    std::unique_ptr<ShardState[]> shardState_;
    ServerStats stats_;
    obs::Counter &submitted_; ///< all submit() calls, pre-validation
    std::vector<std::thread> workers_;
};

} // namespace bbs

#endif // BBS_SERVE_SERVER_HPP
