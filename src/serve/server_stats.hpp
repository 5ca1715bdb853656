/**
 * @file
 * Serving telemetry: per-request latency percentiles, the batch-size
 * histogram (did batching actually happen?), rejection counters, and
 * sustained throughput.
 *
 * The counters and fixed-bucket histograms live in an obs::Registry
 * (relaxed atomics, Prometheus-exposable — see common/metrics.hpp);
 * ServerStats is the serving-layer facade that registers them and
 * answers the snapshot() API callers of InferenceServer::stats() read.
 * Every field is derived from those registry series, so recording a
 * completion is a few relaxed atomic updates and takes no lock.
 */
#ifndef BBS_SERVE_SERVER_STATS_HPP
#define BBS_SERVE_SERVER_STATS_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "serve/request.hpp"

namespace bbs {

/** One consistent reading of the counters. */
struct StatsSnapshot
{
    std::uint64_t completed = 0;        ///< requests served Ok
    std::uint64_t expired = 0;          ///< DeadlineExpired rejections
    std::uint64_t shutdownRejected = 0; ///< ShutDown rejections
    std::uint64_t badRequests = 0;      ///< UnknownModel + BadInput
    std::uint64_t overloaded = 0;       ///< Overloaded admission sheds
    std::uint64_t batches = 0;          ///< executed batches

    /**
     * Submit->completion percentiles over every Ok completion since
     * start, estimated from the bbs_serve_latency_us histogram
     * (obs::histogramQuantile: linear interpolation within the owning
     * bucket, so bucket resolution rather than exact).
     */
    double p50Us = 0.0;
    double p99Us = 0.0;
    /** Mean submit->batch-start wait, from the bbs_serve_queue_wait_us
     *  histogram's sum and count. */
    double meanQueueUs = 0.0;

    /** batchHist[n] = how many batches held exactly n requests
     *  (index 0 unused; size maxBatch + 1). */
    std::vector<std::uint64_t> batchHist;
    double meanBatchRows = 0.0;

    /** Requests sitting in the queue when the snapshot was taken (set
     *  by InferenceServer::stats(); 0 for a bare ServerStats). */
    std::uint64_t queueDepth = 0;

    double elapsedS = 0.0;       ///< since construction
    double throughputRps = 0.0;  ///< completed / elapsedS
};

class ServerStats
{
  public:
    /**
     * Registers the serving metrics in @p registry (the owning server's
     * instance registry, so multi-server processes keep exact per-server
     * series); with nullptr a private registry is created (bare
     * ServerStats in tests).
     */
    explicit ServerStats(std::int64_t maxBatch,
                         obs::Registry *registry = nullptr);

    /** Record one Ok completion. */
    void recordCompletion(double queueUs, double totalUs);
    /** Record one executed batch of @p rows requests. */
    void recordBatch(std::int64_t rows);
    /** Record a rejection (terminal non-Ok status). */
    void recordRejection(ServeStatus status);

    StatsSnapshot snapshot() const;

  private:
    std::unique_ptr<obs::Registry> owned_; ///< when none was passed in
    obs::Registry &registry_;

    // Registered metrics (stable refs; the registry outlives us).
    obs::Counter &completed_;
    obs::Counter &expired_;
    obs::Counter &shutdownRejected_;
    obs::Counter &badRequests_;
    obs::Counter &overloaded_;
    obs::Counter &batches_;
    obs::Histogram &batchRows_;  ///< unit buckets 1..maxBatch (exact)
    obs::Histogram &latencyUs_;
    obs::Histogram &queueWaitUs_;

    const std::chrono::steady_clock::time_point start_;
};

} // namespace bbs

#endif // BBS_SERVE_SERVER_STATS_HPP
