#include "serve/server_stats.hpp"

#include <numeric>

#include "common/logging.hpp"
#include "obs/exposition.hpp"

namespace bbs {

namespace {

/** Unit bucket bounds 1..maxBatch: batch sizes are small integers, so
 *  exact buckets reproduce the classic batchHist losslessly. */
std::vector<double>
unitBounds(std::int64_t maxBatch)
{
    std::vector<double> b(static_cast<std::size_t>(maxBatch));
    std::iota(b.begin(), b.end(), 1.0);
    return b;
}

} // namespace

ServerStats::ServerStats(std::int64_t maxBatch, obs::Registry *registry)
    : owned_(registry ? nullptr : new obs::Registry),
      registry_(registry ? *registry : *owned_),
      completed_(registry_.counter("bbs_serve_requests_completed_total",
                                   "Requests served Ok")),
      expired_(registry_.counter("bbs_serve_requests_expired_total",
                                 "DeadlineExpired rejections")),
      shutdownRejected_(registry_.counter(
          "bbs_serve_requests_shutdown_total", "ShutDown rejections")),
      badRequests_(registry_.counter(
          "bbs_serve_requests_bad_total",
          "UnknownModel and BadInput rejections")),
      overloaded_(registry_.counter(
          "bbs_serve_requests_overloaded_total",
          "Overloaded admission rejections (depth bound or deadline "
          "shed)")),
      batches_(registry_.counter("bbs_serve_batches_total",
                                 "Executed GEMM batches")),
      batchRows_(registry_.histogram("bbs_serve_batch_rows",
                                     unitBounds(maxBatch),
                                     "Requests per executed batch")),
      latencyUs_(registry_.histogram("bbs_serve_latency_us",
                                     obs::Histogram::latencyBoundsUs(),
                                     "Submit to completion, microseconds")),
      queueWaitUs_(registry_.histogram(
          "bbs_serve_queue_wait_us", obs::Histogram::latencyBoundsUs(),
          "Submit to batch execution start, microseconds")),
      start_(std::chrono::steady_clock::now())
{
    BBS_REQUIRE(maxBatch >= 1, "maxBatch must be >= 1, got ", maxBatch);
}

void
ServerStats::recordCompletion(double queueUs, double totalUs)
{
    completed_.inc();
    latencyUs_.observe(totalUs);
    queueWaitUs_.observe(queueUs);
}

void
ServerStats::recordBatch(std::int64_t rows)
{
    batches_.inc();
    batchRows_.observe(static_cast<double>(rows));
}

void
ServerStats::recordRejection(ServeStatus status)
{
    switch (status) {
    case ServeStatus::DeadlineExpired: expired_.inc(); break;
    case ServeStatus::ShutDown: shutdownRejected_.inc(); break;
    case ServeStatus::UnknownModel:
    case ServeStatus::BadInput: badRequests_.inc(); break;
    case ServeStatus::Overloaded: overloaded_.inc(); break;
    case ServeStatus::Ok: break; // not a rejection; ignore
    }
}

StatsSnapshot
ServerStats::snapshot() const
{
    StatsSnapshot s;
    s.completed = completed_.value();
    s.expired = expired_.value();
    s.shutdownRejected = shutdownRejected_.value();
    s.badRequests = badRequests_.value();
    s.overloaded = overloaded_.value();
    s.batches = batches_.value();

    // batchHist reconstructed from the unit-bucket histogram: bound n
    // (inclusive) is bucket index n-1, so hist[n] = bucketCount(n-1).
    // rows is always within 1..maxBatch, so the +Inf tail stays empty.
    std::size_t maxBatch = batchRows_.bounds().size();
    s.batchHist.assign(maxBatch + 1, 0);
    for (std::size_t n = 1; n <= maxBatch; ++n)
        s.batchHist[n] = batchRows_.bucketCount(n - 1);
    std::uint64_t batchCount = batchRows_.count();
    if (batchCount > 0)
        s.meanBatchRows = batchRows_.sum() /
                          static_cast<double>(batchCount);

    // Bucket-derived percentiles over the full run: one read of each
    // bucket, like a scrape (histogramQuantile totals what it walks).
    obs::MetricSnapshot hist;
    hist.type = obs::MetricSnapshot::Type::Histogram;
    hist.bounds = latencyUs_.bounds();
    hist.bucketCounts.resize(hist.bounds.size() + 1);
    for (std::size_t i = 0; i < hist.bucketCounts.size(); ++i)
        hist.bucketCounts[i] = latencyUs_.bucketCount(i);
    s.p50Us = obs::histogramQuantile(hist, 0.50);
    s.p99Us = obs::histogramQuantile(hist, 0.99);

    std::uint64_t queued = queueWaitUs_.count();
    if (queued > 0)
        s.meanQueueUs = queueWaitUs_.sum() / static_cast<double>(queued);
    s.elapsedS = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
    if (s.elapsedS > 0.0)
        s.throughputRps = static_cast<double>(s.completed) / s.elapsedS;
    return s;
}

} // namespace bbs
