/**
 * @file
 * Dynamic micro-batching policy: coalesce queued single-sample requests
 * for one model into a GEMM-sized batch.
 *
 * A batch opens when the oldest live request is popped, and closes when
 * (a) it holds maxBatch requests, (b) it holds every request currently
 * live in the system (the "all-aboard" flush: every client is blocked on
 * this batch, so waiting longer can only add latency), or (c) maxDelayUs
 * microseconds have passed since it opened — the flush-on-timeout bound
 * on the latency cost any request pays for riding a batch. Requests for
 * other models stay queued, in order, for subsequent batches; a GEMM
 * batch never mixes models.
 */
#ifndef BBS_SERVE_BATCHER_HPP
#define BBS_SERVE_BATCHER_HPP

#include <cstdint>
#include <vector>

#include "serve/request_queue.hpp"

namespace bbs {

/** Batch-formation knobs (see README "Serving"). */
struct BatcherConfig
{
    /** Largest batch one batched forward executes. */
    std::int64_t maxBatch = 32;
    /**
     * Longest a batch waits for co-riders after its first request, in
     * microseconds. 0 = never wait: serve whatever is queued right now.
     */
    std::int64_t maxDelayUs = 2000;
};

class Batcher
{
  public:
    Batcher(RequestQueue &queue, BatcherConfig config);

    /**
     * Block for the next batch: 1..maxBatch same-model requests, oldest
     * first. An empty vector means the queue is shut down and drained —
     * the caller's serve loop should exit. Requests already claimed into
     * a batch when shutdown lands are still returned (and should be
     * served): only unclaimed queue contents are rejected.
     */
    std::vector<InferenceRequest> nextBatch();

    /**
     * nextBatch() into a caller-kept vector (cleared first, reserved to
     * maxBatch) — the serving worker's zero-allocation form: once the
     * vector has seen maxBatch capacity, forming further batches
     * allocates nothing.
     */
    void nextBatch(std::vector<InferenceRequest> &out);

    const BatcherConfig &config() const { return config_; }

  private:
    RequestQueue &queue_;
    BatcherConfig config_;
};

} // namespace bbs

#endif // BBS_SERVE_BATCHER_HPP
