/**
 * @file
 * Request/response types of the serving runtime.
 *
 * A request is one sample for one named model, with an optional absolute
 * deadline. The runtime coalesces concurrent requests into GEMM batches
 * (serve/batcher.hpp), but every response is computed with per-row
 * activation calibration (Calibration::PerRow), so a request's logits
 * are bit-identical to running it alone through the per-dot plan kind —
 * batching is invisible except in latency/throughput.
 */
#ifndef BBS_SERVE_REQUEST_HPP
#define BBS_SERVE_REQUEST_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "nn/int8_infer.hpp"

namespace bbs {

/** Terminal state of a request. */
enum class ServeStatus
{
    Ok,              ///< executed; logits/predicted are valid
    DeadlineExpired, ///< still queued past its deadline; never executed
    ShutDown,        ///< server stopped before the request was scheduled
    UnknownModel,    ///< no registered model under that name
    BadInput,        ///< input width != the model's inputFeatures()
    /** Shed at admission: the target shard's queue was at its depth
     *  bound, or the estimated queueing delay already exceeded the
     *  request's deadline. Rejecting HERE — before the request consumes
     *  queue space — is what keeps an overloaded shard's latency bounded
     *  instead of letting every queued request expire after paying the
     *  full wait (see README "Network serving"). */
    Overloaded,
};

/** Human-readable status name (logs, test failure messages). */
const char *serveStatusName(ServeStatus s);

/** Microseconds between two steady_clock readings (latency fields). */
inline double
microsBetween(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/**
 * Argmax over logits, first max wins; -1 when empty. The empty case is
 * the zero-width-output guard: InferenceResponse::predicted must never
 * come from indexing logits[0] of a model with no output classes.
 */
inline int
argmaxLogits(const std::vector<float> &logits)
{
    int best = -1;
    for (std::size_t i = 0; i < logits.size(); ++i)
        if (best < 0 || logits[i] > logits[static_cast<std::size_t>(best)])
            best = static_cast<int>(i);
    return best;
}

/** What the submitter's future resolves to. */
struct InferenceResponse
{
    ServeStatus status = ServeStatus::Ok;
    std::vector<float> logits; ///< empty unless status == Ok
    int predicted = -1;        ///< argmax over logits (first max wins)
    std::int64_t batchRows = 0; ///< size of the batch this request rode in
    double queueUs = 0.0;  ///< submit -> batch execution start
    double totalUs = 0.0;  ///< submit -> response completion
};

/**
 * A queued request (internal to the runtime; submitters only see the
 * future). The engine pointer is resolved from the ModelRegistry at
 * submit time so a batch never needs the registry lock, and so a model
 * replaced mid-flight keeps serving in-queue requests consistently.
 */
struct InferenceRequest
{
    /** Per-server monotonically increasing id (trace-span correlation). */
    std::uint64_t id = 0;
    std::string model;
    std::vector<float> input;
    /**
     * Response logits storage, sized to the model's outputFeatures() on
     * the SUBMITTING thread (submit() knows the engine by then). The
     * executor moves it into the response and fills it in place, so the
     * serving worker allocates nothing per request.
     */
    std::vector<float> logitsBuffer;
    std::shared_ptr<const Int8Network> engine;
    std::chrono::steady_clock::time_point enqueued;
    /** When the queue handed this request to a batch; min() until then
     *  (trace spans show queued-but-never-claimed as claimed_us = -1). */
    std::chrono::steady_clock::time_point claimed =
        std::chrono::steady_clock::time_point::min();
    /** steady_clock::time_point::max() means "no deadline". */
    std::chrono::steady_clock::time_point deadline;
    std::promise<InferenceResponse> promise;
    /**
     * When set, the terminal state is delivered by CALLING this instead
     * of fulfilling `promise` — the asynchronous completion path the
     * socket front-end uses (an epoll loop cannot block on futures).
     * Invoked exactly once, from whichever thread completes the request
     * (a serving worker, the submitting thread for immediate rejections,
     * or the thread driving shutdown); it must be cheap and non-blocking
     * — the net layer's callback just moves the response into a
     * completion queue and signals an eventfd.
     */
    std::function<void(InferenceResponse &&)> onComplete;

    /** Deliver the terminal state: through onComplete when set, else
     *  through the promise. Every completion site in the runtime goes
     *  through here so both delivery paths see identical semantics. */
    void
    complete(InferenceResponse &&resp)
    {
        if (onComplete)
            onComplete(std::move(resp));
        else
            promise.set_value(std::move(resp));
    }
};

} // namespace bbs

#endif // BBS_SERVE_REQUEST_HPP
