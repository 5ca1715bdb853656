#include "serve/request_queue.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bbs {

std::vector<RequestQueue::Rejection> &
RequestQueue::rejectionScratch()
{
    static thread_local std::vector<Rejection> scratch;
    return scratch;
}

void
RequestQueue::decrementLive(const std::string &model, std::int64_t n)
{
    auto it = liveByModel_.find(model);
    if (it == liveByModel_.end())
        return; // markCompleted for a request this queue never counted
    it->second -= n;
    if (it->second <= 0)
        liveByModel_.erase(it);
}

void
RequestQueue::observe(obs::Gauge *depth, obs::TraceRing *trace,
                      std::chrono::steady_clock::time_point epoch,
                      obs::Counter *expired, obs::Counter *shutdownRejected,
                      obs::Counter *overloaded)
{
    std::lock_guard<std::mutex> lock(mutex_);
    depthGauge_ = depth;
    trace_ = trace;
    epoch_ = epoch;
    expiredCounter_ = expired;
    shutdownCounter_ = shutdownRejected;
    overloadedCounter_ = overloaded;
    if (depthGauge_)
        depthGauge_->set(static_cast<std::int64_t>(queue_.size()));
}

void
RequestQueue::setMaxDepth(std::int64_t maxDepth)
{
    BBS_REQUIRE(maxDepth >= 0, "maxDepth must be >= 0, got ", maxDepth);
    std::lock_guard<std::mutex> lock(mutex_);
    maxDepth_ = maxDepth;
}

void
RequestQueue::publishDepth()
{
    if (depthGauge_)
        depthGauge_->set(static_cast<std::int64_t>(queue_.size()));
}

void
RequestQueue::completeRejections(std::vector<Rejection> &rejected)
{
    // mutex_ is NOT held here: set_value/onComplete wakes waiters and
    // the trace ring takes its own mutex — neither nests inside the
    // queue lock (see file comment). The shared counters are relaxed
    // atomics, safe from any thread.
    //
    // An onComplete callback may call back into a queue on this thread
    // (submit-on-completion), which would land new rejections in the
    // same thread_local scratch — steal the buffer first so nested
    // pushes never mutate the vector being iterated. The emptied buffer
    // is handed back afterwards (nested calls have completed theirs), so
    // the scratch keeps its capacity and the steady state stays
    // allocation-free.
    if (rejected.empty())
        return;
    std::vector<Rejection> local;
    local.swap(rejected);
    for (Rejection &rej : local) {
        if (rej.status == ServeStatus::DeadlineExpired && expiredCounter_)
            expiredCounter_->inc();
        else if (rej.status == ServeStatus::ShutDown && shutdownCounter_)
            shutdownCounter_->inc();
        else if (rej.status == ServeStatus::Overloaded &&
                 overloadedCounter_)
            overloadedCounter_->inc();
        InferenceResponse resp;
        resp.status = rej.status;
        auto now = std::chrono::steady_clock::now();
        resp.queueUs = microsBetween(rej.r.enqueued, now);
        resp.totalUs = resp.queueUs;
        rej.r.complete(std::move(resp));
        if (trace_) {
            obs::TraceSpan span;
            span.id = rej.r.id;
            span.setModel(rej.r.model);
            span.status = static_cast<int>(rej.status);
            span.submitUs = microsBetween(epoch_, rej.r.enqueued);
            span.doneUs = microsBetween(epoch_, now);
            trace_->record(span);
        }
    }
    local.clear();
    rejected.swap(local);
}

PushResult
RequestQueue::tryPush(InferenceRequest r)
{
    std::vector<Rejection> &rejected = rejectionScratch();
    PushResult result = PushResult::Ok;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_) {
            ++shutdownRejected_;
            rejected.push_back({std::move(r), ServeStatus::ShutDown});
            result = PushResult::ShutDown;
        } else if (maxDepth_ > 0 &&
                   static_cast<std::int64_t>(queue_.size()) >= maxDepth_) {
            ++overloaded_;
            rejected.push_back({std::move(r), ServeStatus::Overloaded});
            result = PushResult::Overloaded;
        } else {
            ++liveByModel_[r.model];
            queue_.push_back(std::move(r));
            ++arrivals_;
            publishDepth();
        }
    }
    if (result == PushResult::Ok)
        cv_.notify_all();
    else
        completeRejections(rejected);
    return result;
}

bool
RequestQueue::push(InferenceRequest r)
{
    return tryPush(std::move(r)) == PushResult::Ok;
}

std::optional<InferenceRequest>
RequestQueue::waitFront()
{
    std::vector<Rejection> &rejected = rejectionScratch();
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
        auto now = std::chrono::steady_clock::now();
        while (!queue_.empty() && queue_.front().deadline <= now) {
            ++expired_;
            decrementLive(queue_.front().model, 1);
            rejected.push_back(
                {std::move(queue_.front()), ServeStatus::DeadlineExpired});
            queue_.pop_front();
        }
        if (!queue_.empty()) {
            InferenceRequest r = std::move(queue_.front());
            queue_.pop_front();
            publishDepth();
            r.claimed = now;
            if (!rejected.empty()) {
                lock.unlock();
                completeRejections(rejected);
            }
            return r;
        }
        publishDepth(); // expiry pops above may have drained it
        if (shutdown_) {
            if (!rejected.empty()) {
                lock.unlock();
                completeRejections(rejected);
            }
            return std::nullopt;
        }
        // Everything queued had expired: complete those rejections with
        // the lock dropped, then wait for fresh work.
        if (!rejected.empty()) {
            lock.unlock();
            completeRejections(rejected);
            lock.lock();
        }
    }
}

std::vector<InferenceRequest>
RequestQueue::popModel(const std::string &model, std::int64_t maxCount,
                       std::uint64_t &version)
{
    std::vector<InferenceRequest> out;
    popModelInto(model, maxCount, version, out);
    return out;
}

std::int64_t
RequestQueue::popModelInto(const std::string &model, std::int64_t maxCount,
                           std::uint64_t &version,
                           std::vector<InferenceRequest> &out)
{
    std::vector<Rejection> &rejected = rejectionScratch();
    std::int64_t appended = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        version = arrivals_;
        if (maxCount <= 0)
            return appended;
        auto now = std::chrono::steady_clock::now();
        for (auto it = queue_.begin();
             it != queue_.end() && appended < maxCount;) {
            if (it->deadline <= now) {
                ++expired_;
                decrementLive(it->model, 1);
                rejected.push_back(
                    {std::move(*it), ServeStatus::DeadlineExpired});
                it = queue_.erase(it);
            } else if (it->model == model) {
                it->claimed = now;
                out.push_back(std::move(*it));
                ++appended;
                it = queue_.erase(it);
            } else {
                ++it;
            }
        }
        publishDepth();
    }
    if (!rejected.empty())
        completeRejections(rejected);
    return appended;
}

bool
RequestQueue::waitArrival(std::uint64_t version,
                          std::chrono::steady_clock::time_point until)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_until(lock, until,
                   [&] { return shutdown_ || arrivals_ > version; });
    return !shutdown_ && arrivals_ > version;
}

void
RequestQueue::shutdown()
{
    std::vector<Rejection> &rejected = rejectionScratch();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
        shutdownRejected_ += queue_.size();
        for (InferenceRequest &r : queue_) {
            decrementLive(r.model, 1);
            rejected.push_back({std::move(r), ServeStatus::ShutDown});
        }
        queue_.clear();
        publishDepth();
    }
    cv_.notify_all();
    completeRejections(rejected);
}

std::int64_t
RequestQueue::liveCount(const std::string &model) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = liveByModel_.find(model);
    return it == liveByModel_.end() ? 0 : it->second;
}

void
RequestQueue::markCompleted(const std::string &model, std::int64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    decrementLive(model, n);
}

void
RequestQueue::markExpired(const std::string &model, std::int64_t n)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        expired_ += static_cast<std::uint64_t>(n);
        decrementLive(model, n);
    }
    if (expiredCounter_)
        expiredCounter_->inc(static_cast<std::uint64_t>(n));
}

bool
RequestQueue::isShutdown() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shutdown_;
}

std::size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

std::uint64_t
RequestQueue::expiredCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return expired_;
}

std::uint64_t
RequestQueue::shutdownCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shutdownRejected_;
}

std::uint64_t
RequestQueue::overloadedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overloaded_;
}

} // namespace bbs
