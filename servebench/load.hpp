/**
 * @file
 * The benchmark's load generator: one thread drives up to `nproc`
 * non-blocking TCP connections to a NetServer, each pipelining tagged
 * requests, in a closed loop (a slot sends its next request as soon as
 * the previous reply has ended). Every reply is checked against its
 * oracle as it arrives; only samples that end inside the measured window
 * count towards the timing metrics.
 *
 * One-shot requests start all at once. Stream slots start one at a time,
 * evenly over the first stream's length: slot k once slot 0 has received
 * k * (maxNew / slots) chunks, so closed-loop streams of equal length do
 * not start, and then finish, in lockstep.
 */
#ifndef SERVEBENCH_LOAD_HPP
#define SERVEBENCH_LOAD_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace servebench {

/** Classify inputs and the logits each must be answered with. */
struct ClassifyPool
{
    std::vector<std::vector<float>> rows;
    std::vector<std::vector<float>> logits; ///< oracle, per row
    std::vector<int> predicted;             ///< oracle argmax, per row
};

/** Whether a reply with Ok status @p ok carries exactly the oracle's
 *  logits for pool entry @p entry. */
bool matchesOracle(const ClassifyPool &pool, std::size_t entry, bool ok,
                   std::span<const float> logits);

/** Prompts and the greedy continuation each must stream back. */
struct PromptPool
{
    std::vector<std::vector<std::int32_t>> prompts;
    std::vector<std::vector<std::int32_t>> tokens; ///< oracle, per prompt
    std::uint32_t maxNew = 0;
    /** A short prompt and its first greedy token: the set-up request,
     *  kept short so set-up time does not depend on prompt length. */
    std::vector<std::int32_t> setupPrompt;
    std::int32_t setupToken = 0;
};

struct LoadSpec
{
    std::string model;
    int connections = 1;
    int depth = 1; ///< requests outstanding per connection
    /** Exactly one of these is set: Request/Response traffic or
     *  Generate/StreamChunk traffic. */
    const ClassifyPool *classify = nullptr;
    const PromptPool *generate = nullptr;
    double warmupSeconds = 1.0;
    double windowSeconds = 10.0;
    /** Load-thread hooks: at the window's edges, and about every 10 ms
     *  inside it. */
    std::function<void()> onWindowStart;
    std::function<void()> onWindowEnd;
    std::function<void()> onTick;
};

struct LoadResult
{
    std::uint64_t attempted = 0; ///< requests sent, every phase
    std::uint64_t failed = 0;    ///< non-Ok, oracle mismatch, transport
    std::uint64_t windowRequests = 0; ///< replies ended inside the window
    std::uint64_t windowTokens = 0;   ///< result tokens inside the window
    double windowSeconds = 0.0;
    /**
     * Process CPU time minus the load thread's, per reply and per result
     * token. Each is read at the first and the last reply (token) that
     * ends inside the window and divided by the replies (tokens) between
     * them, so a reply half done at either edge of the window does not
     * count as a whole one: chat ends only ~2 streams a second.
     */
    double cpuMsPerRequest = 0.0;
    double cpuMsPerToken = 0.0;
    std::uint64_t cpuRequests = 0; ///< replies the first rests on
    std::uint64_t cpuTokens = 0;   ///< tokens the second rests on
    std::vector<double> latencyMs; ///< send -> last frame of the reply
    std::vector<double> ttftMs;    ///< send -> first frame
    std::vector<double> itlMs;     ///< gaps between frames of one stream
    std::string firstError;
};

/** Drive @p spec against 127.0.0.1:@p port on the calling thread. */
LoadResult runLoad(std::uint16_t port, const LoadSpec &spec);

} // namespace servebench

#endif // SERVEBENCH_LOAD_HPP
