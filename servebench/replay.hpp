/**
 * @file
 * The traced per-layer replay: after a workload's measured window, the
 * benchmark calls each serving-path layer's public functions itself,
 * with a span around every call, and derives the per-layer metrics from
 * those spans. No span runs inside the program and none runs during the
 * measured window.
 */
#ifndef SERVEBENCH_REPLAY_HPP
#define SERVEBENCH_REPLAY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "stacks.hpp"
#include "util.hpp"

namespace servebench {

/** In-memory spans, written once at exit. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
        std::uint64_t request = 0;
    };

    int begin(std::string name, int parent = -1, std::uint64_t request = 0);
    /** Ends span @p id and returns its duration in microseconds. */
    double end(int id);

    /** JSON list of spans with microsecond start/end relative to the
     *  first span, and self time = duration minus the part covered by
     *  child spans. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** The host's AND+popcount rate over L1-resident planes
 *  (simdKernels().andPopcountAccumulate), Gwords/s: the roofline
 *  denominator. */
double simdCeiling(Tracer &tracer, int parent, int reps);

struct ReplayShape
{
    double chatDecodeContext = 0.0; ///< decode rows on chat
    double prefillPosition = 0.0;   ///< prefill rows of a long prompt
    double attentionContext = 0.0;  ///< chat's mean context
    int reps = 9;                   ///< timed calls per measurement
    int wirePairs = 80;             ///< wire vs in-process round trips
    std::uint64_t seed = 1;         ///< the run's seed: replayed tokens
};

/** The replay's own requests, each checked against its oracle. */
struct ReplayChecks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< failed connect or request, or a mismatch
};

/**
 * Run the replay and append every replay-derived per-layer metric to
 * @p out: simd, gemm, engine, nn, llm and net.wire_us_p50. @p classify
 * is a running classify stack (the wire comparison's server), @p rows
 * its input pool; the wire comparison's requests are tallied in
 * @p checks.
 */
void replayLayers(Tracer &tracer, ClassifyStack &classify,
                  const ClassifyPool &rows, const ReplayShape &shape,
                  MetricList &out, ReplayChecks &checks);

} // namespace servebench

#endif // SERVEBENCH_REPLAY_HPP
