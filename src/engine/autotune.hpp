/**
 * @file
 * Measured plan autotuner + persistent tuning cache.
 *
 * For a (shape class, SIMD level, thread cap) key, the autotuner times
 * every executable plan kind — PerDot, TiledBitSerial (sweeping depth
 * blocks and register tiles), CompressedBatched — on representative
 * random operands and records the measured winner. Winners persist as a
 * JSON tuning cache (the bench `--json` record format plus a version
 * field); `Session` loads the cache at creation (BBS_TUNE_CACHE /
 * EngineConfig::tuneCachePath) and `MatmulPlan` consults it per run with
 * a nearest-shape-class lookup, falling back to the hand heuristic on a
 * miss — so a cold cache behaves exactly like the pre-autotuner engine,
 * and a corrupt cache degrades to it silently.
 *
 * Every candidate executes the same bit-exact arithmetic, so a tuned
 * decision can change only wall-clock time, never results (fuzz-pinned
 * by tests/test_autotune.cpp).
 */
#ifndef BBS_ENGINE_AUTOTUNE_HPP
#define BBS_ENGINE_AUTOTUNE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/plan.hpp"

namespace bbs::engine {

/** One measured winner: a shape-class key and its best execution. */
struct TuneEntry
{
    // ---- key
    std::string simd;     ///< SIMD level name at tuning time
    unsigned threads = 0; ///< worker cap at tuning time
    std::int64_t rows = 0;  ///< weight rows (output channels)
    std::int64_t depth = 0; ///< shared GEMM depth
    std::int64_t batch = 0; ///< activation rows
    double storedBits = 0.0; ///< operand mean stored bits

    // ---- measured winner
    PlanKind kind = PlanKind::Auto;
    std::int64_t depthBlockWords = 0; ///< 0 = topology default
    int tileRows = 2;
    int tileCols = 2;
    double seconds = 0.0; ///< winner's best-of-reps time
};

class TuningCache
{
  public:
    /** Cache-file format version; unknown versions fail load(). */
    static constexpr int kVersion = 1;

    std::vector<TuneEntry> entries;

    bool empty() const { return entries.empty(); }

    /** Whether any entry's measured winner is @p k (plan creation uses
     *  this to decide whether a tiled dense repack may be needed). */
    bool hasKind(PlanKind k) const;

    /**
     * Nearest-shape-class lookup: entries of the same SIMD level are
     * ranked by log-space shape distance (rows/depth/batch) plus a
     * stored-bits term and a thread-cap mismatch penalty; the closest
     * entry within the acceptance radius wins. nullptr = miss (callers
     * fall back to the heuristic).
     */
    const TuneEntry *lookup(std::int64_t rows, std::int64_t depth,
                            std::int64_t batch, double storedBits,
                            const char *simdName, unsigned threads) const;

    /** Write the cache as versioned JSON; false on IO failure. */
    bool save(const std::string &path) const;

    /**
     * Parse a cache file. Any defect — unreadable file, malformed JSON,
     * unknown version, bad record — returns false with @p out empty;
     * callers degrade to the heuristic, never error.
     */
    static bool load(const std::string &path, TuningCache &out);
};

/** Autotuning knobs. */
struct AutotuneOptions
{
    int reps = 3;   ///< timed repetitions per candidate (best-of)
    int warmup = 1; ///< untimed warmup runs per candidate
    /** BBS compression operating point of the synthetic weights. */
    std::int64_t groupSize = 32;
    int targetColumns = 3;
};

/** One shape class to tune. */
struct TuneShape
{
    std::int64_t rows = 0;
    std::int64_t depth = 0;
    std::int64_t batch = 0;
};

/**
 * Measure one shape class: times each executable kind (and the depth
 * block / register tile sweep for the tiled kernel) on random operands
 * and returns the winner, verified bit-identical across candidates.
 */
TuneEntry autotuneShape(const TuneShape &shape,
                        const AutotuneOptions &opts = {});

/**
 * The default suite: the bench/serving shape classes (rows x depth in
 * {64, 256} x {256, 512}, batches {1, 8, 64, 256}), tuned with
 * autotuneShape. This is what `bbs_cli autotune` runs.
 */
TuningCache autotuneSuite(const AutotuneOptions &opts = {});

/** Custom-suite form of autotuneSuite. */
TuningCache autotuneShapes(const std::vector<TuneShape> &shapes,
                           const AutotuneOptions &opts = {});

namespace detail {

/**
 * Memoized shared load keyed by path (Sessions under a deployed
 * BBS_TUNE_CACHE would otherwise re-read the file per construction).
 * nullptr when the file is absent or malformed — warned once per path.
 */
std::shared_ptr<const TuningCache>
loadTuningCacheShared(const std::string &path);

/** Resolve a config's cache path: "" -> BBS_TUNE_CACHE env (may still
 *  be empty), "none" -> disabled (""). */
std::string resolveTuneCachePath(const std::string &configured);

} // namespace detail

} // namespace bbs::engine

#endif // BBS_ENGINE_AUTOTUNE_HPP
