/**
 * @file
 * EngineConfig — the single source of truth for the runtime knobs that
 * used to be scattered across env-var reads and global setters: the
 * worker-thread cap (BBS_THREADS / setWorkerThreadCap), the SIMD dispatch
 * level (BBS_SIMD / setSimdLevel), and the GEMM scratch-arena reservation.
 *
 * Both environment variables are parsed HERE and nowhere else:
 * common/parallel.hpp and simd/simd.cpp consume `threadCapFromEnv()` /
 * `simdLevelFromEnv()` instead of re-reading the environment themselves,
 * so there is exactly one tested parse path per knob.
 *
 * A default-constructed config *inherits* the process-wide state (it
 * never clobbers a runtime setWorkerThreadCap/setSimdLevel override);
 * `fromEnv()` snapshots what the environment requests explicitly.
 */
#ifndef BBS_ENGINE_ENGINE_CONFIG_HPP
#define BBS_ENGINE_ENGINE_CONFIG_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "engine/tuning.hpp"
#include "simd/simd.hpp"

namespace bbs::engine {

struct EngineConfig
{
    /**
     * Worker-thread cap for the parallel primitives while this config is
     * applied. 0 = inherit the process-wide cap (hardware concurrency,
     * clamped by BBS_THREADS / setWorkerThreadCap). A positive value can
     * lower the cap, never raise it above the BBS_THREADS ceiling
     * (setWorkerThreadCap semantics).
     */
    unsigned threadCap = 0;

    /**
     * SIMD dispatch level while this config is applied. nullopt = inherit
     * the active level. A set level must be CPU-supported
     * (simdLevelSupported); fromEnv() only ever produces supported levels.
     */
    std::optional<SimdLevel> simdLevel;

    /**
     * Scratch-arena pre-reservation hint: plans created through a
     * Session holding this config grow the GEMM stage-1 scratch arena to
     * hold this many activation rows — on the planning thread at
     * creation, and on each *executing* thread at its first
     * compressed-batched run (worker threads have their own arenas), so
     * small first batches already size the scratch for the largest one
     * to come. 0 = size on demand. Session::plan() takes the max of this
     * and the plan's own ShapeHints::expectedBatch.
     */
    std::int64_t scratchReserveRows = 0;

    /**
     * Kernel tuning parameters plans created through this config
     * execute with (GEMM depth blocking, register tiles). Defaults
     * derive the depth block from the detected cache topology; the
     * autotuner's measured winners override per shape class via the
     * tuning cache.
     */
    TuningParams tuning;

    /**
     * Persistent tuning-cache location a Session loads at creation.
     * "" = consult the BBS_TUNE_CACHE environment variable (unset ->
     * no cache); "none" = explicitly disabled even when the env var is
     * set (heuristic-only baselines while a cache is deployed).
     */
    std::string tuneCachePath;

    /**
     * Snapshot of what the environment explicitly requests: threadCap
     * from BBS_THREADS (0 when unset/invalid/uncapping), simdLevel from
     * BBS_SIMD (nullopt when unset; an unsupported request degrades to
     * the best supported level with a warning, so the snapshot is always
     * applicable).
     */
    static EngineConfig fromEnv();

    /**
     * Parse a BBS_THREADS-style cap: a positive integer below @p hw
     * clamps the worker count; anything else (null, malformed, zero,
     * negative, or >= hw) leaves it at @p hw.
     */
    static unsigned parseThreadCap(const char *env, unsigned hw);

    /**
     * Parse a BBS_SIMD value to a SimdLevel integer; -1 for unset or (with
     * a warning) an unrecognised string.
     */
    static int parseSimdLevel(const char *env);

    /**
     * The startup worker cap: hardware concurrency clamped by
     * BBS_THREADS. This is the one place the BBS_THREADS environment
     * variable is resolved; common/parallel.hpp caches it once.
     */
    static unsigned threadCapFromEnv();

    /**
     * The startup dispatch level: the highest CPU-supported level,
     * lowered (never raised) by BBS_SIMD. A request above what the CPU
     * supports degrades to the best supported level with a warning, so CI
     * matrices pinning BBS_SIMD pass on older runners. This is the one
     * place BBS_SIMD is resolved; simd/simd.cpp caches it once.
     */
    static SimdLevel simdLevelFromEnv();
};

/**
 * RAII application of an EngineConfig to the process-wide runtime state
 * (worker-cap override + active SIMD table) for the duration of one
 * engine call; the previous state is restored on destruction. Inherit
 * fields (threadCap 0 / simdLevel nullopt) touch nothing — the default
 * Session's calls cost two relaxed atomic loads here.
 *
 * The underlying knobs are process-global, so two sessions with
 * *different* explicit configs racing on separate threads see each
 * other's settings — same contract as the setWorkerThreadCap /
 * setSimdLevel primitives this scopes.
 */
class ScopedEngineConfig
{
  public:
    explicit ScopedEngineConfig(const EngineConfig &cfg);
    ~ScopedEngineConfig();

    ScopedEngineConfig(const ScopedEngineConfig &) = delete;
    ScopedEngineConfig &operator=(const ScopedEngineConfig &) = delete;

  private:
    unsigned prevCap_ = 0;
    SimdLevel prevSimd_ = SimdLevel::Scalar;
    bool capChanged_ = false;
    bool simdChanged_ = false;
};

} // namespace bbs::engine

#endif // BBS_ENGINE_ENGINE_CONFIG_HPP
