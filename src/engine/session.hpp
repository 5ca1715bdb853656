/**
 * @file
 * Session — the engine facade's root object and the single source of
 * truth for runtime configuration.
 *
 * A Session owns an EngineConfig (worker-thread cap, SIMD dispatch
 * level, scratch-arena reservation) and exposes the whole compute
 * surface behind three verbs:
 *
 *   Session s;                                   // inherits process state
 *   auto w = s.pack(weights, {.targetColumns = 4});   // PackedOperand
 *   auto plan = s.plan(w, {.expectedBatch = 64});     // MatmulPlan
 *   Int32Tensor y = plan.run(activations);            // executes
 *
 * Every call made through a Session (dots, plan runs) sees that
 * Session's config scoped onto the runtime — replacing the scattered
 * BBS_THREADS/BBS_SIMD env reads and global setters as the way to steer
 * an individual workload. `defaultSession()` (inherit-everything config)
 * is what the engine free functions at the bottom of this header
 * delegate to.
 *
 * Sessions are immutable after construction and safe to share across
 * threads. Two sessions with *different* explicit configs racing on
 * separate threads see each other's settings (the underlying knobs are
 * process-global) — give concurrent heterogeneous workloads their own
 * process, not just their own Session.
 */
#ifndef BBS_ENGINE_SESSION_HPP
#define BBS_ENGINE_SESSION_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/dot_kernels.hpp"
#include "engine/engine_config.hpp"
#include "engine/packed_operand.hpp"
#include "engine/plan.hpp"

namespace bbs::engine {

class TuningCache;

/** Which executable form of the bit-serial dot product to run. */
enum class DotMethod
{
    Reference,      ///< dense per-element reference (Eq. 1)
    ZeroSkip,       ///< zero-bit skipping over packed planes (Eq. 2)
    ZeroSkipScalar, ///< per-element loop form of ZeroSkip (test pin)
    Bbs,            ///< bi-directional skipping over packed planes (Eq. 2/3)
    BbsScalar,      ///< per-element loop form of Bbs (test pin)
};

class Session
{
  public:
    /** Inherit-everything config: the process-wide thread cap and SIMD
     *  level, whatever they currently are (and the BBS_TUNE_CACHE
     *  tuning cache, when deployed). */
    Session();

    /**
     * Explicit config. Loads the tuning cache the config names (or
     * BBS_TUNE_CACHE when tuneCachePath is empty) here, once — plans
     * consult the loaded cache per run without any file IO. Loads are
     * memoized per path across Sessions; a missing or malformed cache
     * degrades to the hand heuristic with a one-time warning.
     */
    explicit Session(EngineConfig config);

    const EngineConfig &config() const { return config_; }

    /** The loaded tuning cache (nullptr = heuristic-only). */
    const std::shared_ptr<const TuningCache> &tuningCache() const
    {
        return tuneCache_;
    }

    /** Pack a dense INT8 matrix (activations, or uncompressed weights). */
    PackedOperand pack(const Int8Tensor &m) const;
    PackedOperand pack(std::span<const std::int8_t> values,
                       std::int64_t rows, std::int64_t cols) const;

    /** BBS-compress and pack a weight matrix at an operating point. */
    PackedOperand pack(const Int8Tensor &m, const PackOptions &opts) const;

    /**
     * Create an execution plan for @p weights. Resolves the dense repack
     * up front when the tiled kernel is in play, and pre-reserves the
     * calling thread's scratch arena from
     * max(hints.expectedBatch, config().scratchReserveRows).
     */
    MatmulPlan plan(PackedOperand weights, ShapeHints hints = {},
                    PlanOptions opts = {}) const;

    /**
     * The dot-product zoo behind one method: every executable form of
     * Eq. 1-3, selected by DotMethod. effectualOps / invertedColumns are
     * meaningful for the Bbs forms only (zero otherwise).
     */
    BbsDotResult dot(std::span<const std::int8_t> weights,
                     std::span<const std::int8_t> activations,
                     DotMethod method = DotMethod::Bbs) const;

    /**
     * Compressed-domain dot against one BBS group;
     * @p scalarReference selects the per-element pin form.
     */
    BbsDotResult dotCompressed(const CompressedGroup &cg,
                               std::span<const std::int8_t> activations,
                               bool scalarReference = false) const;

  private:
    EngineConfig config_;
    std::shared_ptr<const TuningCache> tuneCache_;
};

/**
 * The process-wide default Session (inherit-everything config) — the
 * one the engine free functions below delegate to.
 */
Session &defaultSession();

/**
 * One dot product through the default Session. effectualOps and
 * invertedColumns are meaningful for the Bbs forms only (zero otherwise).
 */
BbsDotResult dot(std::span<const std::int8_t> weights,
                 std::span<const std::int8_t> activations,
                 DotMethod method = DotMethod::Bbs);

/**
 * Compressed-domain dot against one BBS group through the default
 * Session; @p scalarReference selects the per-element pin form.
 */
BbsDotResult dotCompressed(const CompressedGroup &cg,
                           std::span<const std::int8_t> activations,
                           bool scalarReference = false);

/**
 * Dense bit-serial GEMM (activations [N, C] x weights [K, C] -> [N, K])
 * through a default-Session plan forced to the tiled bit-serial kind.
 */
Int32Tensor matmulBitSerial(const BitSerialMatrix &activations,
                            const BitSerialMatrix &weights);

/**
 * Compressed-domain GEMM through a default-Session plan forced to the
 * compressed-batched kind (bit-exact against the per-dot path).
 */
Int32Tensor matmulCompressed(const CompressedRowPlanes &weights,
                             const BitSerialMatrix &activations);

/**
 * One-line summary of the engine runtime an example or service banner
 * prints: active/max SIMD level, worker-thread cap, and the alignment
 * guarantees the kernels rely on.
 */
std::string runtimeSummary();

} // namespace bbs::engine

#endif // BBS_ENGINE_SESSION_HPP
