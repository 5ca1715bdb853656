/**
 * @file
 * MatmulPlan — a prepared decision about *how* to execute
 * activations x packed-weights, created once via `Session::plan()` and
 * executed with `run()`.
 *
 * The plan picks among the library's three executable matmul forms:
 *
 *  - **PerDot**: the per-(sample, channel) compressed-domain dot loop —
 *    nothing to amortize an activation pack over, so it wins at batch 1
 *    (the serving fast path is this plan decision, not batcher
 *    special-casing);
 *  - **TiledBitSerial**: the dense 2x1x2 AND+popcount register-tile GEMM
 *    — for dense operands, and for "compressed" operands whose groups
 *    kept all 8 columns (compression was a no-op, so the group-windowed
 *    kernel pays overhead for nothing);
 *  - **CompressedBatched**: the batched compressed-domain GEMM (stage-1
 *    window staging shared by every weight row).
 *
 * Selection reads the batch size and the operand's stored-bit sparsity
 * through fixed rules (selectKind), unless a loaded tuning cache holds a
 * measured winner for the shape class; `PlanOptions::force` is the
 * explicit-override escape hatch. All three kinds are bit-identical on
 * the same operands (the test suite pins this), so the choice is purely
 * a performance decision.
 */
#ifndef BBS_ENGINE_PLAN_HPP
#define BBS_ENGINE_PLAN_HPP

#include <cstdint>
#include <memory>

#include "engine/engine_config.hpp"
#include "engine/packed_operand.hpp"

namespace bbs::engine {

class TuningCache;
struct TuneEntry;

/** Execution form of a matmul plan. */
enum class PlanKind
{
    Auto = 0,          ///< resolve from batch size + operand sparsity
    PerDot,            ///< per-(sample, channel) compressed-domain dots
    TiledBitSerial,    ///< dense 2x1x2 AND+popcount register-tile GEMM
    CompressedBatched, ///< batched compressed-domain GEMM
};

/** "auto" / "per-dot" / "tiled-bit-serial" / "compressed-batched". */
const char *planKindName(PlanKind k);

/**
 * Activation-scale calibration policy for integer inference
 * (Int8Network::forward): the axis that used to be three separate
 * forward* entry points.
 */
enum class Calibration
{
    PerBatch = 0, ///< one shared scale per batch (offline evaluation)
    PerRow,       ///< per-sample scales: a row's logits never depend on
                  ///< its co-batched rows (the serving contract)
};

/** Workload shape hints a plan is created against. */
struct ShapeHints
{
    /**
     * Expected activation rows per run (a server's maxBatch, an
     * evaluator's mini-batch). The plan pre-reserves the planning
     * thread's scratch arena at creation and grows the *executing*
     * thread's arena to this many rows on every compressed-batched run,
     * so a fresh worker thread's first (possibly small) batch already
     * sizes the scratch for the largest one to come. 0 = unknown.
     */
    std::int64_t expectedBatch = 0;
};

/** Plan-creation options. */
struct PlanOptions
{
    /** Explicit execution override; Auto lets the plan decide per run. */
    PlanKind force = PlanKind::Auto;
};

class MatmulPlan
{
  public:
    MatmulPlan() = default;

    bool valid() const { return !weights_.empty(); }
    const PackedOperand &weights() const { return weights_; }
    const ShapeHints &hints() const { return hints_; }
    PlanKind forcedKind() const { return options_.force; }

    /** The kind a run with @p batch activation rows executes. */
    PlanKind kindForBatch(std::int64_t batch) const;

    /**
     * The selection heuristic a plan falls back to without a tuning-cache
     * hit (also what `bbs_cli engine-info` prints): dense operands
     * always take the tiled kernel; compressed operands take per-dot at
     * batch <= 1 (nothing amortizes the activation pack), the tiled
     * kernel when compression removed no columns (meanStoredBits >=
     * kWeightBits), and the compressed-batched kernel otherwise.
     */
    static PlanKind selectKind(std::int64_t batch, bool compressedWeights,
                               double meanStoredBits);

    /**
     * Execute on an unpacked INT8 activation batch [N, C] -> out [N, K].
     * @p out is reshaped only when its shape differs (serving loops reuse
     * the buffer). Requires C == weights().cols() and
     * C <= kMaxGemmDepth (the INT32 output guarantee).
     */
    void run(const Int8Tensor &activations, Int32Tensor &out) const;
    Int32Tensor run(const Int8Tensor &activations) const;

    /**
     * Execute on a prepacked dense activation operand (callers that pack
     * once and run several plans). Resolves Auto from the operand's
     * rows; PerDot needs element access and rejects packed activations.
     */
    void run(const PackedOperand &activations, Int32Tensor &out) const;

    /** The escape hatch: run with an explicit kind, overriding both the
     *  plan's forced kind and Auto resolution. */
    void runAs(PlanKind kind, const Int8Tensor &activations,
               Int32Tensor &out) const;

  private:
    friend class Session;

    /** A per-run decision: the kind plus the kernel parameters it
     *  executes with (a tuning-cache hit overrides the config's). */
    struct Resolved
    {
        PlanKind kind = PlanKind::Auto;
        TuningParams tuning;
    };

    /**
     * Resolve the execution for @p batch rows: explicit force, else the
     * tuning cache's nearest measured winner (when loaded and the cached
     * kind is executable for these weights), else the heuristic.
     * @p countTune: whether this resolution lands in the tune-cache
     * hit/miss/fallback metrics — run() paths count, the introspective
     * kindForBatch() does not (it resolves without executing).
     */
    Resolved resolveForBatch(std::int64_t batch,
                             bool countTune = true) const;

    void execute(PlanKind kind, const TuningParams &tuning,
                 const Int8Tensor *raw, const BitSerialMatrix *packed,
                 Int32Tensor &out) const;

    PackedOperand weights_;
    /** Dense repack of compressed weights, built at plan creation when
     *  the tiled kernel is (or may be) selected for them. */
    std::shared_ptr<const BitSerialMatrix> denseRepack_;
    ShapeHints hints_;
    PlanOptions options_;
    EngineConfig config_; ///< session snapshot, applied around runs
    /** True when config_ would change nothing (thread cap 0, no SIMD
     *  override): execute() then skips the ScopedEngineConfig entirely —
     *  the decision is hoisted to plan creation instead of being
     *  re-derived from atomics on every run. */
    bool configInert_ = true;
    /** The Session's loaded tuning cache (nullptr = heuristic only). */
    std::shared_ptr<const TuningCache> tuneCache_;
    /** max(hints.expectedBatch, config.scratchReserveRows): every
     *  compressed-batched run grows the executing thread's arena to at
     *  least this many rows, so the first small batch on a fresh worker
     *  thread already sizes the scratch for the largest one to come. */
    std::int64_t scratchReserveRows_ = 0;
};

} // namespace bbs::engine

#endif // BBS_ENGINE_PLAN_HPP
