/**
 * @file
 * Session implementation, plus the engine free functions over the
 * default Session — each funnels through the plans defined here.
 */
#include "engine/session.hpp"

#include <sstream>

#include "common/aligned.hpp"
#include "common/bit_utils.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "engine/autotune.hpp"
#include "engine/scratch.hpp"
#include "gemm/bit_serial_matrix.hpp"

namespace bbs::engine {

Session::Session() : Session(EngineConfig{}) {}

Session::Session(EngineConfig config) : config_(std::move(config))
{
    std::string path =
        detail::resolveTuneCachePath(config_.tuneCachePath);
    if (!path.empty())
        tuneCache_ = detail::loadTuningCacheShared(path);
}

PackedOperand
Session::pack(const Int8Tensor &m) const
{
    ScopedEngineConfig scope(config_);
    return PackedOperand::packDense(m);
}

PackedOperand
Session::pack(std::span<const std::int8_t> values, std::int64_t rows,
              std::int64_t cols) const
{
    ScopedEngineConfig scope(config_);
    return PackedOperand::packDense(values, rows, cols);
}

PackedOperand
Session::pack(const Int8Tensor &m, const PackOptions &opts) const
{
    ScopedEngineConfig scope(config_);
    return PackedOperand::packCompressed(m, opts);
}

MatmulPlan
Session::plan(PackedOperand weights, ShapeHints hints,
              PlanOptions opts) const
{
    BBS_REQUIRE(!weights.empty(), "plan needs non-empty packed weights");
    MatmulPlan p;
    p.weights_ = std::move(weights);
    p.hints_ = hints;
    p.options_ = opts;
    p.config_ = config_;
    p.tuneCache_ = tuneCache_;
    // Hoisted once here: runs skip the ScopedEngineConfig entirely when
    // this config would change nothing.
    p.configInert_ =
        config_.threadCap == 0 && !config_.simdLevel.has_value();
    p.scratchReserveRows_ =
        std::max(hints.expectedBatch, config_.scratchReserveRows);

    // Resolve the dense repack up front when the tiled kernel is (or may
    // be, under Auto) the selected execution for compressed weights — a
    // loaded tuning cache holding tiled winners makes it reachable for
    // any compressed operand.
    if (p.weights_.compressed()) {
        bool tiled =
            opts.force == PlanKind::TiledBitSerial ||
            (opts.force == PlanKind::Auto &&
             (p.weights_.meanStoredBits() >= kWeightBits - 1e-9 ||
              (tuneCache_ != nullptr &&
               tuneCache_->hasKind(PlanKind::TiledBitSerial))));
        if (tiled) {
            ScopedEngineConfig scope(config_);
            p.denseRepack_ = std::make_shared<const BitSerialMatrix>(
                BitSerialMatrix::pack(
                    p.weights_.compressedRows().decompress()));
        }
        // The window/sum arena serves only the compressed-batched
        // kernel; skip its reservation when that kind is unreachable
        // (tiled repack above without a cache that could still steer
        // back, or an explicit per-dot/tiled force).
        bool batchedReachable =
            opts.force == PlanKind::CompressedBatched ||
            (opts.force == PlanKind::Auto &&
             (p.denseRepack_ == nullptr || tuneCache_ != nullptr));
        if (batchedReachable && p.scratchReserveRows_ > 0) {
            // Reserve the planning thread's arena now; plan runs
            // re-reserve on their own (possibly different) executing
            // thread.
            const CompressedRowPlanes &rows = p.weights_.compressedRows();
            ScratchArena::forThisThread().reserve(
                p.scratchReserveRows_, rows.groupsPerRow(),
                rows.planeWords());
        }
    }
    // Pre-size the planning thread's activation-pack slot: every kind
    // except per-dot packs raw activations into it per run.
    if (p.scratchReserveRows_ > 0 && opts.force != PlanKind::PerDot)
        ScratchArena::forThisThread().reservePack(p.scratchReserveRows_,
                                                  p.weights_.cols());
    return p;
}

BbsDotResult
Session::dot(std::span<const std::int8_t> weights,
             std::span<const std::int8_t> activations,
             DotMethod method) const
{
    ScopedEngineConfig scope(config_);
    switch (method) {
    case DotMethod::Reference:
        return {bbs::detail::dotReferenceKernel(weights, activations), 0,
                0};
    case DotMethod::ZeroSkip:
        return {bbs::detail::dotZeroSkipKernel(weights, activations), 0,
                0};
    case DotMethod::ZeroSkipScalar:
        return {bbs::detail::dotZeroSkipScalarKernel(weights, activations),
                0, 0};
    case DotMethod::Bbs:
        return bbs::detail::dotBbsKernel(weights, activations);
    case DotMethod::BbsScalar:
        return bbs::detail::dotBbsScalarKernel(weights, activations);
    }
    BBS_PANIC("unreachable dot method");
}

BbsDotResult
Session::dotCompressed(const CompressedGroup &cg,
                       std::span<const std::int8_t> activations,
                       bool scalarReference) const
{
    ScopedEngineConfig scope(config_);
    return scalarReference
               ? bbs::detail::dotCompressedScalarKernel(cg, activations)
               : bbs::detail::dotCompressedKernel(cg, activations);
}

Session &
defaultSession()
{
    static Session session;
    return session;
}

std::string
runtimeSummary()
{
    std::ostringstream os;
    os << "engine: simd=" << simdLevelName(activeSimdLevel()) << " (max "
       << simdLevelName(maxSupportedSimdLevel()) << "), threads="
       << maxWorkerThreads() << ", alignment=" << kCacheLineBytes
       << "B planes / " << kRowPlaneWordAlign << "-word rows";
    return os.str();
}

// ------------------------------------------------- facade free functions

BbsDotResult
dot(std::span<const std::int8_t> weights,
    std::span<const std::int8_t> activations, DotMethod method)
{
    return defaultSession().dot(weights, activations, method);
}

BbsDotResult
dotCompressed(const CompressedGroup &cg,
              std::span<const std::int8_t> activations,
              bool scalarReference)
{
    return defaultSession().dotCompressed(cg, activations,
                                          scalarReference);
}

Int32Tensor
matmulBitSerial(const BitSerialMatrix &activations,
                const BitSerialMatrix &weights)
{
    MatmulPlan plan = defaultSession().plan(
        PackedOperand::viewDense(weights), {},
        {PlanKind::TiledBitSerial});
    Int32Tensor out;
    plan.run(PackedOperand::viewDense(activations), out);
    return out;
}

Int32Tensor
matmulCompressed(const CompressedRowPlanes &weights,
                 const BitSerialMatrix &activations)
{
    MatmulPlan plan = defaultSession().plan(
        PackedOperand::viewCompressed(weights), {},
        {PlanKind::CompressedBatched});
    Int32Tensor out;
    plan.run(PackedOperand::viewDense(activations), out);
    return out;
}

} // namespace bbs::engine
