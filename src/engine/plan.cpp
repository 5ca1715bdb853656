#include "engine/plan.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/aligned.hpp"
#include "common/bit_utils.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "core/dot_kernels.hpp"
#include "engine/autotune.hpp"
#include "engine/scratch.hpp"
#include "gemm/gemm.hpp"

namespace bbs::engine {

namespace {

#if BBS_OBS
// Engine-layer instrumentation (compiled out at BBS_OBS=0): plan-kind
// run tallies and per-kind execute latency in the process-global
// registry, plus tune-cache outcome counters. Metric refs are magic
// statics — registration (the only allocating step) happens once, and
// every run after that is a relaxed RMW, preserving the serving drain
// path's zero-allocation invariant.
obs::Counter &
planRunCounter(PlanKind k)
{
    auto &reg = obs::Registry::global();
    static obs::Counter &perDot =
        reg.counter("bbs_engine_plan_runs_total", "Plan executions by kind",
                    "kind=\"per-dot\"");
    static obs::Counter &tiled =
        reg.counter("bbs_engine_plan_runs_total", "Plan executions by kind",
                    "kind=\"tiled-bit-serial\"");
    static obs::Counter &compressed =
        reg.counter("bbs_engine_plan_runs_total", "Plan executions by kind",
                    "kind=\"compressed-batched\"");
    switch (k) {
    case PlanKind::PerDot: return perDot;
    case PlanKind::TiledBitSerial: return tiled;
    default: return compressed;
    }
}

obs::Histogram &
planLatency(PlanKind k)
{
    auto &reg = obs::Registry::global();
    static obs::Histogram &perDot = reg.histogram(
        "bbs_engine_plan_latency_us", obs::Histogram::latencyBoundsUs(),
        "Plan execute() wall time by kind, microseconds",
        "kind=\"per-dot\"");
    static obs::Histogram &tiled = reg.histogram(
        "bbs_engine_plan_latency_us", obs::Histogram::latencyBoundsUs(),
        "Plan execute() wall time by kind, microseconds",
        "kind=\"tiled-bit-serial\"");
    static obs::Histogram &compressed = reg.histogram(
        "bbs_engine_plan_latency_us", obs::Histogram::latencyBoundsUs(),
        "Plan execute() wall time by kind, microseconds",
        "kind=\"compressed-batched\"");
    switch (k) {
    case PlanKind::PerDot: return perDot;
    case PlanKind::TiledBitSerial: return tiled;
    default: return compressed;
    }
}

obs::Counter &
tuneOutcome(int which) // 0 = hit, 1 = miss, 2 = fallback
{
    auto &reg = obs::Registry::global();
    static obs::Counter &hit = reg.counter(
        "bbs_engine_tune_lookups_total",
        "Tuning-cache lookups by outcome", "outcome=\"hit\"");
    static obs::Counter &miss = reg.counter(
        "bbs_engine_tune_lookups_total",
        "Tuning-cache lookups by outcome", "outcome=\"miss\"");
    static obs::Counter &fallback = reg.counter(
        "bbs_engine_tune_lookups_total",
        "Tuning-cache lookups by outcome", "outcome=\"fallback\"");
    return which == 0 ? hit : which == 1 ? miss : fallback;
}

/** Times one execute() and books it under the resolved kind. */
struct RunTimer
{
    PlanKind kind;
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();

    ~RunTimer()
    {
        planRunCounter(kind).inc();
        planLatency(kind).observe(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
};
#endif // BBS_OBS

/**
 * The per-dot execution: the pre-GEMM inference loop nest (weight
 * channels outer and parallel, samples inner, groups in ascending
 * order) over the compact plane rows, read in place, so plans resolve it
 * bit-identically. A channel's work is n x cols x stride stored weight
 * bits; threads claim blocks of channels that carry kMinChunkWork of it
 * and at least one 64-byte line of int32 outputs per sample row.
 */
void
runPerDot(const CompressedRowPlanes &w, const Int8Tensor &x,
          Int32Tensor &out)
{
    std::int64_t n = x.shape().dim(0);
    std::int64_t k = w.rows();
    std::int64_t numGroups = w.groupsPerRow();
    constexpr std::int64_t kChannelsPerLine =
        kCacheLineBytes / sizeof(std::int32_t);
    parallelFor(k, [&](std::int64_t o) {
        for (std::int64_t r = 0; r < n; ++r) {
            std::int64_t acc = 0;
            for (std::int64_t g = 0; g < numGroups; ++g) {
                std::span<const std::int8_t> acts(
                    &x.at(r, w.groupBegin(g)),
                    static_cast<std::size_t>(w.groupMembers(g)));
                acc += bbs::detail::dotCompressedPacked(
                           w.groupPlanes(o, g), w.planeWords(), w.bits(o, g),
                           w.shift(o, g), w.constant(o, g), acts)
                           .value;
            }
            out.at(r, o) = static_cast<std::int32_t>(acc);
        }
    }, std::max(kChannelsPerLine, chunkForWork(n * w.cols() * w.stride())));
}

} // namespace

const char *
planKindName(PlanKind k)
{
    switch (k) {
    case PlanKind::Auto: return "auto";
    case PlanKind::PerDot: return "per-dot";
    case PlanKind::TiledBitSerial: return "tiled-bit-serial";
    case PlanKind::CompressedBatched: return "compressed-batched";
    }
    return "?";
}

PlanKind
MatmulPlan::selectKind(std::int64_t batch, bool compressedWeights,
                       double meanStoredBits)
{
    if (!compressedWeights)
        return PlanKind::TiledBitSerial;
    if (batch <= 1)
        return PlanKind::PerDot;
    if (meanStoredBits >= kWeightBits - 1e-9)
        return PlanKind::TiledBitSerial;
    return PlanKind::CompressedBatched;
}

MatmulPlan::Resolved
MatmulPlan::resolveForBatch(std::int64_t batch, bool countTune) const
{
#if !BBS_OBS
    (void)countTune;
#endif
    Resolved r{options_.force, config_.tuning};
    if (r.kind != PlanKind::Auto)
        return r;
    if (tuneCache_ != nullptr) {
        SimdLevel simd = config_.simdLevel.value_or(activeSimdLevel());
        unsigned threads = config_.threadCap != 0 ? config_.threadCap
                                                  : maxWorkerThreads();
        const TuneEntry *e = tuneCache_->lookup(
            weights_.rows(), weights_.cols(), batch,
            weights_.meanStoredBits(), simdLevelName(simd), threads);
        // A cached winner applies only when it is executable here:
        // the compressed kinds need compressed weights, and tiled over
        // compressed weights needs the creation-time dense repack (the
        // per-run densify escape hatch would cost more than any kernel
        // choice saves).
        bool executable =
            e != nullptr &&
            (e->kind == PlanKind::TiledBitSerial
                 ? (!weights_.compressed() || denseRepack_ != nullptr)
                 : weights_.compressed() && e->kind != PlanKind::Auto);
#if BBS_OBS
        if (countTune)
            tuneOutcome(e == nullptr ? 1 : executable ? 0 : 2).inc();
#endif
        if (executable) {
            r.kind = e->kind;
            if (e->kind == PlanKind::TiledBitSerial) {
                if (e->depthBlockWords > 0)
                    r.tuning.depthBlockWords = e->depthBlockWords;
                r.tuning.tileRows = e->tileRows;
                r.tuning.tileCols = e->tileCols;
            }
            return r;
        }
    }
    r.kind = selectKind(batch, weights_.compressed(),
                        weights_.meanStoredBits());
    return r;
}

PlanKind
MatmulPlan::kindForBatch(std::int64_t batch) const
{
    // Introspection, not execution: keep it out of the tune metrics.
    return resolveForBatch(batch, false).kind;
}

void
MatmulPlan::execute(PlanKind kind, const TuningParams &tuning,
                    const Int8Tensor *raw, const BitSerialMatrix *packed,
                    Int32Tensor &out) const
{
    BBS_REQUIRE(valid(), "running an empty MatmulPlan");
    std::int64_t depth = weights_.cols();
    std::int64_t n = raw != nullptr ? raw->shape().dim(0) : packed->rows();
    std::int64_t actCols =
        raw != nullptr ? raw->shape().dim(1) : packed->cols();
    BBS_REQUIRE(actCols == depth, "plan depth mismatch: activations ",
                actCols, " vs weights ", depth);
    BBS_REQUIRE(depth <= kMaxGemmDepth, "plan depth ", depth,
                " can overflow the INT32 outputs (max ", kMaxGemmDepth,
                ")");
    BBS_REQUIRE(kind != PlanKind::Auto, "execute() needs a resolved kind");

    // Hoisted config application: inert configs (the common case — the
    // default Session and every plan without an explicit thread/SIMD
    // override) skip the scope object entirely, decided once at plan
    // creation instead of per run.
    std::optional<ScopedEngineConfig> scope;
    if (!configInert_)
        scope.emplace(config_);
    bbs::detail::ensureOutputShape(out, n, weights_.rows());

#if BBS_OBS
    RunTimer runTimer{kind};
#endif

    switch (kind) {
    case PlanKind::PerDot: {
        BBS_REQUIRE(weights_.compressed(),
                    "per-dot execution needs compressed weights");
        BBS_REQUIRE(raw != nullptr, "per-dot execution needs unpacked "
                    "activations (element access)");
        runPerDot(weights_.compressedRows(), *raw, out);
        return;
    }
    case PlanKind::TiledBitSerial: {
        const BitSerialMatrix *w = nullptr;
        BitSerialMatrix local;
        if (!weights_.compressed()) {
            w = &weights_.dense();
        } else if (denseRepack_ != nullptr) {
            w = denseRepack_.get();
        } else {
            // Escape-hatch path: densify on the spot (plans whose
            // creation-time kind could select the tiled kernel cache
            // this repack up front).
            local = BitSerialMatrix::pack(
                weights_.compressedRows().decompress());
            w = &local;
        }
        if (packed != nullptr) {
            bbs::detail::gemmBitSerialKernel(*packed, *w, out, tuning);
        } else {
            // Pack into the executing thread's arena slot instead of a
            // local: repacking reuses its capacity, so steady-state runs
            // allocate nothing.
            ScratchArena &arena = ScratchArena::forThisThread();
            if (scratchReserveRows_ > n)
                arena.reservePack(scratchReserveRows_, depth);
            BitSerialMatrix::packInto(*raw, arena.actsPack);
            bbs::detail::gemmBitSerialKernel(arena.actsPack, *w, out,
                                             tuning);
        }
        return;
    }
    case PlanKind::CompressedBatched: {
        BBS_REQUIRE(weights_.compressed(),
                    "compressed-batched execution needs compressed "
                    "weights");
        // Reserve the *executing* thread's arena up to the plan's
        // expected batch, so a worker's first (possibly small) batch
        // already sizes the scratch for the largest one to come.
        ScratchArena &arena = ScratchArena::forThisThread();
        const CompressedRowPlanes &rows = weights_.compressedRows();
        if (scratchReserveRows_ > n)
            arena.reserve(scratchReserveRows_, rows.groupsPerRow(),
                          rows.planeWords());
        if (packed != nullptr) {
            bbs::detail::gemmCompressedKernel(rows, *packed, out, arena);
        } else {
            if (scratchReserveRows_ > n)
                arena.reservePack(scratchReserveRows_, depth);
            BitSerialMatrix::packInto(*raw, arena.actsPack);
            bbs::detail::gemmCompressedKernel(rows, arena.actsPack, out,
                                              arena);
        }
        return;
    }
    case PlanKind::Auto:
        break;
    }
    BBS_PANIC("unreachable plan kind");
}

void
MatmulPlan::run(const Int8Tensor &activations, Int32Tensor &out) const
{
    Resolved r = resolveForBatch(activations.shape().dim(0));
    execute(r.kind, r.tuning, &activations, nullptr, out);
}

Int32Tensor
MatmulPlan::run(const Int8Tensor &activations) const
{
    Int32Tensor out;
    run(activations, out);
    return out;
}

void
MatmulPlan::run(const PackedOperand &activations, Int32Tensor &out) const
{
    BBS_REQUIRE(!activations.compressed(),
                "activations must be a dense bit-plane operand");
    const BitSerialMatrix &acts = activations.dense();
    Resolved r = resolveForBatch(acts.rows());
    // Auto's per-dot pick needs element access; for an already-packed
    // batch the compressed-batched kernel serves it bit-identically (an
    // *explicit* PerDot force still rejects packed activations below).
    if (options_.force == PlanKind::Auto && r.kind == PlanKind::PerDot)
        r.kind = PlanKind::CompressedBatched;
    execute(r.kind, r.tuning, nullptr, &acts, out);
}

void
MatmulPlan::runAs(PlanKind kind, const Int8Tensor &activations,
                  Int32Tensor &out) const
{
    BBS_REQUIRE(kind != PlanKind::Auto,
                "runAs() needs an explicit kind; use run() for Auto");
    execute(kind, config_.tuning, &activations, nullptr, out);
}

} // namespace bbs::engine
