#include "engine/autotune.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "engine/session.hpp"

namespace bbs::engine {

namespace {

/** Inverse of planKindName for the executable kinds; false on "auto" or
 *  anything unrecognised (a corrupt cache record). */
bool
planKindFromString(const std::string &s, PlanKind &out)
{
    for (PlanKind k : {PlanKind::PerDot, PlanKind::TiledBitSerial,
                       PlanKind::CompressedBatched}) {
        if (s == planKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

/** |log2(a/b)| with both clamped to >= 1 — the shape-class distance on
 *  one axis (doubling a dimension costs 1.0). */
double
logDist(std::int64_t a, std::int64_t b)
{
    double fa = static_cast<double>(std::max<std::int64_t>(a, 1));
    double fb = static_cast<double>(std::max<std::int64_t>(b, 1));
    return std::abs(std::log2(fa / fb));
}

/** Acceptance radius for nearest-shape lookup: within a cumulative
 *  factor-of-4 in log-shape space an entry's winner is trusted; farther
 *  shapes fall back to the heuristic. */
constexpr double kLookupRadius = 2.0;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------- tolerant JSON access
//
// The cache format is the bench --json record shape, so a hand-rolled
// key scanner suffices; every helper reports failure instead of
// throwing, and load() maps any failure to "no cache".

bool
findNumber(const std::string &s, const char *key, double &out)
{
    std::string k = std::string("\"") + key + "\"";
    std::size_t p = s.find(k);
    if (p == std::string::npos)
        return false;
    p = s.find(':', p + k.size());
    if (p == std::string::npos)
        return false;
    const char *begin = s.c_str() + p + 1;
    char *end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin)
        return false;
    out = v;
    return true;
}

bool
findInt(const std::string &s, const char *key, std::int64_t &out)
{
    double v = 0.0;
    if (!findNumber(s, key, v))
        return false;
    out = static_cast<std::int64_t>(v);
    return true;
}

bool
findString(const std::string &s, const char *key, std::string &out)
{
    std::string k = std::string("\"") + key + "\"";
    std::size_t p = s.find(k);
    if (p == std::string::npos)
        return false;
    p = s.find(':', p + k.size());
    if (p == std::string::npos)
        return false;
    std::size_t open = s.find('"', p);
    if (open == std::string::npos)
        return false;
    std::size_t close = s.find('"', open + 1);
    if (close == std::string::npos)
        return false;
    out = s.substr(open + 1, close - open - 1);
    return true;
}

/** Parse one record object; false on any missing/invalid field. */
bool
parseRecord(const std::string &rec, TuneEntry &e)
{
    std::string kind;
    if (!findString(rec, "kernel", kind) ||
        !planKindFromString(kind, e.kind))
        return false;
    if (!findString(rec, "simd", e.simd))
        return false;
    std::int64_t threads = 0;
    if (!findInt(rec, "threads", threads) || threads < 0)
        return false;
    e.threads = static_cast<unsigned>(threads);
    if (!findInt(rec, "rows", e.rows) || e.rows <= 0)
        return false;
    if (!findInt(rec, "depth", e.depth) || e.depth <= 0)
        return false;
    if (!findInt(rec, "batch", e.batch) || e.batch <= 0)
        return false;
    if (!findNumber(rec, "storedBits", e.storedBits))
        return false;
    // Kernel-parameter fields default when absent (older writers).
    findInt(rec, "depthBlockWords", e.depthBlockWords);
    std::int64_t tile = 0;
    if (findInt(rec, "tileRows", tile))
        e.tileRows = static_cast<int>(tile);
    if (findInt(rec, "tileCols", tile))
        e.tileCols = static_cast<int>(tile);
    findNumber(rec, "seconds", e.seconds);
    return true;
}

} // namespace

bool
TuningCache::hasKind(PlanKind k) const
{
    for (const TuneEntry &e : entries)
        if (e.kind == k)
            return true;
    return false;
}

const TuneEntry *
TuningCache::lookup(std::int64_t rows, std::int64_t depth,
                    std::int64_t batch, double storedBits,
                    const char *simdName, unsigned threads) const
{
    const TuneEntry *best = nullptr;
    double bestDist = std::numeric_limits<double>::infinity();
    for (const TuneEntry &e : entries) {
        if (e.simd != simdName)
            continue;
        double dist = logDist(rows, e.rows) + logDist(depth, e.depth) +
                      logDist(batch, e.batch) +
                      std::abs(storedBits - e.storedBits) / 4.0 +
                      (threads == e.threads ? 0.0 : 0.5);
        if (dist < bestDist) {
            bestDist = dist;
            best = &e;
        }
    }
    return bestDist <= kLookupRadius ? best : nullptr;
}

bool
TuningCache::save(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"bench\": \"autotune\", \"version\": " << kVersion
       << ", \"records\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const TuneEntry &e = entries[i];
        os << "  {\"kernel\": \"" << planKindName(e.kind)
           << "\", \"config\": \"r" << e.rows << " d" << e.depth << " b"
           << e.batch << "\", \"simd\": \"" << e.simd
           << "\", \"threads\": " << e.threads << ", \"rows\": " << e.rows
           << ", \"depth\": " << e.depth << ", \"batch\": " << e.batch
           << ", \"storedBits\": " << std::setprecision(6) << e.storedBits
           << ", \"depthBlockWords\": " << e.depthBlockWords
           << ", \"tileRows\": " << e.tileRows
           << ", \"tileCols\": " << e.tileCols
           << ", \"seconds\": " << std::setprecision(9) << e.seconds
           << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    os << "]}\n";
    return os.good();
}

bool
TuningCache::load(const std::string &path, TuningCache &out)
{
    out.entries.clear();
    std::ifstream is(path);
    if (!is)
        return false;
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string text = buf.str();

    std::int64_t version = 0;
    if (!findInt(text, "version", version) || version != kVersion)
        return false;
    std::size_t pos = text.find("\"records\"");
    if (pos == std::string::npos)
        return false;
    pos = text.find('[', pos);
    if (pos == std::string::npos)
        return false;
    ++pos;
    while (true) {
        while (pos < text.size() &&
               (std::isspace(static_cast<unsigned char>(text[pos])) ||
                text[pos] == ','))
            ++pos;
        if (pos >= text.size()) {
            // Truncated file: the array never closes.
            out.entries.clear();
            return false;
        }
        if (text[pos] == ']')
            break;
        if (text[pos] != '{') {
            out.entries.clear();
            return false;
        }
        std::size_t end = text.find('}', pos);
        if (end == std::string::npos) {
            out.entries.clear();
            return false;
        }
        TuneEntry e;
        if (!parseRecord(text.substr(pos, end - pos + 1), e)) {
            out.entries.clear();
            return false;
        }
        out.entries.push_back(std::move(e));
        pos = end + 1;
    }
    return true;
}

// ------------------------------------------------------------ autotuner

namespace {

/** Deterministic small-magnitude INT8 fill (an LCG, so the tuner needs
 *  no <random> state and two runs over the same shape see the same
 *  operands). Small magnitudes keep the BBS compressor representative. */
void
fillTensor(Int8Tensor &t, std::uint64_t seed)
{
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        t.flat(i) = static_cast<std::int8_t>(
            static_cast<std::int64_t>(state >> 33) % 31 - 15);
    }
}

/** One measured configuration. */
struct Candidate
{
    PlanKind kind = PlanKind::Auto;
    std::int64_t depthBlockWords = 0; ///< 0 = topology default
    int tileRows = 2;
    int tileCols = 2;
};

/** Depth-block sweep for the tiled kernel: the topology default plus
 *  every power-of-two candidate that actually splits this depth (blocks
 *  at or beyond the operand's word count all execute identically). */
std::vector<std::int64_t>
depthBlockCandidates(std::int64_t depth)
{
    std::vector<std::int64_t> out{0};
    std::int64_t usedWords = (depth + 63) / 64;
    for (std::int64_t c : {128, 256, 512, 1024, 2048})
        if (c < usedWords)
            out.push_back(c);
    return out;
}

} // namespace

TuneEntry
autotuneShape(const TuneShape &shape, const AutotuneOptions &opts)
{
    BBS_REQUIRE(shape.rows > 0 && shape.depth > 0 && shape.batch > 0,
                "autotuneShape needs positive rows/depth/batch, got ",
                shape.rows, "x", shape.depth, " batch ", shape.batch);
    Int8Tensor w(Shape{shape.rows, shape.depth});
    Int8Tensor x(Shape{shape.batch, shape.depth});
    fillTensor(w, static_cast<std::uint64_t>(shape.rows * 131 +
                                             shape.depth));
    fillTensor(x, static_cast<std::uint64_t>(shape.batch * 257 +
                                             shape.depth * 3 + 1));

    EngineConfig baseCfg;
    baseCfg.tuneCachePath = "none"; // the tuner measures, never consults
    Session base(baseCfg);
    PackOptions packOpts;
    packOpts.groupSize = opts.groupSize;
    packOpts.targetColumns = opts.targetColumns;
    PackedOperand weights = base.pack(w, packOpts);

    std::vector<Candidate> candidates;
    // Per-dot scales with batch x rows x groups and is strictly
    // dominated by the batched kernels well before batch 32; pruning it
    // there keeps suite time bounded without affecting any winner.
    if (shape.batch <= 32)
        candidates.push_back({PlanKind::PerDot, 0, 2, 2});
    candidates.push_back({PlanKind::CompressedBatched, 0, 2, 2});
    for (std::int64_t db : depthBlockCandidates(shape.depth))
        candidates.push_back({PlanKind::TiledBitSerial, db, 2, 2});
    candidates.push_back({PlanKind::TiledBitSerial, 0, 1, 1});

    Int32Tensor ref;
    Int32Tensor out;
    TuneEntry entry;
    entry.simd = simdLevelName(activeSimdLevel());
    entry.threads = maxWorkerThreads();
    entry.rows = shape.rows;
    entry.depth = shape.depth;
    entry.batch = shape.batch;
    entry.storedBits = weights.meanStoredBits();
    entry.seconds = std::numeric_limits<double>::infinity();

    for (const Candidate &c : candidates) {
        EngineConfig cfg;
        cfg.tuneCachePath = "none";
        cfg.tuning.depthBlockWords = c.depthBlockWords;
        cfg.tuning.tileRows = c.tileRows;
        cfg.tuning.tileCols = c.tileCols;
        Session s(cfg);
        ShapeHints hints;
        hints.expectedBatch = shape.batch;
        MatmulPlan plan = s.plan(weights, hints, {c.kind});

        // First run doubles as the bit-identity check: every candidate
        // must produce the same outputs, or a tuned pick could change
        // results (the invariant tests/test_autotune.cpp fuzzes).
        plan.run(x, out);
        if (ref.numel() == 0) {
            ref = out;
        } else {
            BBS_ASSERT(std::equal(ref.data().begin(), ref.data().end(),
                                  out.data().begin()),
                       "autotune candidate ", planKindName(c.kind),
                       " diverged from reference output");
        }
        for (int i = 1; i < opts.warmup; ++i)
            plan.run(x, out);
        double best = std::numeric_limits<double>::infinity();
        for (int r = 0; r < std::max(1, opts.reps); ++r) {
            double t0 = nowSeconds();
            plan.run(x, out);
            best = std::min(best, nowSeconds() - t0);
        }
        if (best < entry.seconds) {
            entry.seconds = best;
            entry.kind = c.kind;
            entry.depthBlockWords = c.depthBlockWords;
            entry.tileRows = c.tileRows;
            entry.tileCols = c.tileCols;
        }
    }
    return entry;
}

TuningCache
autotuneShapes(const std::vector<TuneShape> &shapes,
               const AutotuneOptions &opts)
{
    TuningCache cache;
    cache.entries.reserve(shapes.size());
    for (const TuneShape &s : shapes)
        cache.entries.push_back(autotuneShape(s, opts));
    return cache;
}

TuningCache
autotuneSuite(const AutotuneOptions &opts)
{
    std::vector<TuneShape> shapes;
    for (std::int64_t rows : {64, 256})
        for (std::int64_t depth : {256, 512})
            for (std::int64_t batch : {1, 8, 64, 256})
                shapes.push_back({rows, depth, batch});
    return autotuneShapes(shapes, opts);
}

// ------------------------------------------------------- session loading

namespace detail {

std::string
resolveTuneCachePath(const std::string &configured)
{
    if (configured == "none")
        return "";
    if (!configured.empty())
        return configured;
    const char *env = std::getenv("BBS_TUNE_CACHE");
    return env != nullptr ? std::string(env) : std::string();
}

std::shared_ptr<const TuningCache>
loadTuningCacheShared(const std::string &path)
{
    static std::mutex m;
    static std::map<std::string,
                    std::shared_ptr<const TuningCache>> loaded;
    std::lock_guard<std::mutex> lock(m);
    auto it = loaded.find(path);
    if (it != loaded.end())
        return it->second;
    TuningCache cache;
    std::shared_ptr<const TuningCache> result;
    if (TuningCache::load(path, cache)) {
        result = std::make_shared<const TuningCache>(std::move(cache));
    } else {
        // Absent or malformed: heuristic-only, warned once per path.
        warn("tuning cache '", path,
             "' missing or unreadable; using the selection heuristic");
    }
    loaded.emplace(path, result);
    return result;
}

} // namespace detail

} // namespace bbs::engine
