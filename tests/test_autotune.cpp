/**
 * @file
 * Tests for the measured plan autotuner and its persistent tuning cache
 * (engine/autotune.hpp), and the runtime cache-topology detection
 * backing the default GEMM depth block (engine/cache_topology.hpp).
 *
 * The load-bearing invariants: every tuning-parameter combination is
 * bit-identical (tuning moves wall-clock time only); a deployed cache
 * steers plan decisions; and every cache defect — missing file, garbage,
 * truncation, unknown version — degrades silently to the hand heuristic.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "engine/engine.hpp"
#include "gemm/gemm.hpp"

namespace bbs {
namespace {

using bbs::engine::AutotuneOptions;
using bbs::engine::EngineConfig;
using bbs::engine::MatmulPlan;
using bbs::engine::PackedOperand;
using bbs::engine::PackOptions;
using bbs::engine::PlanKind;
using bbs::engine::Session;
using bbs::engine::ShapeHints;
using bbs::engine::TuneEntry;
using bbs::engine::TuneShape;
using bbs::engine::TuningCache;
using bbs::engine::TuningParams;

Int8Tensor
randomMatrix(std::int64_t rows, std::int64_t cols, Rng &rng)
{
    Int8Tensor t(Shape{rows, cols});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    return t;
}

/**
 * Unique temp path per scenario: Session memoizes cache loads (including
 * failures) by path for the life of the process, so scenarios must never
 * share one.
 */
std::string
tempCachePath(const char *tag)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("bbs_test_tune_") + tag + ".json"))
        .string();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path, std::ios::trunc);
    ASSERT_TRUE(f.good());
    f << content;
}

/** The key the runtime will look up with (simd level x thread cap). */
TuneEntry
entryForRuntime(std::int64_t rows, std::int64_t depth, std::int64_t batch,
                double storedBits, PlanKind kind)
{
    TuneEntry e;
    e.simd = simdLevelName(activeSimdLevel());
    e.threads = maxWorkerThreads();
    e.rows = rows;
    e.depth = depth;
    e.batch = batch;
    e.storedBits = storedBits;
    e.kind = kind;
    e.seconds = 1e-5;
    return e;
}

// -------------------------------------------------------- cache topology

TEST(CacheTopologyTest, DetectionAndDepthBlockDerivation)
{
    const engine::CacheTopology &topo = engine::cacheTopology();
    // Whether detected or defaulted, the numbers must be usable.
    EXPECT_GT(topo.l1dBytes, 0);
    EXPECT_GE(topo.l2Bytes, topo.l1dBytes);
    EXPECT_GT(topo.lineBytes, 0);
    EXPECT_TRUE(std::string(topo.source) == "sysfs" ||
                std::string(topo.source) == "cpuid" ||
                std::string(topo.source) == "default");

    // 32 KiB L1d reproduces the old hard-coded 512-word block; the
    // derivation clamps to [128, 4096] and always lands on a power of 2.
    EXPECT_EQ(engine::defaultDepthBlockWords(32 * 1024), 512);
    EXPECT_EQ(engine::defaultDepthBlockWords(1024), 128);        // floor
    EXPECT_EQ(engine::defaultDepthBlockWords(1 << 30), 4096);    // ceil
    for (std::int64_t l1 : {16 * 1024, 48 * 1024, 64 * 1024,
                            128 * 1024}) {
        std::int64_t words = engine::defaultDepthBlockWords(l1);
        EXPECT_GE(words, 128);
        EXPECT_LE(words, 4096);
        EXPECT_EQ(words & (words - 1), 0) << "not a power of two";
        // Four resident plane rows fit in at most half the L1d (the
        // 128-word floor never binds at these sizes).
        EXPECT_LE(4 * words * 8, l1 / 2);
    }

    TuningParams p;
    EXPECT_EQ(p.resolvedDepthBlockWords(),
              engine::defaultDepthBlockWords(topo.l1dBytes));
    p.depthBlockWords = 256; // explicit value passes through untouched
    EXPECT_EQ(p.resolvedDepthBlockWords(), 256);
}

// ---------------------------------------- tuning-parameter bit-identity

TEST(TuningParamsTest, DepthBlockAndTileChoicesAreBitIdentical)
{
    Rng rng(0x7ab5);
    for (int iter = 0; iter < 4; ++iter) {
        std::int64_t k = rng.uniformInt(3, 40);
        std::int64_t c = rng.uniformInt(1, 9) * 64;
        std::int64_t n = rng.uniformInt(1, 33);
        Int8Tensor weights = randomMatrix(k, c, rng);
        Int8Tensor acts = randomMatrix(n, c, rng);
        Int32Tensor ref = gemmReferenceBatch(acts, weights);

        for (std::int64_t block : {std::int64_t{0}, std::int64_t{128},
                                   std::int64_t{512},
                                   std::int64_t{4096}}) {
            for (int tile : {1, 2}) {
                EngineConfig cfg;
                cfg.tuneCachePath = "none";
                cfg.tuning.depthBlockWords = block;
                cfg.tuning.tileRows = tile;
                cfg.tuning.tileCols = tile;
                Session s(cfg);
                MatmulPlan plan = s.plan(s.pack(weights));
                Int32Tensor out = plan.run(acts);
                for (std::int64_t i = 0; i < ref.numel(); ++i)
                    ASSERT_EQ(out.flat(i), ref.flat(i))
                        << "block=" << block << " tile=" << tile
                        << " iter=" << iter << " i=" << i;
            }
        }
    }
}

// ------------------------------------------------- cache save/load/lookup

TEST(TuningCacheTest, SaveLoadRoundTripPreservesEntries)
{
    TuningCache cache;
    TuneEntry e = entryForRuntime(64, 256, 8, 5.0, PlanKind::PerDot);
    e.depthBlockWords = 256;
    e.tileRows = 1;
    e.tileCols = 2;
    e.seconds = 3.25e-4;
    cache.entries.push_back(e);
    cache.entries.push_back(
        entryForRuntime(128, 512, 64, 4.5, PlanKind::TiledBitSerial));

    std::string path = tempCachePath("roundtrip");
    ASSERT_TRUE(cache.save(path));

    TuningCache loaded;
    ASSERT_TRUE(TuningCache::load(path, loaded));
    ASSERT_EQ(loaded.entries.size(), 2u);
    EXPECT_EQ(loaded.entries[0].simd, e.simd);
    EXPECT_EQ(loaded.entries[0].threads, e.threads);
    EXPECT_EQ(loaded.entries[0].rows, 64);
    EXPECT_EQ(loaded.entries[0].depth, 256);
    EXPECT_EQ(loaded.entries[0].batch, 8);
    EXPECT_DOUBLE_EQ(loaded.entries[0].storedBits, 5.0);
    EXPECT_EQ(loaded.entries[0].kind, PlanKind::PerDot);
    EXPECT_EQ(loaded.entries[0].depthBlockWords, 256);
    EXPECT_EQ(loaded.entries[0].tileRows, 1);
    EXPECT_EQ(loaded.entries[0].tileCols, 2);
    EXPECT_NEAR(loaded.entries[0].seconds, 3.25e-4, 1e-9);
    EXPECT_EQ(loaded.entries[1].kind, PlanKind::TiledBitSerial);
    EXPECT_TRUE(loaded.hasKind(PlanKind::TiledBitSerial));
    EXPECT_FALSE(loaded.hasKind(PlanKind::CompressedBatched));
    std::remove(path.c_str());

    // A cache written before the compressed kernel's row tile became
    // fixed carries a "rowTile" key; it still loads, key ignored.
    std::string older = tempCachePath("roundtrip_rowtile");
    writeFile(older,
              "{\"bench\": \"autotune\", \"version\": 1, \"records\": [\n"
              "  {\"kernel\": \"compressed-batched\", \"config\": "
              "\"r64 d256 b8\", \"simd\": \"avx2\", \"threads\": 4, "
              "\"rows\": 64, \"depth\": 256, \"batch\": 8, "
              "\"storedBits\": 5, \"depthBlockWords\": 0, "
              "\"tileRows\": 2, \"tileCols\": 2, \"rowTile\": 4, "
              "\"seconds\": 0.000325}\n"
              "]}\n");
    TuningCache fromOlder;
    ASSERT_TRUE(TuningCache::load(older, fromOlder));
    ASSERT_EQ(fromOlder.entries.size(), 1u);
    EXPECT_EQ(fromOlder.entries[0].kind, PlanKind::CompressedBatched);
    EXPECT_EQ(fromOlder.entries[0].simd, "avx2");
    EXPECT_EQ(fromOlder.entries[0].threads, 4u);
    EXPECT_EQ(fromOlder.entries[0].rows, 64);
    EXPECT_EQ(fromOlder.entries[0].depth, 256);
    EXPECT_EQ(fromOlder.entries[0].batch, 8);
    EXPECT_DOUBLE_EQ(fromOlder.entries[0].storedBits, 5.0);
    EXPECT_EQ(fromOlder.entries[0].tileRows, 2);
    EXPECT_EQ(fromOlder.entries[0].tileCols, 2);
    EXPECT_NEAR(fromOlder.entries[0].seconds, 3.25e-4, 1e-9);
    std::remove(older.c_str());
}

TEST(TuningCacheTest, LookupMatchesNearestShapeClassWithinRadius)
{
    TuningCache cache;
    cache.entries.push_back(
        entryForRuntime(64, 256, 8, 5.0, PlanKind::CompressedBatched));
    cache.entries.push_back(
        entryForRuntime(64, 256, 256, 5.0, PlanKind::TiledBitSerial));

    const char *simd = simdLevelName(activeSimdLevel());
    unsigned threads = maxWorkerThreads();

    // Exact hits.
    const TuneEntry *hit = cache.lookup(64, 256, 8, 5.0, simd, threads);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->kind, PlanKind::CompressedBatched);
    // A nearby batch resolves to the nearest class...
    hit = cache.lookup(64, 256, 192, 5.0, simd, threads);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->kind, PlanKind::TiledBitSerial);
    // ...a far-away shape is a miss (outside the acceptance radius)...
    EXPECT_EQ(cache.lookup(4096, 8192, 8, 5.0, simd, threads), nullptr);
    // ...and a different SIMD level never matches (its measured winners
    // are meaningless here).
    const char *otherSimd =
        activeSimdLevel() == SimdLevel::Scalar ? "avx2" : "scalar";
    EXPECT_EQ(cache.lookup(64, 256, 8, 5.0, otherSimd, threads), nullptr);
}

// ------------------------------------------------ Session + plan wiring

TEST(TuningCacheTest, DeployedCacheSteersPlanDecisions)
{
    // A cache pinning batch 8 on this shape to PerDot — the heuristic
    // would choose CompressedBatched — must flip the plan's decision,
    // with bit-identical results.
    const std::int64_t k = 64, c = 256;
    TuningCache cache;
    cache.entries.push_back(
        entryForRuntime(k, c, 8, 5.0, PlanKind::PerDot));
    std::string path = tempCachePath("steers");
    ASSERT_TRUE(cache.save(path));

    Rng rng(0xcafe);
    Int8Tensor weights = randomMatrix(k, c, rng);
    Int8Tensor acts = randomMatrix(8, c, rng);
    PackOptions popts;
    popts.targetColumns = 3;

    EngineConfig tunedCfg;
    tunedCfg.tuneCachePath = path;
    Session tuned(tunedCfg);
    ASSERT_NE(tuned.tuningCache(), nullptr);
    EngineConfig heurCfg;
    heurCfg.tuneCachePath = "none";
    Session heuristic(heurCfg);
    ASSERT_EQ(heuristic.tuningCache(), nullptr);

    MatmulPlan tunedPlan = tuned.plan(tuned.pack(weights, popts));
    MatmulPlan heurPlan = heuristic.plan(heuristic.pack(weights, popts));
    EXPECT_EQ(tunedPlan.kindForBatch(8), PlanKind::PerDot);
    EXPECT_EQ(heurPlan.kindForBatch(8), PlanKind::CompressedBatched);

    Int32Tensor a = tunedPlan.run(acts);
    Int32Tensor b = heurPlan.run(acts);
    for (std::int64_t i = 0; i < a.numel(); ++i)
        ASSERT_EQ(a.flat(i), b.flat(i)) << "i=" << i;
    std::remove(path.c_str());
}

TEST(TuningCacheTest, EveryCacheDefectDegradesToTheHeuristic)
{
    struct Defect
    {
        const char *tag;
        std::string content;
        bool skipWrite = false;
    };
    std::vector<Defect> defects;
    defects.push_back({"missing", "", true});
    defects.push_back({"garbage", "not json at all {{{"});
    defects.push_back(
        {"badversion",
         "{\"bench\": \"autotune\", \"version\": 99, \"records\": [\n"
         "{\"kernel\": \"per-dot\", \"simd\": \"scalar\", \"threads\": 1, "
         "\"rows\": 64, \"depth\": 256, \"batch\": 8, \"storedBits\": 5.0, "
         "\"seconds\": 1e-5}\n]}\n"});
    // A valid cache chopped mid-record (crashed writer).
    {
        TuningCache cache;
        cache.entries.push_back(
            entryForRuntime(64, 256, 8, 5.0, PlanKind::PerDot));
        cache.entries.push_back(
            entryForRuntime(64, 256, 64, 5.0, PlanKind::PerDot));
        std::string full = tempCachePath("full_tmp");
        ASSERT_TRUE(cache.save(full));
        std::ifstream f(full);
        std::string content((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
        std::remove(full.c_str());
        defects.push_back(
            {"truncated", content.substr(0, content.size() * 2 / 3)});
    }

    Rng rng(0xdead);
    const std::int64_t k = 64, c = 256;
    Int8Tensor weights = randomMatrix(k, c, rng);
    Int8Tensor acts = randomMatrix(8, c, rng);
    PackOptions popts;
    popts.targetColumns = 3;

    EngineConfig heurCfg;
    heurCfg.tuneCachePath = "none";
    Session heuristic(heurCfg);
    MatmulPlan heurPlan = heuristic.plan(heuristic.pack(weights, popts));
    Int32Tensor ref = heurPlan.run(acts);

    for (const Defect &d : defects) {
        std::string path = tempCachePath(d.tag);
        if (!d.skipWrite)
            writeFile(path, d.content);
        else
            std::remove(path.c_str());

        // Loading must not throw, must report failure cleanly...
        TuningCache direct;
        EXPECT_FALSE(TuningCache::load(path, direct)) << d.tag;
        EXPECT_TRUE(direct.empty()) << d.tag;

        // ...and a Session over the defective path behaves exactly like
        // the heuristic-only engine.
        EngineConfig cfg;
        cfg.tuneCachePath = path;
        Session s(cfg);
        EXPECT_EQ(s.tuningCache(), nullptr) << d.tag;
        MatmulPlan plan = s.plan(s.pack(weights, popts));
        EXPECT_EQ(plan.kindForBatch(8), heurPlan.kindForBatch(8)) << d.tag;
        Int32Tensor out = plan.run(acts);
        for (std::int64_t i = 0; i < ref.numel(); ++i)
            ASSERT_EQ(out.flat(i), ref.flat(i)) << d.tag << " i=" << i;
        if (!d.skipWrite)
            std::remove(path.c_str());
    }
}

// ------------------------------------------------------- live autotuner

TEST(AutotunerTest, MeasuredWinnerRoundTripsIntoPlanDecisions)
{
    AutotuneOptions opts;
    opts.reps = 1;
    opts.warmup = 0;
    opts.targetColumns = 3;
    std::vector<TuneShape> shapes;
    shapes.push_back({16, 64, 4});
    shapes.push_back({16, 64, 32});
    engine::TuningCache cache = engine::autotuneShapes(shapes, opts);
    ASSERT_EQ(cache.entries.size(), 2u);
    for (const TuneEntry &e : cache.entries) {
        EXPECT_NE(e.kind, PlanKind::Auto);
        EXPECT_GT(e.seconds, 0.0);
        EXPECT_EQ(e.simd, simdLevelName(activeSimdLevel()));
    }

    std::string path = tempCachePath("live");
    ASSERT_TRUE(cache.save(path));
    EngineConfig cfg;
    cfg.tuneCachePath = path;
    Session tuned(cfg);
    ASSERT_NE(tuned.tuningCache(), nullptr);

    // The plan must adopt the measured winner for the exact shapes...
    Rng rng(0xf00);
    Int8Tensor weights = randomMatrix(16, 64, rng);
    PackOptions popts;
    popts.targetColumns = 3;
    MatmulPlan plan = tuned.plan(tuned.pack(weights, popts));
    EXPECT_EQ(plan.kindForBatch(4), cache.entries[0].kind);
    EXPECT_EQ(plan.kindForBatch(32), cache.entries[1].kind);

    // ...and tuned results stay bit-identical to the heuristic engine
    // across fuzzed activations (tuning never changes arithmetic).
    EngineConfig heurCfg;
    heurCfg.tuneCachePath = "none";
    Session heuristic(heurCfg);
    MatmulPlan heurPlan = heuristic.plan(heuristic.pack(weights, popts));
    for (std::int64_t batch : {1, 4, 7, 32}) {
        Int8Tensor acts = randomMatrix(batch, 64, rng);
        Int32Tensor a = plan.run(acts);
        Int32Tensor b = heurPlan.run(acts);
        for (std::int64_t i = 0; i < a.numel(); ++i)
            ASSERT_EQ(a.flat(i), b.flat(i))
                << "batch=" << batch << " i=" << i;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace bbs
