/**
 * @file
 * Transformer decode subsystem tests. The load-bearing invariants:
 *
 *  - **KV append = the token rows.** Incrementally appending token K/V
 *    rows leaves the cache's `[layer][head][token][dHead]` stores equal
 *    to the token matrix built from scratch, zero rows beyond the
 *    written tokens, at exactly the requested capacity — for ragged head
 *    widths, capacities on and off multiples of 64, and any append order
 *    over layers.
 *  - **Attention's products are exact.** `scores()` / `values()`, on
 *    int8 rows and on bit-plane packed rows (the probability row packed
 *    at the token count or at the capacity), reproduce int64 scalar dot
 *    products.
 *  - **The arithmetic is pinned.** The chat-shaped model's greedy tokens
 *    and one 16-row step's `next` values equal figures captured from an
 *    independent implementation (bit-plane K/V scored by AND+popcount),
 *    so a rewrite that changed the numbers everywhere at once still
 *    fails.
 *  - **Batch composition and thread count are unobservable.** A
 *    sequence's token stream from the continuous-batching scheduler is
 *    identical to `generateReference` (the naive unbatched oracle) no
 *    matter what it was co-batched with, when it was admitted, or how
 *    prefill was chunked; a step's outputs and cache contents are the
 *    same under every worker-thread cap.
 *  - **The concurrency contract holds under TSAN.** A reader honouring
 *    the committed-prefix rule races with an appending writer without a
 *    data race, and attention's parallel region reads rows that the
 *    step's own thread appended.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "engine/engine.hpp"
#include "gemm/gemm.hpp"
#include "llm/kv_cache.hpp"
#include "llm/transformer.hpp"
#include "serve/generation.hpp"

#ifndef GTEST_FLAG_SET // googletest < 1.12; same definition as later releases
#define GTEST_FLAG_SET(name, value) (void)(::testing::GTEST_FLAG(name) = value)
#endif

namespace bbs {
namespace {

std::vector<std::int8_t>
randomRow(Rng &rng, std::int64_t n)
{
    std::vector<std::int8_t> row(static_cast<std::size_t>(n));
    for (auto &v : row)
        v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    return row;
}

/** Append T random tokens into a fresh cache; returns per-token rows
 *  [t][layer] as heads*dHead int8 vectors (K and V). */
struct AppendedTokens
{
    std::vector<std::vector<std::vector<std::int8_t>>> k, v;
};

AppendedTokens
appendRandomTokens(llm::KvCache &cache, std::int64_t tokens, Rng &rng)
{
    AppendedTokens out;
    std::int64_t width = cache.heads() * cache.dHead();
    for (std::int64_t t = 0; t < tokens; ++t) {
        out.k.emplace_back();
        out.v.emplace_back();
        for (std::int64_t l = 0; l < cache.layers(); ++l) {
            out.k.back().push_back(randomRow(rng, width));
            out.v.back().push_back(randomRow(rng, width));
            cache.append(l, t, out.k.back().back(),
                         static_cast<float>(rng.uniformReal(0.5, 2.0)),
                         out.v.back().back(),
                         static_cast<float>(rng.uniformReal(0.5, 2.0)));
        }
        cache.commit(t + 1);
    }
    return out;
}

/** Rows @p t of layer @p l, head @p h, as appended: K or V. */
const std::int8_t *
appendedRow(const std::vector<std::vector<std::vector<std::int8_t>>> &rows,
            std::int64_t t, std::int64_t l, std::int64_t h,
            std::int64_t dHead)
{
    return rows[static_cast<std::size_t>(t)][static_cast<std::size_t>(l)]
               .data() +
           h * dHead;
}

TEST(KvCache, AppendMatchesFromScratchPack)
{
    Rng rng(0xfeed0);
    struct Shape
    {
        std::int64_t layers, heads, dHead, capacity, tokens;
    };
    // Head widths 64, 33 (ragged) and 1 (degenerate); capacities on and
    // off multiples of 64, full and partly written.
    const Shape shapes[] = {
        {1, 1, 64, 64, 64},   {2, 2, 33, 100, 65},  {1, 3, 33, 192, 128},
        {2, 1, 1, 7, 7},      {1, 2, 1, 130, 128},  {1, 2, 64, 201, 200},
        {2, 2, 64, 1, 1},
    };
    for (const Shape &s : shapes) {
        llm::KvCache cache({s.layers, s.heads, s.dHead, s.capacity});
        ASSERT_EQ(cache.capacity(), s.capacity); // not rounded
        AppendedTokens toks = appendRandomTokens(cache, s.tokens, rng);
        ASSERT_EQ(cache.length(), s.tokens);
        // One K and one V byte per (layer, head, token, dim), one K and
        // one V scale per (layer, token).
        EXPECT_EQ(cache.residentBytes(),
                  2 * s.layers * s.heads * s.capacity * s.dHead +
                      2 * s.layers * s.capacity * 4);

        const std::vector<std::int8_t> zeros(
            static_cast<std::size_t>(s.dHead), 0);
        for (std::int64_t l = 0; l < s.layers; ++l) {
            for (std::int64_t h = 0; h < s.heads; ++h) {
                for (std::int64_t t = 0; t < s.capacity; ++t) {
                    bool written = t < s.tokens;
                    const std::int8_t *kWant =
                        written ? appendedRow(toks.k, t, l, h, s.dHead)
                                : zeros.data();
                    const std::int8_t *vWant =
                        written ? appendedRow(toks.v, t, l, h, s.dHead)
                                : zeros.data();
                    ASSERT_EQ(std::memcmp(cache.kRow(l, h, t), kWant,
                                          static_cast<std::size_t>(s.dHead)),
                              0)
                        << "K row l=" << l << " h=" << h << " t=" << t;
                    ASSERT_EQ(std::memcmp(cache.vRow(l, h, t), vWant,
                                          static_cast<std::size_t>(s.dHead)),
                              0)
                        << "V row l=" << l << " h=" << h << " t=" << t;
                }
            }
        }
    }
}

TEST(KvCache, ScoresAndValuesMatchScalarDots)
{
    Rng rng(0xfeed1);
    const std::int64_t layers = 2, heads = 2, dHead = 48, capacity = 150;
    llm::KvCache cache({layers, heads, dHead, capacity});
    // Every slot holds a token, so a product reading past its bound
    // would pick up live values.
    AppendedTokens toks = appendRandomTokens(cache, capacity, rng);

    std::vector<std::int8_t> q = randomRow(rng, dHead);
    BitSerialMatrix qPacked = BitSerialMatrix::pack(q, 1, dHead);
    engine::PackedOperand qOp = engine::PackedOperand::viewDense(qPacked);

    Int32Tensor s32, o32;
    std::vector<std::int32_t> s8(static_cast<std::size_t>(capacity));
    std::vector<std::int32_t> o8(static_cast<std::size_t>(dHead));
    for (std::int64_t tokens : {1, 63, 64, 65, 128, 150}) {
        // The probability row: T live columns, zero beyond.
        std::vector<std::int8_t> c(static_cast<std::size_t>(capacity), 0);
        for (std::int64_t t = 0; t < tokens; ++t)
            c[static_cast<std::size_t>(t)] =
                static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        std::size_t T = static_cast<std::size_t>(tokens);
        for (std::int64_t l = 0; l < layers; ++l) {
            for (std::int64_t h = 0; h < heads; ++h) {
                cache.scores(l, h, q, {s8.data(), T});
                cache.scores(l, h, qOp, tokens, s32);
                ASSERT_EQ(s32.shape().dim(0), 1);
                ASSERT_EQ(s32.shape().dim(1), tokens);
                for (std::int64_t t = 0; t < tokens; ++t) {
                    std::int64_t want = 0;
                    const std::int8_t *kRow =
                        appendedRow(toks.k, t, l, h, dHead);
                    for (std::int64_t d = 0; d < dHead; ++d)
                        want += static_cast<std::int64_t>(
                                    q[static_cast<std::size_t>(d)]) *
                                kRow[d];
                    EXPECT_EQ(s8[static_cast<std::size_t>(t)], want)
                        << "int8 score T=" << tokens << " l=" << l
                        << " h=" << h << " t=" << t;
                    EXPECT_EQ(s32.at(0, t), want)
                        << "packed score T=" << tokens << " l=" << l
                        << " h=" << h << " t=" << t;
                }

                std::vector<std::int64_t> want(
                    static_cast<std::size_t>(dHead), 0);
                for (std::int64_t d = 0; d < dHead; ++d)
                    for (std::int64_t t = 0; t < tokens; ++t)
                        want[static_cast<std::size_t>(d)] +=
                            static_cast<std::int64_t>(
                                c[static_cast<std::size_t>(t)]) *
                            appendedRow(toks.v, t, l, h, dHead)[d];
                cache.values(l, h, {c.data(), T}, o8);
                for (std::int64_t d = 0; d < dHead; ++d)
                    EXPECT_EQ(o8[static_cast<std::size_t>(d)],
                              want[static_cast<std::size_t>(d)])
                        << "int8 value T=" << tokens << " l=" << l
                        << " h=" << h << " d=" << d;
                // Packed at T columns and at the full capacity (zero
                // columns beyond T): both equal the oracle.
                for (std::int64_t width : {tokens, capacity}) {
                    BitSerialMatrix cPacked = BitSerialMatrix::pack(
                        std::span<const std::int8_t>(
                            c.data(), static_cast<std::size_t>(width)),
                        1, width);
                    cache.values(l, h,
                                 engine::PackedOperand::viewDense(cPacked),
                                 o32);
                    ASSERT_EQ(o32.shape().dim(0), 1);
                    ASSERT_EQ(o32.shape().dim(1), dHead);
                    for (std::int64_t d = 0; d < dHead; ++d)
                        EXPECT_EQ(o32.at(0, d),
                                  want[static_cast<std::size_t>(d)])
                            << "packed value T=" << tokens
                            << " width=" << width << " l=" << l
                            << " h=" << h << " d=" << d;
                }
            }
        }
    }
}

// The shape checks that guard the raw row offsets: a cache holds
// 1..kMaxGemmDepth tokens, a query is dHead wide, a score covers
// 1..capacity tokens, a probability row is at most capacity wide and a
// weighted value is dHead wide. The threadsafe style re-executes the
// binary for each child instead of forking this multithreaded process.
TEST(KvCacheDeathTest, ShapeChecks)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    EXPECT_EXIT(llm::KvCache({1, 1, 32, kMaxGemmDepth + 1}),
                ::testing::ExitedWithCode(1), "KvCache capacity");
    EXPECT_EXIT(llm::KvCache({1, 1, 32, 0}), ::testing::ExitedWithCode(1),
                "KvCache capacity");
    llm::KvCache cache({1, 1, 32, 64});
    Rng rng(0xfeed3);
    appendRandomTokens(cache, 8, rng);
    std::vector<std::int8_t> q8 = randomRow(rng, 32);
    std::vector<std::int8_t> q33 = randomRow(rng, 33);
    std::vector<std::int8_t> c65 = randomRow(rng, 65);
    std::vector<std::int32_t> out(65);
    std::span<std::int32_t> out8{out.data(), 8};
    std::span<std::int32_t> out32{out.data(), 32};
    EXPECT_EXIT(cache.scores(0, 0, q33, out8), ::testing::ExitedWithCode(1),
                "query width");
    EXPECT_EXIT(cache.scores(0, 0, q8, {out.data(), 0}),
                ::testing::ExitedWithCode(1), "score tokens");
    EXPECT_EXIT(cache.scores(0, 0, q8, {out.data(), 65}),
                ::testing::ExitedWithCode(1), "score tokens");
    EXPECT_EXIT(cache.values(0, 0, c65, out32),
                ::testing::ExitedWithCode(1), "exceeds the cache capacity");
    EXPECT_EXIT(cache.values(0, 0, {c65.data(), 8}, out8),
                ::testing::ExitedWithCode(1), "weighted-value width");

    Int32Tensor packedOut;
    BitSerialMatrix q = BitSerialMatrix::pack(q8, 1, 32);
    BitSerialMatrix wide = BitSerialMatrix::pack(q33, 1, 33);
    BitSerialMatrix cTooWide = BitSerialMatrix::pack(c65, 1, 65);
    auto op = [](const BitSerialMatrix &m) {
        return engine::PackedOperand::viewDense(m);
    };
    EXPECT_EXIT(cache.scores(0, 0, op(wide), 8, packedOut),
                ::testing::ExitedWithCode(1), "query width");
    EXPECT_EXIT(cache.scores(0, 0, op(q), 0, packedOut),
                ::testing::ExitedWithCode(1), "score tokens");
    EXPECT_EXIT(cache.scores(0, 0, op(q), 65, packedOut),
                ::testing::ExitedWithCode(1), "score tokens");
    EXPECT_EXIT(cache.values(0, 0, op(cTooWide), packedOut),
                ::testing::ExitedWithCode(1), "exceeds the cache capacity");
}

/** Writer appends and commits while a reader consumes the committed
 *  prefix per the documented contract. TSAN is the real assertion. */
TEST(KvCache, AppendUnderConcurrentRead)
{
    const std::int64_t layers = 1, heads = 2, dHead = 32, capacity = 250;
    llm::KvCache cache({layers, heads, dHead, capacity});
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> sink{0};

    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            std::int64_t len = cache.length(); // acquire
            std::uint64_t acc = 0;
            for (std::int64_t h = 0; h < heads; ++h)
                for (std::int64_t t = 0; t < len; ++t) {
                    acc ^= static_cast<std::uint64_t>(
                        cache.kScale(0, t) + cache.vScale(0, t));
                    for (std::int64_t d = 0; d < dHead; ++d)
                        acc += static_cast<std::uint8_t>(
                                   cache.kRow(0, h, t)[d]) ^
                               static_cast<std::uint8_t>(
                                   cache.vRow(0, h, t)[d]);
                }
            sink.fetch_add(acc ^ 1, std::memory_order_relaxed);
        }
    });

    Rng rng(0xfeed2);
    std::int64_t width = heads * dHead;
    for (std::int64_t t = 0; t < capacity; ++t) {
        std::vector<std::int8_t> k = randomRow(rng, width);
        std::vector<std::int8_t> v = randomRow(rng, width);
        cache.append(0, t, k, 1.0f, v, 1.0f);
        cache.commit(t + 1);
    }
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(cache.length(), capacity);
}

llm::TransformerConfig
smallConfig()
{
    llm::TransformerConfig cfg;
    cfg.dModel = 64;
    cfg.nHeads = 2;
    cfg.dFf = 128;
    cfg.nLayers = 2;
    cfg.vocab = 96;
    cfg.maxSeq = 96;
    cfg.groupSize = 32;
    cfg.expectedBatch = 8;
    cfg.seed = 7;
    return cfg;
}

std::vector<std::int32_t>
randomPrompt(Rng &rng, std::int64_t len, std::int64_t vocab)
{
    std::vector<std::int32_t> p(static_cast<std::size_t>(len));
    for (auto &t : p)
        t = static_cast<std::int32_t>(rng.uniformInt(0, vocab - 1));
    return p;
}

TEST(Transformer, GenerateReferenceIsDeterministic)
{
    llm::TransformerModel model(smallConfig());
    Rng rng(0x9e9);
    auto prompt = randomPrompt(rng, 12, model.config().vocab);
    auto a = model.generateReference(prompt, 8);
    auto b = model.generateReference(prompt, 8);
    ASSERT_EQ(a.size(), 8u);
    EXPECT_EQ(a, b);
}

/** servebench's chat model shape. */
llm::TransformerConfig
chatConfig()
{
    llm::TransformerConfig cfg;
    cfg.dModel = 256;
    cfg.nHeads = 4;
    cfg.dFf = 512;
    cfg.nLayers = 3;
    cfg.vocab = 512;
    cfg.maxSeq = 288;
    cfg.groupSize = 32;
    cfg.targetColumns = 3;
    cfg.expectedBatch = 16;
    cfg.seed = 0x11f0;
    return cfg;
}

/** Prefill @p cache with @p len random tokens, 16 rows per forward. */
void
prefillRandom(const llm::TransformerModel &model, llm::KvCache &cache,
              std::int64_t len, llm::TransformerModel::Workspace &ws,
              Rng &rng)
{
    std::vector<llm::StepRow> rows;
    for (std::int64_t p0 = 0; p0 < len; p0 += 16) {
        rows.clear();
        for (std::int64_t p = p0; p < std::min(len, p0 + 16); ++p) {
            llm::StepRow r;
            r.cache = &cache;
            r.token = static_cast<std::int32_t>(
                rng.uniformInt(0, model.config().vocab - 1));
            r.pos = p;
            rows.push_back(r);
        }
        model.forward(rows, ws);
    }
}

// Figures captured from the bit-plane KV cache that the int8 rows
// replaced (K/V stored as two's-complement planes and scored by
// AND+popcount), so they pin the arithmetic itself rather than the
// model's agreement with itself. Only greedy tokens are pinned: the
// float glue's last bits depend on the build (an optimized
// -march=native build contracts multiply-adds into FMAs, -O0 does not),
// and the cache rows differ between such builds while these tokens
// agree.
TEST(Transformer, ChatModelMatchesPinnedOutputs)
{
    llm::TransformerModel model(chatConfig());
    Rng rng(0x601d);
    struct Case
    {
        std::int64_t promptLen, maxNew;
        std::vector<std::int32_t> want;
    };
    const Case cases[] = {
        {1, 12, {458, 486, 192, 46, 423, 266, 408, 383, 464, 429, 108, 201}},
        {9, 10, {505, 456, 320, 506, 403, 436, 433, 399, 267, 27}},
        {30, 6, {238, 139, 117, 238, 139, 117}},
    };
    for (const Case &c : cases) {
        auto prompt = randomPrompt(rng, c.promptLen, model.config().vocab);
        EXPECT_EQ(model.generateReference(prompt, c.maxNew), c.want)
            << "prompt length " << c.promptLen;
    }

    // One 16-row decode step over sequences prefilled to 10 + 5i tokens.
    llm::TransformerModel::Workspace ws;
    std::vector<std::unique_ptr<llm::KvCache>> caches;
    for (int i = 0; i < 16; ++i) {
        caches.push_back(model.makeCache(model.config().maxSeq));
        prefillRandom(model, *caches.back(), 10 + 5 * i, ws, rng);
    }
    std::vector<llm::StepRow> rows(16);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i].cache = caches[i].get();
        rows[i].token = static_cast<std::int32_t>(
            rng.uniformInt(0, model.config().vocab - 1));
        rows[i].pos = caches[i]->length();
        rows[i].wantLogits = true;
    }
    model.forward(rows, ws);
    const std::int32_t wantNext[] = {493, 379, 355, 77,  206, 464,
                                     483, 303, 82,  273, 372, 355,
                                     298, 318, 157, 480};
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].next, wantNext[i]) << "row " << i;
}

/** A step's outputs and every cache row and scale it leaves. */
struct StepResult
{
    std::vector<std::int32_t> next;
    std::vector<std::int8_t> rows;
    std::vector<float> scales;

    bool operator==(const StepResult &) const = default;
};

/** Under worker cap @p cap: one step holding a 16-row prefill chunk of
 *  one sequence (positions 20..35) and decode rows of six others. */
StepResult
mixedStepUnderCap(const llm::TransformerModel &model, unsigned cap)
{
    setWorkerThreadCap(cap);
    Rng rng(0x7ca9);
    llm::TransformerModel::Workspace ws;
    const std::int64_t lens[] = {20, 12, 25, 33, 41, 50, 62};
    std::vector<std::unique_ptr<llm::KvCache>> caches;
    for (std::int64_t len : lens) {
        caches.push_back(model.makeCache(model.config().maxSeq));
        prefillRandom(model, *caches.back(), len, ws, rng);
    }
    auto token = [&] {
        return static_cast<std::int32_t>(
            rng.uniformInt(0, model.config().vocab - 1));
    };
    std::vector<llm::StepRow> rows;
    for (std::int64_t p = 20; p < 36; ++p)
        rows.push_back({caches[0].get(), token(), p, p == 35, 0});
    for (std::size_t i = 1; i < caches.size(); ++i)
        rows.push_back({caches[i].get(), token(), lens[i], true, 0});
    model.forward(rows, ws);
    setWorkerThreadCap(0);

    StepResult out;
    for (const llm::StepRow &row : rows)
        out.next.push_back(row.next);
    for (const auto &c : caches)
        for (std::int64_t l = 0; l < c->layers(); ++l) {
            for (std::int64_t h = 0; h < c->heads(); ++h)
                for (std::int64_t t = 0; t < c->capacity(); ++t)
                    for (const std::int8_t *row :
                         {c->kRow(l, h, t), c->vRow(l, h, t)})
                        out.rows.insert(out.rows.end(), row,
                                        row + c->dHead());
            for (std::int64_t t = 0; t < c->length(); ++t) {
                out.scales.push_back(c->kScale(l, t));
                out.scales.push_back(c->vScale(l, t));
            }
        }
    return out;
}

TEST(Transformer, StepIsIdenticalUnderEveryThreadCap)
{
    llm::TransformerModel model(smallConfig());
    const unsigned full = maxWorkerThreads();
    const StepResult serial = mixedStepUnderCap(model, 1);
    ASSERT_EQ(serial.next.size(), 22u);
    for (unsigned cap : {2u, 3u, full})
        EXPECT_TRUE(mixedStepUnderCap(model, cap) == serial)
            << "thread cap " << cap;
}

/** One collected stream per request. */
struct Collected
{
    std::vector<std::int32_t> tokens;
    ServeStatus status = ServeStatus::Ok;
    bool finished = false;
};

serve::StreamFn
collector(Collected &into)
{
    return [&into](const serve::StreamToken &t) {
        into.status = t.status;
        if (t.status == ServeStatus::Ok) {
            EXPECT_EQ(t.index, into.tokens.size());
            into.tokens.push_back(t.token);
        }
        if (t.last)
            into.finished = true;
    };
}

TEST(GenerationScheduler, ContinuousBatchingIsBitIdentical)
{
    llm::TransformerModel model(smallConfig());
    Rng rng(0xba7c);

    // Prompt lengths chosen to exercise chunked prefill (longer than
    // prefillChunk), single-token prompts, and mid-flight admission.
    const std::int64_t lens[] = {1, 3, 9, 17, 30, 5, 24, 2, 40, 11};
    const std::int64_t news[] = {6, 12, 3, 9, 1, 20, 7, 15, 4, 10};
    std::vector<std::vector<std::int32_t>> prompts;
    std::vector<std::vector<std::int32_t>> expected;
    for (std::size_t i = 0; i < std::size(lens); ++i) {
        prompts.push_back(
            randomPrompt(rng, lens[i], model.config().vocab));
        expected.push_back(
            model.generateReference(prompts.back(), news[i]));
    }

    serve::GenerationConfig gcfg;
    gcfg.maxStepRows = 8; // small: forces prefill chunking + queueing
    gcfg.maxActiveSeqs = 4;
    gcfg.prefillChunk = 5;
    gcfg.workers = 0;
    serve::GenerationScheduler sched(model, gcfg);

    std::vector<Collected> got(prompts.size());
    // Staggered submission: half up front, the rest mid-flight.
    for (std::size_t i = 0; i < prompts.size() / 2; ++i)
        sched.submit(prompts[i], news[i], collector(got[i]));
    int steps = 0;
    bool submittedRest = false;
    while (sched.stepOnce() || !submittedRest) {
        if (++steps == 3 && !submittedRest) {
            for (std::size_t i = prompts.size() / 2; i < prompts.size();
                 ++i)
                sched.submit(prompts[i], news[i], collector(got[i]));
            submittedRest = true;
        }
        ASSERT_LT(steps, 10000);
    }

    for (std::size_t i = 0; i < prompts.size(); ++i) {
        EXPECT_TRUE(got[i].finished) << "request " << i;
        EXPECT_EQ(got[i].status, ServeStatus::Ok);
        EXPECT_EQ(got[i].tokens, expected[i]) << "request " << i;
    }
    EXPECT_EQ(sched.activeSequences(), 0);
    EXPECT_EQ(sched.queuedSequences(), 0);
}

TEST(GenerationScheduler, WorkerThreadDrivesToCompletion)
{
    llm::TransformerModel model(smallConfig());
    Rng rng(0x3ead);
    auto prompt = randomPrompt(rng, 13, model.config().vocab);
    auto expected = model.generateReference(prompt, 10);

    serve::GenerationConfig gcfg;
    gcfg.workers = 1;
    serve::GenerationScheduler sched(model, gcfg);

    std::mutex m;
    std::condition_variable cv;
    Collected got;
    sched.submit(prompt, 10, [&](const serve::StreamToken &t) {
        std::lock_guard<std::mutex> lock(m);
        if (t.status == ServeStatus::Ok)
            got.tokens.push_back(t.token);
        got.status = t.status;
        if (t.last) {
            got.finished = true;
            cv.notify_one();
        }
    });
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return got.finished; }));
    EXPECT_EQ(got.tokens, expected);
}

TEST(GenerationScheduler, SubmitValidationAndShutdown)
{
    llm::TransformerModel model(smallConfig());
    serve::GenerationConfig gcfg;
    gcfg.maxQueuedSeqs = 1;
    gcfg.workers = 0;
    serve::GenerationScheduler sched(model, gcfg);

    Collected bad;
    sched.submit({}, 4, collector(bad)); // empty prompt
    EXPECT_TRUE(bad.finished);
    EXPECT_EQ(bad.status, ServeStatus::BadInput);

    std::vector<std::int32_t> outOfVocab{
        0, static_cast<std::int32_t>(model.config().vocab)};
    Collected bad2;
    sched.submit(outOfVocab, 4, collector(bad2));
    EXPECT_EQ(bad2.status, ServeStatus::BadInput);

    std::vector<std::int32_t> tooLong(
        static_cast<std::size_t>(model.config().maxSeq), 1);
    Collected bad3;
    sched.submit(tooLong, 4, collector(bad3)); // len + 4 - 1 > maxSeq
    EXPECT_EQ(bad3.status, ServeStatus::BadInput);

    std::vector<std::int32_t> ok{1, 2, 3};
    Collected q1, q2;
    sched.submit(ok, 4, collector(q1));
    sched.submit(ok, 4, collector(q2)); // queue is full (maxQueuedSeqs=1)
    EXPECT_FALSE(q1.finished);
    EXPECT_TRUE(q2.finished);
    EXPECT_EQ(q2.status, ServeStatus::Overloaded);

    sched.stop();
    EXPECT_TRUE(q1.finished); // queued request failed with ShutDown
    EXPECT_EQ(q1.status, ServeStatus::ShutDown);

    Collected late;
    sched.submit(ok, 4, collector(late));
    EXPECT_TRUE(late.finished);
    EXPECT_EQ(late.status, ServeStatus::ShutDown);
}

} // namespace
} // namespace bbs
