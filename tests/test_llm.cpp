/**
 * @file
 * Transformer decode subsystem tests. The load-bearing invariants:
 *
 *  - **KV append = repack.** Incrementally appending token K/V rows into
 *    the cache's compact plane groups is word-identical to packing the
 *    full token matrix (and its transpose) from scratch with
 *    `BitSerialMatrix::pack` — for ragged head widths, token counts on
 *    and off the 64-token boundary, and any append order over layers.
 *  - **Compressed-domain attention is exact.** `scores()` / `values()`
 *    running the AND+popcount group kernel over the cache reproduce
 *    scalar integer dot products, with the probability row packed at
 *    the token count or at the capacity.
 *  - **Batch composition is unobservable.** A sequence's token stream
 *    from the continuous-batching scheduler is identical to
 *    `generateReference` (the naive unbatched oracle) no matter what it
 *    was co-batched with, when it was admitted, or how prefill was
 *    chunked.
 *  - **The concurrency contract holds under TSAN.** A reader honouring
 *    the documented committed-prefix rules races with an appending
 *    writer without a data race.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "engine/engine.hpp"
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
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
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

/**
 * Every plane word of @p ref (a from-scratch `BitSerialMatrix::pack`)
 * against the cache's compact groups: @p group(b, row, word) returns the
 * cached word, or nullptr for a word the compact layout does not store
 * (the reference's padding), which must then be zero.
 */
template <typename GroupWord>
void
expectEveryWord(const BitSerialMatrix &ref, GroupWord group,
                const char *what, std::int64_t l, std::int64_t h)
{
    auto words = ref.planeWords();
    std::int64_t perPlane = ref.rows() * ref.colWords();
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(words.size());
         ++i) {
        int b = static_cast<int>(i / perPlane);
        std::int64_t r = i % perPlane / ref.colWords();
        std::int64_t w = i % ref.colWords();
        const std::uint64_t *got = group(b, r, w);
        ASSERT_EQ(got != nullptr ? *got : 0ull,
                  words[static_cast<std::size_t>(i)])
            << what << " plane " << b << " row " << r << " word " << w
            << " diverges at layer " << l << " head " << h;
    }
}

TEST(KvCache, AppendMatchesFromScratchPack)
{
    Rng rng(0xfeed0);
    struct Shape
    {
        std::int64_t layers, heads, dHead, capacity, tokens;
    };
    // Head widths 64, 33 (ragged) and 1 (degenerate), with token counts
    // on and off the 64-token V-word boundary.
    const Shape shapes[] = {
        {1, 1, 64, 64, 64},   {2, 2, 33, 128, 65},  {1, 3, 33, 192, 128},
        {2, 1, 1, 64, 7},     {1, 2, 1, 128, 128},  {1, 2, 64, 256, 200},
        {2, 2, 64, 192, 63},
    };
    for (const Shape &s : shapes) {
        llm::KvCache cache({s.layers, s.heads, s.dHead, s.capacity});
        AppendedTokens toks = appendRandomTokens(cache, s.tokens, rng);
        ASSERT_EQ(cache.length(), s.tokens);
        const std::int64_t cap = cache.capacity();
        // No padding: 8 words per token group plus 8 per (dim, V word),
        // and one K and one V scale per (layer, token).
        EXPECT_EQ(cache.residentBytes(),
                  s.layers * s.heads *
                          (cap + s.dHead * (cap / 64)) * kWeightBits * 8 +
                      2 * s.layers * cap * 4);

        for (std::int64_t l = 0; l < s.layers; ++l) {
            for (std::int64_t h = 0; h < s.heads; ++h) {
                // K reference: the [capacity, dHead] token matrix
                // (unwritten rows zero) packed from scratch.
                std::vector<std::int8_t> kFull(
                    static_cast<std::size_t>(cap * s.dHead));
                // V reference: its [dHead, capacity] transpose.
                std::vector<std::int8_t> vFull(
                    static_cast<std::size_t>(s.dHead * cap));
                for (std::int64_t t = 0; t < s.tokens; ++t) {
                    const std::int8_t *kRow =
                        toks.k[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(l)]
                                  .data() +
                        h * s.dHead;
                    const std::int8_t *vRow =
                        toks.v[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(l)]
                                  .data() +
                        h * s.dHead;
                    for (std::int64_t d = 0; d < s.dHead; ++d) {
                        kFull[static_cast<std::size_t>(t * s.dHead + d)] =
                            kRow[d];
                        vFull[static_cast<std::size_t>(d * cap + t)] =
                            vRow[d];
                    }
                }
                // A K token row is one word per plane (dHead <= 64); a V
                // dimension row is one word per 64 tokens.
                expectEveryWord(
                    BitSerialMatrix::pack(kFull, cap, s.dHead),
                    [&](int b, std::int64_t t, std::int64_t w) {
                        return w == 0 ? cache.kGroup(l, h, t) + b
                                      : nullptr;
                    },
                    "K", l, h);
                expectEveryWord(
                    BitSerialMatrix::pack(vFull, s.dHead, cap),
                    [&](int b, std::int64_t d, std::int64_t w) {
                        return w < cap / 64 ? cache.vGroup(l, h, d, w) + b
                                            : nullptr;
                    },
                    "V", l, h);
            }
        }
    }
}

TEST(KvCache, ScoresAndValuesMatchScalarDots)
{
    Rng rng(0xfeed1);
    const std::int64_t layers = 2, heads = 2, dHead = 48, capacity = 192;
    llm::KvCache cache({layers, heads, dHead, capacity});
    // Every slot holds a token, so a product reading past its bound
    // would pick up live values.
    AppendedTokens toks = appendRandomTokens(cache, capacity, rng);

    std::vector<std::int8_t> q = randomRow(rng, dHead);
    BitSerialMatrix qPacked = BitSerialMatrix::pack(q, 1, dHead);
    engine::PackedOperand qOp = engine::PackedOperand::viewDense(qPacked);

    Int32Tensor s32, o32;
    for (std::int64_t tokens : {1, 63, 64, 65, 192}) {
        // The probability row: T live columns, zero beyond.
        std::vector<std::int8_t> c(static_cast<std::size_t>(capacity), 0);
        for (std::int64_t t = 0; t < tokens; ++t)
            c[static_cast<std::size_t>(t)] =
                static_cast<std::int8_t>(rng.uniformInt(-127, 127));
        for (std::int64_t l = 0; l < layers; ++l) {
            for (std::int64_t h = 0; h < heads; ++h) {
                cache.scores(l, h, qOp, tokens, s32);
                ASSERT_EQ(s32.shape().dim(0), 1);
                ASSERT_EQ(s32.shape().dim(1), tokens);
                for (std::int64_t t = 0; t < tokens; ++t) {
                    std::int64_t want = 0;
                    const std::int8_t *kRow =
                        toks.k[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(l)]
                                  .data() +
                        h * dHead;
                    for (std::int64_t d = 0; d < dHead; ++d)
                        want += static_cast<std::int64_t>(
                                    q[static_cast<std::size_t>(d)]) *
                                kRow[d];
                    EXPECT_EQ(s32.at(0, t), want)
                        << "score T=" << tokens << " l=" << l
                        << " h=" << h << " t=" << t;
                }

                // Packed at T columns (the decode path) and at the full
                // capacity (zero columns beyond T): both equal the oracle.
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
                    for (std::int64_t d = 0; d < dHead; ++d) {
                        std::int64_t want = 0;
                        for (std::int64_t t = 0; t < tokens; ++t)
                            want += static_cast<std::int64_t>(
                                        c[static_cast<std::size_t>(t)]) *
                                    toks.v[static_cast<std::size_t>(t)]
                                          [static_cast<std::size_t>(l)]
                                          [static_cast<std::size_t>(
                                              h * dHead + d)];
                        EXPECT_EQ(o32.at(0, d), want)
                            << "value T=" << tokens << " width=" << width
                            << " l=" << l << " h=" << h << " d=" << d;
                    }
                }
            }
        }
    }
}

// The shape checks that guard the raw group offsets: a query must be
// dHead wide, a score covers 1..capacity tokens, and a probability row
// is at most capacity wide. The threadsafe style re-executes the binary
// for each child instead of forking this multithreaded process.
TEST(KvCacheDeathTest, ShapeChecks)
{
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    llm::KvCache cache({1, 1, 32, 64});
    Rng rng(0xfeed3);
    appendRandomTokens(cache, 8, rng);
    Int32Tensor out;
    BitSerialMatrix q = BitSerialMatrix::pack(randomRow(rng, 32), 1, 32);
    BitSerialMatrix wide = BitSerialMatrix::pack(randomRow(rng, 33), 1, 33);
    BitSerialMatrix cTooWide =
        BitSerialMatrix::pack(randomRow(rng, 65), 1, 65);
    auto op = [](const BitSerialMatrix &m) {
        return engine::PackedOperand::viewDense(m);
    };
    EXPECT_EXIT(cache.scores(0, 0, op(wide), 8, out),
                ::testing::ExitedWithCode(1), "query width");
    EXPECT_EXIT(cache.scores(0, 0, op(q), 0, out),
                ::testing::ExitedWithCode(1), "score tokens");
    EXPECT_EXIT(cache.scores(0, 0, op(q), 65, out),
                ::testing::ExitedWithCode(1), "score tokens");
    EXPECT_EXIT(cache.values(0, 0, op(cTooWide), out),
                ::testing::ExitedWithCode(1), "exceeds the cache capacity");
}

/** Writer appends and commits while a reader consumes the committed
 *  prefix per the documented contract. TSAN is the real assertion. */
TEST(KvCache, AppendUnderConcurrentRead)
{
    const std::int64_t layers = 1, heads = 2, dHead = 32, capacity = 256;
    llm::KvCache cache({layers, heads, dHead, capacity});
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> sink{0};

    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            std::int64_t len = cache.length(); // acquire
            std::uint64_t acc = 0;
            for (std::int64_t h = 0; h < heads; ++h) {
                for (std::int64_t t = 0; t < len; ++t)
                    for (int b = 0; b < kWeightBits; ++b)
                        acc ^= cache.kGroup(0, h, t)[b];
                // V: words strictly below len/64 only — the in-fill
                // word is writer-private until it holds 64 tokens.
                std::int64_t words = len >> 6;
                for (std::int64_t d = 0; d < dHead; ++d)
                    for (std::int64_t w = 0; w < words; ++w)
                        for (int b = 0; b < kWeightBits; ++b)
                            acc ^= cache.vGroup(0, h, d, w)[b];
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
