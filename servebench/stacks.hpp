/**
 * @file
 * The two serving stacks the workloads run against, with their seeded
 * inputs and oracles:
 *
 *  - classify: a BERT-base-FFN-shaped MLP mapped from a BBMS container
 *    (store::mapModel) behind InferenceServer + NetServer;
 *  - generation: a TransformerModel behind GenerationScheduler +
 *    NetServer (the Generate/StreamChunk frames).
 *
 * Each start*() call is one timed set-up: from the first library call
 * until the server has answered one request over the wire, in wall and
 * in process CPU time.
 */
#ifndef SERVEBENCH_STACKS_HPP
#define SERVEBENCH_STACKS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "llm/transformer.hpp"
#include "load.hpp"
#include "net/net_server.hpp"
#include "serve/generation.hpp"
#include "serve/server.hpp"
#include "store/container.hpp"

namespace servebench {

inline const char *const kClassifyModel = "ffn";
inline const char *const kGenerateModel = "lm";

/**
 * The classify server's batch bound: ServerConfig defaults otherwise.
 * With the default of 32 and the classify workload's 32 outstanding
 * requests, the batcher's all-aboard flush locks each run into its own
 * k / 32-k alternation of batch sizes (1/31 up to 16/16, the 1-row
 * batches running the per-dot plan), so throughput depended on which
 * split a run happened to start in. With 16 every batch is full.
 */
inline constexpr std::int64_t kClassifyMaxBatch = 16;

bbs::ServerConfig classifyServerConfig();

/** The classifier micro_store benchmarks: 768->3072->768->3072->768->128,
 *  group 32, 4 target columns, zero-point shifting. */
bbs::Int8Network buildClassifier();

/** micro_llm's transformer shape: d_model 256, 4 heads, d_ff 512,
 *  3 layers, vocab 512, max_seq 288, group 32, 3 target columns. */
bbs::llm::TransformerConfig generatorConfig();

/** @p count seeded rows of 768 features in [-1, 1) plus their oracle:
 *  Int8Network::forward on each row alone, per-row calibration. */
ClassifyPool makeClassifyPool(const bbs::Int8Network &net,
                              std::uint64_t seed, int count);

/**
 * @p count seeded prompts whose lengths are spread over
 * [minLen, maxLen] (one length per equal-width stratum, in seeded order)
 * plus their oracle: TransformerModel::generateReference, computed on
 * up to four threads.
 */
PromptPool makePromptPool(const bbs::llm::TransformerModel &model,
                          std::uint64_t seed, int count, int minLen,
                          int maxLen, std::uint32_t maxNew);

/** Timings of one set-up. */
struct SetupTimes
{
    double wallS = 0.0;
    double cpuS = 0.0;           ///< process CPU time over the same span
    double openMs = 0.0;         ///< MappedContainer::tryOpen
    double mapMs = 0.0;          ///< store::mapModel
    double firstRequestMs = 0.0; ///< the first wire request
    bool firstReplyOk = false;   ///< it matched its oracle
};

struct ClassifyStack
{
    /** Mapped from the container; its layers keep the mapping alive. */
    std::shared_ptr<const bbs::Int8Network> model;
    std::unique_ptr<bbs::InferenceServer> server;
    std::unique_ptr<bbs::net::NetServer> net;
};

struct GenerateStack
{
    std::unique_ptr<bbs::llm::TransformerModel> model;
    std::unique_ptr<bbs::InferenceServer> server; ///< NetServer needs one
    std::unique_ptr<bbs::serve::GenerationScheduler> scheduler;
    std::unique_ptr<bbs::net::NetServer> net;
};

/** Null when the container cannot be opened. */
std::unique_ptr<ClassifyStack> startClassify(const std::string &container,
                                             const ClassifyPool &pool,
                                             SetupTimes &t);

std::unique_ptr<GenerateStack> startGenerate(const PromptPool &pool,
                                             SetupTimes &t);

} // namespace servebench

#endif // SERVEBENCH_STACKS_HPP
