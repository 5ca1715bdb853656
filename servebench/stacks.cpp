#include "stacks.hpp"

#include <algorithm>
#include <mutex>
#include <thread>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "net/net_client.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "util.hpp"

namespace servebench {

using namespace bbs;

Int8Network
buildClassifier()
{
    Rng rng(0xb0b5);
    Network net;
    net.add(std::make_unique<Dense>(768, 3072, rng));
    net.add(std::make_unique<GeluLayer>());
    net.add(std::make_unique<Dense>(3072, 768, rng));
    net.add(std::make_unique<Dense>(768, 3072, rng));
    net.add(std::make_unique<GeluLayer>());
    net.add(std::make_unique<Dense>(3072, 768, rng));
    net.add(std::make_unique<Dense>(768, 128, rng));
    return Int8Network::fromNetwork(net, 32, 4,
                                    PruneStrategy::ZeroPointShifting);
}

llm::TransformerConfig
generatorConfig()
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

ServerConfig
classifyServerConfig()
{
    ServerConfig cfg;
    cfg.maxBatch = kClassifyMaxBatch;
    return cfg;
}

ClassifyPool
makeClassifyPool(const Int8Network &net, std::uint64_t seed, int count)
{
    ClassifyPool pool;
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xc1a5);
    const InferencePolicy perRow{engine::Calibration::PerRow,
                                 engine::PlanKind::Auto};
    for (int i = 0; i < count; ++i) {
        Batch x(Shape{1, net.inputFeatures()});
        for (std::int64_t j = 0; j < x.numel(); ++j)
            x.flat(j) = static_cast<float>(rng.uniformReal(-1.0, 1.0));
        Batch y = net.forward(x, perRow);
        std::vector<float> logits(y.data().begin(), y.data().end());
        pool.predicted.push_back(argmaxLogits(logits));
        pool.logits.push_back(std::move(logits));
        pool.rows.emplace_back(x.data().begin(), x.data().end());
    }
    return pool;
}

PromptPool
makePromptPool(const llm::TransformerModel &model, std::uint64_t seed,
               int count, int minLen, int maxLen, std::uint32_t maxNew)
{
    PromptPool pool;
    pool.maxNew = maxNew;
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x9e7);
    std::vector<std::int64_t> lengths;
    std::int64_t span = maxLen - minLen + 1;
    for (int i = 0; i < count; ++i)
        lengths.push_back(rng.uniformInt(minLen + span * i / count,
                                         minLen + span * (i + 1) / count - 1));
    rng.shuffle(lengths);
    for (std::int64_t len : lengths) {
        std::vector<std::int32_t> p(static_cast<std::size_t>(len));
        for (auto &t : p)
            t = static_cast<std::int32_t>(
                rng.uniformInt(0, model.config().vocab - 1));
        pool.prompts.push_back(std::move(p));
    }

    pool.setupPrompt.assign(pool.prompts.front().begin(),
                            pool.prompts.front().begin() +
                                std::min<std::size_t>(
                                    8, pool.prompts.front().size()));
    pool.setupToken = model.generateReference(pool.setupPrompt, 1).front();

    // The unbatched oracle is slow (one row per forward), so prompts run
    // four at a time, each on one engine thread.
    pool.tokens.resize(pool.prompts.size());
    setWorkerThreadCap(1);
    std::vector<std::thread> workers;
    std::size_t next = 0;
    std::mutex mutex;
    for (int w = 0; w < 4; ++w)
        workers.emplace_back([&] {
            for (;;) {
                std::size_t i;
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (next >= pool.prompts.size())
                        return;
                    i = next++;
                }
                pool.tokens[i] = model.generateReference(
                    pool.prompts[i], static_cast<std::int64_t>(maxNew));
            }
        });
    for (auto &w : workers)
        w.join();
    setWorkerThreadCap(0);
    return pool;
}

std::unique_ptr<ClassifyStack>
startClassify(const std::string &container, const ClassifyPool &pool,
              SetupTimes &t)
{
    auto s = std::make_unique<ClassifyStack>();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<const store::MappedContainer> mapped;
    if (!store::MappedContainer::tryOpen(container, mapped))
        return nullptr;
    const Clock::time_point t1 = Clock::now();
    s->model = std::make_shared<const Int8Network>(store::mapModel(mapped));
    const Clock::time_point t2 = Clock::now();
    auto registry = std::make_shared<ModelRegistry>();
    registry->add(kClassifyModel, s->model);
    s->server =
        std::make_unique<InferenceServer>(registry, classifyServerConfig());
    s->net = std::make_unique<net::NetServer>(*s->server);
    s->net->start();
    net::NetClient client;
    client.connect("127.0.0.1", s->net->port(), 30000);
    const Clock::time_point t3 = Clock::now();
    auto reply = client.request(kClassifyModel, pool.rows[0]);
    const Clock::time_point t4 = Clock::now();
    t.cpuS = processCpuSeconds() - cpu0;
    t.wallS = secondsBetween(t0, t4);
    t.openMs = msBetween(t0, t1);
    t.mapMs = msBetween(t1, t2);
    t.firstRequestMs = msBetween(t3, t4);
    t.firstReplyOk =
        reply &&
        matchesOracle(pool, 0,
                      reply->status == static_cast<std::uint8_t>(
                                           ServeStatus::Ok),
                      reply->logits);
    return s;
}

std::unique_ptr<GenerateStack>
startGenerate(const PromptPool &pool, SetupTimes &t)
{
    auto s = std::make_unique<GenerateStack>();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    s->model = std::make_unique<llm::TransformerModel>(generatorConfig());
    s->server = std::make_unique<InferenceServer>(
        std::make_shared<ModelRegistry>(), ServerConfig{});
    serve::GenerationConfig gcfg;
    gcfg.maxStepRows = 32;
    gcfg.maxActiveSeqs = 16;
    gcfg.prefillChunk = 16;
    gcfg.workers = 1;
    s->scheduler = std::make_unique<serve::GenerationScheduler>(
        *s->model, gcfg, &s->server->metrics());
    s->net = std::make_unique<net::NetServer>(*s->server);
    s->net->attachGeneration(kGenerateModel, s->scheduler.get());
    s->net->start();
    net::NetClient client;
    client.connect("127.0.0.1", s->net->port(), 30000);
    const Clock::time_point t1 = Clock::now();
    auto tokens = client.generateCollect(kGenerateModel, pool.setupPrompt, 1);
    const Clock::time_point t2 = Clock::now();
    t.cpuS = processCpuSeconds() - cpu0;
    t.wallS = secondsBetween(t0, t2);
    t.firstRequestMs = msBetween(t1, t2);
    t.firstReplyOk =
        tokens && tokens->size() == 1 && tokens->front() == pool.setupToken;
    return s;
}

} // namespace servebench
