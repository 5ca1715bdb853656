/**
 * @file
 * End-to-end deployment pipeline, the full path weights travel in a real
 * BitVert deployment:
 *
 *   train -> per-channel INT8 PTQ -> engine Session::pack at a BBS
 *   operating point -> store::writeOperandContainer (the BBMS file) ->
 *   store::mapOperand -> plan.run bit-identity check -> batched integer
 *   inference -> accuracy check -> the serving runtime hosting every
 *   operating point behind one queue.
 *
 * The container is self-sufficient: the mapped operands reconstruct the
 * packed weights and their plans replay the originals bit-exactly. Offline
 * evaluation runs in serving-sized mini-batches; the final stage serves
 * live single-sample traffic through src/serve — request coalescing into
 * the same per-layer plans, with per-row calibration so batching never
 * changes a logit.
 */
#include <cstdio>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "common/table.hpp"
#include "engine/engine.hpp"
#include "nn/dataset.hpp"
#include "nn/evaluate.hpp"
#include "nn/int8_infer.hpp"
#include "quant/quantizer.hpp"
#include "serve/server.hpp"
#include "store/container.hpp"

int
main()
{
    using namespace bbs;

    engine::Session session;
    std::cout << engine::runtimeSummary() << "\n\n";

    // 1. Train a classifier.
    Dataset ds = makeClusterDataset(160, 5, 20, 271828);
    Rng rng(12);
    Network net;
    net.add(std::make_unique<Dense>(ds.features, 64, rng));
    net.add(std::make_unique<GeluLayer>());
    net.add(std::make_unique<Dense>(64, 32, rng));
    net.add(std::make_unique<GeluLayer>());
    net.add(std::make_unique<Dense>(32, ds.numClasses, rng));
    TrainOptions opts;
    opts.epochs = 18;
    trainNetwork(net, ds.trainX, ds.trainY, opts);
    double fp32Acc = accuracyPercent(net, ds.testX, ds.testY);
    std::cout << "FP32 accuracy: " << format("%.2f", fp32Acc) << "%\n\n";

    // 2. Quantize + pack each dense layer into one operand container;
    // count the bits of the BBS encoding.
    std::int64_t rawBytes = 0, packedBits = 0;
    std::vector<engine::PackedOperand> ops;
    for (FloatTensor *w : net.weightTensors()) {
        QuantizedTensor q = quantizePerChannel(*w, 8);
        ops.push_back(session.pack(
            q.values, engine::PackOptions{32, 4,
                                          PruneStrategy::ZeroPointShifting}));
        rawBytes += q.values.numel();
        // Stored columns plus one metadata byte per group.
        const CompressedRowPlanes &rows = ops.back().compressedRows();
        for (std::int64_t o = 0; o < rows.rows(); ++o)
            for (std::int64_t g = 0; g < rows.groupsPerRow(); ++g)
                packedBits += rows.bits(o, g) * rows.groupMembers(g) + 8;
    }
    std::string path =
        "/tmp/bbs_deploy_" + std::to_string(::getpid()) + ".bbms";
    std::size_t containerBytes = store::writeOperandContainer(ops, path);

    // 3. Map the container and verify it is self-sufficient: each mapped
    // operand reconstructs the same weights and its plan replays the
    // original bit-exactly.
    auto container = store::MappedContainer::open(path);
    std::remove(path.c_str()); // the mapping outlives the unlink
    for (std::size_t layer = 0; layer < ops.size(); ++layer) {
        const engine::PackedOperand &packed = ops[layer];
        engine::PackedOperand back = store::mapOperand(container, layer);
        Int8Tensor a = packed.unpack();
        Int8Tensor b = back.unpack();
        for (std::int64_t i = 0; i < a.numel(); ++i) {
            if (a.flat(i) != b.flat(i)) {
                std::cerr << "container round-trip mismatch!\n";
                return 1;
            }
        }
        Int8Tensor probe(Shape{4, a.shape().dim(1)});
        Rng prng(a.numel());
        for (std::int64_t i = 0; i < probe.numel(); ++i)
            probe.flat(i) =
                static_cast<std::int8_t>(prng.uniformInt(-128, 127));
        Int32Tensor y0 = session.plan(packed).run(probe);
        Int32Tensor y1 = session.plan(back).run(probe);
        for (std::int64_t i = 0; i < y0.numel(); ++i) {
            if (y0.flat(i) != y1.flat(i)) {
                std::cerr << "mapped plan deviated!\n";
                return 1;
            }
        }
    }
    std::cout << "Weight image: " << rawBytes << " B (INT8) -> "
              << packedBits / 8 << " B (BBS packed, "
              << format("%.2fx", 8.0 * static_cast<double>(rawBytes) /
                                     static_cast<double>(packedBits))
              << " smaller)\n";
    // What the container really holds per weight: the compact row
    // arrays (the resident footprint once mapped), and the file, whose
    // page-aligned sections dominate at this model size.
    std::size_t payloadBytes = 0;
    for (const engine::PackedOperand &op : ops) {
        const CompressedRowPlanes &rows = op.compressedRows();
        payloadBytes += rows.planes().size_bytes() +
                        rows.bits().size_bytes() +
                        rows.shifts().size_bytes() +
                        rows.constants().size_bytes();
    }
    const double weights = static_cast<double>(rawBytes);
    std::cout << "Container: "
              << format("%.2f", 8.0 * static_cast<double>(payloadBytes) /
                                    weights)
              << " bits/weight of row arrays ("
              << format("%.2f", static_cast<double>(payloadBytes) / weights)
              << " B/weight; file "
              << format("%.2f",
                        static_cast<double>(containerBytes) / weights)
              << " B/weight with page-aligned sections) vs "
              << format("%.2f", static_cast<double>(packedBits) / weights)
              << " ideal bits/weight of the BBS encoding\n";

    // 4. Batched integer inference through the GEMM engine, evaluated
    // in serving-sized mini-batches of 64; every operating point goes
    // into the serving registry for step 5.
    auto registry = std::make_shared<ModelRegistry>();
    Table t({"Engine", "Eff. bits", "Accuracy %"});
    for (int target : {0, 2, 4}) {
        Int8Network engine = Int8Network::fromNetwork(
            net, 32, target,
            target == 2 ? PruneStrategy::RoundedAveraging
                        : PruneStrategy::ZeroPointShifting);
        double acc = accuracyPercent(engine, ds.testX, ds.testY,
                                     /*batchSize=*/64);
        std::string label =
            target == 0 ? "INT8 (no pruning)"
                        : format("BBS %d columns", target);
        t.addRow({label, format("%.2f", engine.effectiveBits()),
                  format("%.2f", acc)});
        registry->add(target == 0 ? "int8" : format("bbs%d", target),
                      std::move(engine));
    }
    t.print(std::cout);
    std::cout << "\nAll inference above ran integer-only through each "
                 "layer's engine::MatmulPlan — the exact arithmetic the "
                 "BitVert PE performs, batched across each mini-batch "
                 "(and bit-identical to the per-dot plan kind).\n";

    // 5. Live serving: one InferenceServer hosts all three engines; a
    // few clients submit the test set as single-sample requests, which
    // the batcher coalesces back into GEMM batches.
    ServerConfig cfg;
    cfg.maxBatch = 32;
    cfg.maxDelayUs = 500;
    cfg.workers = 1;
    InferenceServer server(registry, cfg);

    const std::int64_t n = ds.testX.shape().dim(0);
    const std::int64_t features = ds.testX.shape().dim(1);
    std::vector<std::string> models = registry->names();
    std::vector<std::int64_t> hits(models.size(), 0);
    std::vector<std::int64_t> served(models.size(), 0);
    std::mutex tallyMutex;
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
            for (std::int64_t i = c; i < n; i += 4) {
                std::vector<float> input(
                    static_cast<std::size_t>(features));
                for (std::int64_t f = 0; f < features; ++f)
                    input[static_cast<std::size_t>(f)] =
                        ds.testX.at(i, f);
                for (std::size_t m = 0; m < models.size(); ++m) {
                    InferenceResponse resp =
                        server.submit(models[m], input).get();
                    if (resp.status != ServeStatus::Ok)
                        continue;
                    std::lock_guard<std::mutex> lock(tallyMutex);
                    ++served[m];
                    hits[m] +=
                        resp.predicted ==
                        ds.testY[static_cast<std::size_t>(i)];
                }
            }
        });
    }
    for (auto &c : clients)
        c.join();
    StatsSnapshot s = server.stats();
    server.stop();

    std::cout << "\nServing the test set as concurrent single-sample "
                 "requests (4 clients, maxBatch=32, maxDelayUs=500):\n";
    Table st({"Model", "Served", "Accuracy %"});
    for (std::size_t m = 0; m < models.size(); ++m)
        st.addRow({models[m],
                   format("%lld", static_cast<long long>(served[m])),
                   format("%.2f", 100.0 * static_cast<double>(hits[m]) /
                                      static_cast<double>(served[m]))});
    st.print(std::cout);
    std::cout << "batches " << s.batches << ", mean batch "
              << format("%.1f", s.meanBatchRows) << " rows, p50 "
              << format("%.2f", s.p50Us / 1e3) << " ms, p99 "
              << format("%.2f", s.p99Us / 1e3) << " ms, "
              << format("%.0f", s.throughputRps) << " req/s\n";
    if (s.completed != static_cast<std::uint64_t>(3 * n)) {
        std::cerr << "serving lost requests: " << s.completed << " != "
                  << 3 * n << "\n";
        return 1;
    }
    return 0;
}
