/**
 * @file
 * Model-store load path: mmap-backed BBMS container vs packing the
 * model from its INT8 codes, at the scale of the largest transformer
 * benchmark's MLP stack (BERT-base FFN blocks: 768<->3072, ~9.5M
 * weights).
 *
 * Three claims, all CI gates in Release:
 *
 *  1. SPEED: loading the model from its container (open + validate +
 *     map + per-layer plan creation) is >= 20x faster than packing each
 *     layer from its INT8 codes plus plan creation (Session::pack
 *     BBS-compresses every group into planes; the container's payload
 *     IS the in-memory layout, so mapping replaces that work with page
 *     faults).
 *  2. FIRST-TOUCH BIT-IDENTITY: the mapped network's very first forward
 *     pass — activations faulting the weight pages in on demand — is
 *     bit-identical to the owned network it was packed from.
 *  3. SHARED PAGES: a second process opening the same container shares
 *     physical pages with this one. Verified via /proc/self/smaps
 *     proportional-set-size accounting: with two mappers, the
 *     container mapping's Pss must drop well below its Rss (each
 *     shared page charges 1/2 to each process). Skipped (without
 *     failing) when /proc is unavailable.
 *
 * `--json FILE` lands the measurements next to the other BENCH_*.json
 * artifacts.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_common.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "engine/engine.hpp"
#include "nn/int8_infer.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "store/container.hpp"
#include "store/model_store.hpp"

namespace {

using namespace bbs;

constexpr double kLoadSpeedupGate = 20.0;
constexpr double kPssShareGate = 0.75; // two mappers: expect ~0.5

double
wallSecondsOf(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** BERT-base-shaped MLP stack: two FFN blocks plus a classifier head —
 *  the largest dense shapes in the model zoo's transformer lineup. */
Int8Network
buildStoreBenchModel()
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
    // targetColumns 4: the standard operating point; also keeps mapped
    // plan creation from staging a dense repack, like serving configs.
    return Int8Network::fromNetwork(net, 32, 4,
                                    PruneStrategy::ZeroPointShifting);
}

Batch
randomBatch(std::int64_t n, std::int64_t features, std::uint64_t seed)
{
    Rng rng(seed);
    Batch x(Shape{n, features});
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x.flat(i) = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    return x;
}

/** Rss/Pss (bytes) of every smaps mapping whose pathname is @p path. */
bool
smapsForPath(const std::string &path, std::uint64_t &rssBytes,
             std::uint64_t &pssBytes)
{
    std::ifstream smaps("/proc/self/smaps");
    if (!smaps.good())
        return false;
    rssBytes = pssBytes = 0;
    bool inMapping = false, sawMapping = false;
    std::string line;
    while (std::getline(smaps, line)) {
        if (line.find('-') != std::string::npos &&
            line.find(' ') != std::string::npos &&
            line.find("kB") == std::string::npos) {
            // Range header line: "start-end perms off dev inode path".
            inMapping = line.size() >= path.size() &&
                        line.compare(line.size() - path.size(),
                                     path.size(), path) == 0;
            sawMapping |= inMapping;
            continue;
        }
        if (!inMapping)
            continue;
        std::uint64_t kb = 0;
        if (std::sscanf(line.c_str(), "Rss: %lu kB",
                        reinterpret_cast<unsigned long *>(&kb)) == 1)
            rssBytes += kb << 10;
        else if (std::sscanf(line.c_str(), "Pss: %lu kB",
                             reinterpret_cast<unsigned long *>(&kb)) == 1)
            pssBytes += kb << 10;
    }
    return sawMapping;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printHeader(
        "micro_store: mmap model container vs packing from INT8",
        "mapping a BBMS container is the in-memory layout + page "
        "faults; packing from INT8 compresses every group");
    bench::jsonInit("micro_store", argc, argv);

    std::cout << "packing the benchmark model (BERT-base FFN shapes)...\n";
    Int8Network owned = buildStoreBenchModel();

    std::string path = "/tmp/bbs_micro_store_" +
                       std::to_string(::getpid()) + ".bbms";
    std::size_t containerBytes = store::writeModelContainer(owned, path);

    // Baseline inputs: each layer's INT8 codes (the same compressed-
    // domain weights the container holds), decoded before timing.
    std::vector<Int8Tensor> codes;
    for (const auto &layer : owned.layers())
        codes.push_back(layer.planes->decompress());

    // ---- load timing: best of a few reps each, both paths warm in
    //      memory (codes in RAM, container in page cache) — the delta
    //      measured is packing work, which is the point.
    constexpr int kReps = 5;
    double packS = 1e30, mapS = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
        packS = std::min(packS, wallSecondsOf([&] {
            for (std::size_t i = 0; i < codes.size(); ++i) {
                engine::PackedOperand op = engine::defaultSession().pack(
                    codes[i],
                    engine::PackOptions{owned.layers()[i].groupSize, 4,
                                        PruneStrategy::ZeroPointShifting});
                engine::MatmulPlan plan =
                    engine::defaultSession().plan(op);
                BBS_REQUIRE(plan.valid(), "baseline plan invalid");
            }
        }));
        mapS = std::min(mapS, wallSecondsOf([&] {
            auto container = store::MappedContainer::open(path);
            Int8Network mapped = store::mapModel(container);
            BBS_REQUIRE(mapped.layers().size() == owned.layers().size(),
                        "mapped layer count mismatch");
        }));
    }
    double speedup = packS / mapS;

    // ---- first-touch bit-identity: a FRESH mapping's first forward.
    bool identical = true;
    {
        auto container = store::MappedContainer::open(path);
        Int8Network mapped = store::mapModel(container);
        Batch x = randomBatch(4, owned.inputFeatures(), 0x717e);
        Batch want = owned.forward(x);
        Batch got = mapped.forward(x);
        for (std::int64_t i = 0; i < want.numel(); ++i)
            if (want.flat(i) != got.flat(i)) {
                identical = false;
                break;
            }
    }

    // ---- two-process page sharing via smaps Pss. The parent keeps
    //      its mapping faulted in; the child maps the same file and
    //      holds it across the parent's smaps read.
    bool shareChecked = false, sharePassed = true;
    double pssOverRss = 0.0;
    auto parentContainer = store::MappedContainer::open(path);
    parentContainer->adviseWillNeed();
    Int8Network parentMapped = store::mapModel(parentContainer);
    (void)parentMapped.forward(
        randomBatch(1, parentMapped.inputFeatures(), 1));

    std::uint64_t rssSolo = 0, pssSolo = 0;
    if (smapsForPath(path, rssSolo, pssSolo) && rssSolo > 0) {
        int toChild[2], toParent[2];
        if (::pipe(toChild) == 0 && ::pipe(toParent) == 0) {
            pid_t pid = ::fork();
            if (pid == 0) {
                // Child: independent mapping of the same container,
                // then hold it until the parent has read smaps. Open
                // validation reads only the metadata and the per-group
                // bit and shift bytes, so the child faults the whole
                // payload in with the checksum pass, which reads every
                // section.
                ::close(toChild[1]);
                ::close(toParent[0]);
                std::shared_ptr<const store::MappedContainer> c;
                char byte = store::MappedContainer::tryOpen(path, c) &&
                                    c->verifyChecksums()
                                ? '1'
                                : '0';
                (void)!::write(toParent[1], &byte, 1);
                (void)!::read(toChild[0], &byte, 1);
                ::_exit(0);
            }
            ::close(toChild[0]);
            ::close(toParent[1]);
            char byte = '0';
            if (::read(toParent[0], &byte, 1) == 1 && byte == '1') {
                std::uint64_t rss = 0, pss = 0;
                if (smapsForPath(path, rss, pss) && rss > 0) {
                    shareChecked = true;
                    pssOverRss = static_cast<double>(pss) /
                                 static_cast<double>(rss);
                    sharePassed = pssOverRss <= kPssShareGate;
                }
            }
            (void)!::write(toChild[1], &byte, 1);
            ::close(toChild[1]);
            ::close(toParent[0]);
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
    }

    Table table({"metric", "value"});
    table.addRow({"container bytes",
                  format("%.1f MiB", containerBytes / 1048576.0)});
    table.addRow({"pack-from-INT8 load", format("%.1f ms", packS * 1e3)});
    table.addRow({"mapped load", format("%.2f ms", mapS * 1e3)});
    table.addRow({"speedup", bench::times(speedup)});
    table.addRow({"first-touch bit-identity", identical ? "yes" : "NO"});
    table.addRow({"two-process Pss/Rss",
                  shareChecked ? format("%.2f", pssOverRss)
                               : "skipped (/proc unavailable)"});
    table.print(std::cout);

    bench::jsonAdd("store-load", "bert_ffn_stack",
                   {{"container_mib", containerBytes / 1048576.0},
                    {"pack_ms", packS * 1e3},
                    {"mapped_ms", mapS * 1e3},
                    {"speedup", speedup},
                    {"bit_identical", identical ? 1.0 : 0.0},
                    {"pss_over_rss", shareChecked ? pssOverRss : -1.0}});
    bench::jsonFlush();

    bool gatePassed = true;
    if (!identical) {
        std::cout << "\nmapped inference DIVERGED from the owned "
                     "network!\n";
        gatePassed = false;
    }
    if (speedup < kLoadSpeedupGate) {
        std::cout << format("\nmapped load speedup %.1fx BELOW the "
                            "%.0fx gate!\n",
                            speedup, kLoadSpeedupGate);
        gatePassed = false;
    }
    if (shareChecked && !sharePassed) {
        std::cout << format("\ntwo-process Pss/Rss %.2f above %.2f: "
                            "pages are NOT being shared!\n",
                            pssOverRss, kPssShareGate);
        gatePassed = false;
    }
    if (gatePassed)
        std::cout << format("\nstore gates met (>= %.0fx load speedup, "
                            "bit-identical first touch%s)\n",
                            kLoadSpeedupGate,
                            shareChecked ? ", shared pages" : "");

    std::remove(path.c_str());
    return gatePassed ? 0 : 1;
}
