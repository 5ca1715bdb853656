/**
 * @file
 * The model store's contracts:
 *
 *  - ROUND-TRIP BIT-IDENTITY: a network or operand packed into a BBMS
 *    container and mapped back produces bit-identical plan outputs and
 *    forward passes — the mapped-view PackedOperand path IS the owned
 *    path, byte for byte (the tentpole claim).
 *  - HOSTILE INPUT: a container is untrusted. tryOpen rejects every
 *    truncation, bounds, alignment, overlap and payload-field
 *    corruption with a diagnostic and without exiting, never UB (CI
 *    runs this file under ASan/UBSan).
 *  - HOT-SWAP + LRU: registry swaps are versioned and atomic under
 *    concurrent lookups; the store's LRU eviction respects the budget
 *    and never evicts a pinned (refcounted) model.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "common/random.hpp"
#include "engine/engine.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "serve/model_registry.hpp"
#include "store/container.hpp"
#include "store/model_store.hpp"

namespace bbs {
namespace {

using engine::PackedOperand;
using engine::PackKind;
using engine::PackOptions;
using engine::Session;
using store::MappedContainer;
using store::ModelStore;
using store::StoreConfig;

Int8Tensor
randomMatrix(std::int64_t rows, std::int64_t cols, Rng &rng)
{
    Int8Tensor t(Shape{rows, cols});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    return t;
}

Int8Network
makeEngine(std::int64_t in, std::int64_t hidden, std::int64_t out,
           int targetColumns, std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.add(std::make_unique<Dense>(in, hidden, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(hidden, out, rng));
    return Int8Network::fromNetwork(net, 32, targetColumns,
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

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "bbs_store_" + name + "_" +
           std::to_string(::getpid()) + ".bbms";
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Every logit of two forward passes, bit-for-bit. */
void
expectSameLogits(const Batch &a, const Batch &b, const char *what)
{
    ASSERT_EQ(a.numel(), b.numel()) << what;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        ASSERT_EQ(a.flat(i), b.flat(i)) << what << " i=" << i;
}

// ------------------------------------------------- round-trip identity

TEST(StoreContainerTest, ModelRoundTripBitIdentity)
{
    Int8Network owned = makeEngine(24, 48, 8, 3, 0xab1e);
    std::string path = tempPath("model_rt");
    std::size_t bytes = store::writeModelContainer(owned, path);
    EXPECT_GT(bytes, 0u);

    auto container = MappedContainer::open(path);
    EXPECT_EQ(container->bytes(), bytes);
    EXPECT_EQ(container->layerCount(), owned.layers().size());
    Int8Network mapped = store::mapModel(container);

    EXPECT_EQ(mapped.inputFeatures(), owned.inputFeatures());
    EXPECT_EQ(mapped.outputFeatures(), owned.outputFeatures());
    EXPECT_DOUBLE_EQ(mapped.effectiveBits(), owned.effectiveBits());
    for (std::size_t i = 0; i < owned.layers().size(); ++i)
        EXPECT_TRUE(mapped.layers()[i].planes->mappedView());

    Batch x = randomBatch(7, owned.inputFeatures(), 99);
    for (auto calib :
         {engine::Calibration::PerBatch, engine::Calibration::PerRow}) {
        InferencePolicy policy;
        policy.calibration = calib;
        expectSameLogits(owned.forward(x, policy),
                         mapped.forward(x, policy), "model");
    }
    std::remove(path.c_str());
}

TEST(StoreContainerTest, OperandRoundTripBitIdentity)
{
    // Both representations, several operating points (including
    // all-pruned groups at target 0 via high targets and ragged tails).
    Rng rng(77);
    Session s;
    std::string path = tempPath("operand_rt");
    for (int target : {0, 3, 6}) {
        Int8Tensor w = randomMatrix(6, 96, rng);
        Int8Tensor acts = randomMatrix(9, 96, rng);
        std::vector<PackedOperand> ops;
        ops.push_back(s.pack(
            w, PackOptions{32, target, PruneStrategy::ZeroPointShifting}));
        ops.push_back(PackedOperand::packDense(w));
        store::writeOperandContainer(ops, path);

        auto container = MappedContainer::open(path);
        ASSERT_EQ(container->operandCount(), 2u);
        ASSERT_EQ(container->layerCount(), 0u);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            PackedOperand mapped = store::mapOperand(container, i);
            EXPECT_TRUE(mapped.mapped());
            EXPECT_EQ(mapped.kind(), ops[i].kind());
            EXPECT_EQ(mapped.rows(), ops[i].rows());
            EXPECT_EQ(mapped.cols(), ops[i].cols());
            EXPECT_DOUBLE_EQ(mapped.meanStoredBits(),
                             ops[i].meanStoredBits());

            Int32Tensor before = s.plan(ops[i]).run(acts);
            Int32Tensor after = s.plan(mapped).run(acts);
            for (std::int64_t k = 0; k < before.numel(); ++k)
                ASSERT_EQ(before.flat(k), after.flat(k))
                    << "target=" << target << " op=" << i << " k=" << k;

            // unpack() reconstructs the same INT8 matrix from the view.
            Int8Tensor a = ops[i].unpack(), b = mapped.unpack();
            for (std::int64_t k = 0; k < a.numel(); ++k)
                ASSERT_EQ(a.flat(k), b.flat(k));
        }
    }
    std::remove(path.c_str());
}

/** Fill and free some heap, so a writer that leaked uninitialised
 *  bytes would see different garbage on its next build. */
void
churnHeap(std::uint8_t fill)
{
    std::vector<std::vector<std::uint8_t>> blocks;
    for (std::size_t size : {64u, 128u, 4096u, 65536u, 1u << 20})
        blocks.emplace_back(size, fill);
}

TEST(StoreContainerTest, ContainerBytesDependOnlyOnTheModel)
{
    // Two builds of one network write byte-identical containers: unused
    // plane slots and every reserved field are zero, so no heap bytes
    // reach the disk.
    std::string pathA = tempPath("same_a"), pathB = tempPath("same_b");
    churnHeap(0xa5);
    store::writeModelContainer(makeEngine(24, 48, 8, 3, 0x5a3e), pathA);
    churnHeap(0x3c);
    store::writeModelContainer(makeEngine(24, 48, 8, 3, 0x5a3e), pathB);
    std::vector<std::uint8_t> a = readFile(pathA), b = readFile(pathB);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "two builds of one model wrote different bytes";

    // The same for an operand whose groups store fewer bits than its
    // stride (groups compressed at mixed targets), so unused slots
    // exist.
    auto mixedOperand = [] {
        Rng rng(0x71de);
        Int8Tensor w = randomMatrix(4, 64, rng);
        std::vector<CompressedGroup> groups;
        std::vector<std::int64_t> offsets{0};
        for (std::int64_t o = 0; o < 4; ++o) {
            for (std::int64_t g = 0; g < 2; ++g)
                groups.push_back(compressGroup(
                    w.channel(o).subspan(static_cast<std::size_t>(32 * g),
                                         32),
                    static_cast<int>((o + g) % 4),
                    PruneStrategy::ZeroPointShifting));
            offsets.push_back(static_cast<std::int64_t>(groups.size()));
        }
        return PackedOperand::fromPrepared(
            std::make_shared<const CompressedRowPlanes>(
                CompressedRowPlanes::prepare(groups, offsets, 64, 32)));
    };
    churnHeap(0x5a);
    PackedOperand first = mixedOperand();
    ASSERT_EQ(first.compressedRows().stride(), 8);
    store::writeOperandContainer({first}, pathA);
    churnHeap(0xc3);
    store::writeOperandContainer({mixedOperand()}, pathB);
    a = readFile(pathA);
    b = readFile(pathB);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "two builds of one operand wrote different bytes";
    std::remove(pathA.c_str());
    std::remove(pathB.c_str());
}

TEST(StoreContainerTest, MappingOutlivesContainerHandle)
{
    // The aliasing shared_ptr contract: dropping every direct container
    // reference must keep the mapping alive while a network or plan
    // built over it exists (this is what makes hot-swap drain safe).
    Int8Network owned = makeEngine(16, 24, 4, 2, 0xfeed);
    std::string path = tempPath("lifetime");
    store::writeModelContainer(owned, path);

    Batch x = randomBatch(5, owned.inputFeatures(), 5);
    Batch expected = owned.forward(x);
    Int8Network mapped = [&] {
        auto container = MappedContainer::open(path);
        return store::mapModel(container);
    }(); // container handle gone; pages must still be mapped
    expectSameLogits(expected, mapped.forward(x), "after handle drop");
    std::remove(path.c_str());
}

// --------------------------------------------------- hostile containers

class StoreFuzzTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = tempPath("fuzz");
        std::string goldenPath = tempPath("fuzz_golden");
        store::writeModelContainer(makeEngine(16, 24, 4, 3, 0x5eed),
                                   goldenPath);
        golden_ = readFile(goldenPath);
        std::remove(goldenPath.c_str());
        ASSERT_GE(golden_.size(), 4096u);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** tryOpen on @p bytes must reject without dying. */
    void
    expectRejected(const std::vector<std::uint8_t> &bytes,
                   const char *what)
    {
        writeFile(path_, bytes);
        std::shared_ptr<const MappedContainer> c;
        std::string error;
        EXPECT_FALSE(MappedContainer::tryOpen(path_, c, &error)) << what;
        EXPECT_FALSE(error.empty()) << what;
        EXPECT_EQ(c, nullptr) << what;
    }

    /** golden_ with bytes [at, at+n) overwritten by @p v. */
    std::vector<std::uint8_t>
    mutated(std::size_t at, std::initializer_list<std::uint8_t> v)
    {
        std::vector<std::uint8_t> bytes = golden_;
        std::size_t i = at;
        for (std::uint8_t b : v)
            bytes[i++] = b;
        return bytes;
    }

    std::string path_;
    std::vector<std::uint8_t> golden_;
};

TEST_F(StoreFuzzTest, TruncationsAtEveryBoundary)
{
    // Every interesting prefix: empty, partial header, header only,
    // partial directory, one page, all-but-one byte. (fileBytes
    // mismatch catches the ones the structural checks don't.)
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{96}, std::size_t{4095}, std::size_t{4096},
          golden_.size() / 2, golden_.size() - 1}) {
        std::vector<std::uint8_t> bytes(golden_.begin(),
                                        golden_.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                keep));
        expectRejected(bytes, "truncation");
    }
}

TEST_F(StoreFuzzTest, HeaderCorruptions)
{
    expectRejected(mutated(0, {0xde, 0xad}), "bad magic");
    expectRejected(mutated(4, {0x7f}), "unsupported version");
    expectRejected(mutated(8, {0x63}), "bad header size");
    expectRejected(mutated(12, {0xff, 0xff, 0xff, 0x7f}),
                   "huge entryCount");
    expectRejected(mutated(16, {0x01}), "fileBytes mismatch");
    expectRejected(mutated(24, {0x03, 0x01}), "non-power-of-two align");
    expectRejected(mutated(40, {0xaa, 0xbb}), "layout tag mismatch");
}

TEST_F(StoreFuzzTest, DirectoryCorruptions)
{
    const std::size_t dir = sizeof(store::FileHeader); // first entry
    // kind (offset +0), index (+4), offset (+8), length (+16)
    expectRejected(mutated(dir + 0, {0x00}), "kind zero");
    expectRejected(mutated(dir + 0, {0x63}), "unknown kind");
    expectRejected(mutated(dir + 8, {0x01}), "misaligned offset");
    expectRejected(mutated(dir + 8,
                           {0xf6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                            0xff}),
                   "offset near UINT64_MAX (offset+length wraps)");
    expectRejected(mutated(dir + 16,
                           {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                            0x7f}),
                   "length beyond file");
    expectRejected(mutated(dir + 16, {0x00, 0x00, 0x00, 0x00, 0x00,
                                      0x00, 0x00, 0x00}),
                   "zero length");

    // Second entry aliasing the first extent.
    {
        std::vector<std::uint8_t> bytes = golden_;
        std::memcpy(bytes.data() + dir + sizeof(store::DirEntry) + 8,
                    bytes.data() + dir + 8, 16);
        expectRejected(bytes, "overlapping extents");
    }
}

TEST_F(StoreFuzzTest, HostileGroupFields)
{
    // Locate the first operand's metadata and per-group sections through
    // the real directory, then plant field values the kernels would turn
    // into out-of-bounds plane reads, shift UB or inexact int32 lanes.
    // Member counts derive from groupSize and cols, so no group field
    // can make a group overrun its columns.
    store::FileHeader header;
    std::memcpy(&header, golden_.data(), sizeof(header));
    auto entryAt = [&](std::uint32_t i) {
        store::DirEntry e;
        std::memcpy(&e,
                    golden_.data() + sizeof(header) +
                        i * sizeof(store::DirEntry),
                    sizeof(e));
        return e;
    };
    auto firstOf = [&](store::SectionKind kind) -> std::uint32_t {
        for (std::uint32_t i = 0; i < header.entryCount; ++i)
            if (entryAt(i).kind == static_cast<std::uint32_t>(kind) &&
                entryAt(i).index == 0)
                return i;
        return header.entryCount;
    };
    const std::uint32_t metaIdx = firstOf(store::SectionKind::OperandMeta);
    const std::uint32_t planesIdx = firstOf(store::SectionKind::Planes);
    const std::uint32_t bitsIdx = firstOf(store::SectionKind::Bits);
    const std::uint32_t shiftsIdx = firstOf(store::SectionKind::Shifts);
    for (std::uint32_t idx : {metaIdx, planesIdx, bitsIdx, shiftsIdx})
        ASSERT_LT(idx, header.entryCount);

    // The golden model prunes three columns: stride 5, every group
    // stores 5 bits over a shift of at most 3.
    store::OperandMetaSection meta;
    std::memcpy(&meta, golden_.data() + entryAt(metaIdx).offset,
                sizeof(meta));
    ASSERT_EQ(meta.stride, 5u);
    ASSERT_EQ(golden_[entryAt(bitsIdx).offset], 5u);
    const std::size_t strideAt = entryAt(metaIdx).offset +
                                 offsetof(store::OperandMetaSection, stride);
    const std::size_t bitsAt = entryAt(bitsIdx).offset;
    const std::size_t shiftsAt = entryAt(shiftsIdx).offset;

    expectRejected(mutated(bitsAt, {6}), "bits > stride");
    expectRejected(mutated(bitsAt, {0xff}), "bits 255");
    expectRejected(mutated(strideAt, {9}), "stride > 8");
    expectRejected(mutated(strideAt, {0}), "stride 0");
    expectRejected(mutated(strideAt, {6}),
                   "Planes length disagrees with the stride");
    {
        // A Planes extent one word short of rows x groups x stride x
        // planeWords x 4 bytes.
        store::DirEntry e = entryAt(planesIdx);
        e.length -= 4;
        std::vector<std::uint8_t> bytes = golden_;
        std::memcpy(bytes.data() + sizeof(header) +
                        planesIdx * sizeof(store::DirEntry),
                    &e, sizeof(e));
        expectRejected(bytes, "Planes length short by one word");
    }
    expectRejected(mutated(shiftsAt, {9}), "shift > 8");
    expectRejected(mutated(shiftsAt, {0xf7}), "negative shift");
    expectRejected(mutated(shiftsAt, {4}), "bits + shift > 8");

    // The bound is inclusive: bits + shift == 8 is a legal group.
    writeFile(path_, mutated(shiftsAt, {3}));
    std::shared_ptr<const MappedContainer> c;
    std::string error;
    EXPECT_TRUE(MappedContainer::tryOpen(path_, c, &error)) << error;
}

TEST_F(StoreFuzzTest, VersionOneContainerIsRefusedByName)
{
    // A version-1 container (128-byte group records) must not be
    // reinterpreted as compact rows; the refusal names the version.
    writeFile(path_, mutated(4, {0x01, 0x00, 0x00, 0x00}));
    std::shared_ptr<const MappedContainer> c;
    std::string error;
    EXPECT_FALSE(MappedContainer::tryOpen(path_, c, &error));
    EXPECT_EQ(c, nullptr);
    EXPECT_NE(error.find("version 1"), std::string::npos) << error;
}

TEST_F(StoreFuzzTest, RandomMutationsNeverCrash)
{
    // Byte-flip fuzz over the structured region (header + directory +
    // first metadata page): every outcome must be a clean rejection or
    // a successful open whose model still runs (ASan/UBSan in CI turn
    // any liberty taken here into a failure).
    Rng rng(0xfa22);
    std::size_t structured = std::min<std::size_t>(golden_.size(), 8192);
    for (int iter = 0; iter < 300; ++iter) {
        std::vector<std::uint8_t> bytes = golden_;
        int flips = 1 + static_cast<int>(rng.uniformInt(0, 3));
        for (int f = 0; f < flips; ++f) {
            std::size_t at = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(structured) - 1));
            bytes[at] ^= static_cast<std::uint8_t>(
                1u << rng.uniformInt(0, 7));
        }
        writeFile(path_, bytes);
        std::shared_ptr<const MappedContainer> c;
        if (!MappedContainer::tryOpen(path_, c))
            continue;
        if (!c->hasModel())
            continue;
        Int8Network mapped = store::mapModel(c);
        Batch x = randomBatch(2, mapped.inputFeatures(),
                              static_cast<std::uint64_t>(iter));
        (void)mapped.forward(x); // must not crash / trip sanitizers
    }
}

TEST_F(StoreFuzzTest, ChecksumsCatchFlippedPayloadBits)
{
    // The structural open never reads dense payload bytes (that is the
    // point: open stays page-fault-bound), so a flipped bit deep in a
    // payload section sails through tryOpen — and must be caught by
    // the opt-in CRC pass.
    writeFile(path_, golden_);
    std::shared_ptr<const MappedContainer> c;
    ASSERT_TRUE(MappedContainer::tryOpen(path_, c));
    EXPECT_TRUE(c->hasChecksums());
    EXPECT_TRUE(c->verifyChecksums());

    // Flip one bit in the middle of a Constants section: a payload the
    // structural validation never inspects.
    store::FileHeader header;
    std::memcpy(&header, golden_.data(), sizeof(header));
    store::DirEntry target = {};
    for (std::uint32_t i = 0; i < header.entryCount; ++i) {
        store::DirEntry e;
        std::memcpy(&e,
                    golden_.data() + sizeof(header) +
                        i * sizeof(store::DirEntry),
                    sizeof(e));
        if (e.kind == static_cast<std::uint32_t>(
                          store::SectionKind::Constants)) {
            target = e;
            break;
        }
    }
    ASSERT_NE(target.offset, 0u);
    ASSERT_NE(target.reserved & store::kDirHasCrc, 0u);
    std::vector<std::uint8_t> corrupt = golden_;
    corrupt[target.offset + target.length / 2] ^= 0x10;
    writeFile(path_, corrupt);

    std::shared_ptr<const MappedContainer> bad;
    ASSERT_TRUE(MappedContainer::tryOpen(path_, bad))
        << "structural open must not notice payload corruption";
    std::string error;
    EXPECT_FALSE(bad->verifyChecksums(&error));
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos)
        << error;

    // The store surfaces the same rejection when asked to verify —
    // and stays lazy (accepting the corrupt file) when not.
    obs::Registry metrics;
    StoreConfig config;
    config.registry = &metrics;
    config.verifyChecksums = true;
    ModelStore verifying(config);
    std::shared_ptr<const store::MappedModel> model;
    error.clear();
    EXPECT_FALSE(verifying.tryLoad(path_, model, &error));
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos);
    config.verifyChecksums = false;
    ModelStore lazy(config);
    EXPECT_TRUE(lazy.tryLoad(path_, model, &error)) << error;
}

TEST_F(StoreFuzzTest, ChecksumWordEncodingIsValidated)
{
    // The reserved word has exactly two legal shapes; anything else is
    // rejected at open, cheaply, before any CRC is computed.
    const std::size_t reservedAt = sizeof(store::FileHeader) + 24;
    expectRejected(mutated(reservedAt + 5, {0x7a}),
                   "non-zero bits above the CRC flag");
    store::DirEntry first;
    std::memcpy(&first, golden_.data() + sizeof(store::FileHeader),
                sizeof(first));
    ASSERT_NE(static_cast<std::uint32_t>(first.reserved), 0u)
        << "test needs a non-zero stored CRC to exercise the "
           "flag-clear-but-crc-set rejection";
    expectRejected(mutated(reservedAt + 4, {0x00}),
                   "CRC flag clear but low bits set");
}

// ------------------------------------------------- registry hot-swap

TEST(ModelRegistryTest, SwapIsVersionedAndAtomicUnderLoad)
{
    // Two engines with IDENTICAL weights, one owned and one mapped:
    // every response during a swap storm must match the single oracle,
    // proving lookups never see a torn or half-registered model.
    Int8Network owned = makeEngine(16, 24, 4, 2, 0xd00d);
    std::string path = tempPath("swap");
    store::writeModelContainer(owned, path);
    auto container = MappedContainer::open(path);

    auto a = std::make_shared<const Int8Network>(
        makeEngine(16, 24, 4, 2, 0xd00d));
    auto b = std::make_shared<const Int8Network>(
        store::mapModel(container));

    Batch x = randomBatch(3, owned.inputFeatures(), 11);
    Batch expected = owned.forward(x);

    ModelRegistry registry;
    EXPECT_EQ(registry.version("m"), 0u);
    EXPECT_EQ(registry.swap("m", a), 1u);
    EXPECT_EQ(registry.version("m"), 1u);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> lookups{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                std::shared_ptr<const Int8Network> engine =
                    registry.find("m");
                ASSERT_NE(engine, nullptr);
                Batch got = engine->forward(x);
                for (std::int64_t i = 0; i < expected.numel(); ++i)
                    ASSERT_EQ(got.flat(i), expected.flat(i));
                lookups.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    std::uint64_t version = 1;
    for (int swapCount = 0; swapCount < 200; ++swapCount) {
        std::uint64_t v =
            registry.swap("m", swapCount % 2 == 0 ? b : a);
        EXPECT_EQ(v, ++version);
        if (swapCount % 16 == 0) // let lookups land between swaps
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Don't stop until every reader has verified at least a few
    // responses against the oracle with swaps completed around it.
    while (lookups.load(std::memory_order_relaxed) < 16)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stop.store(true);
    for (auto &r : readers)
        r.join();
    EXPECT_GT(lookups.load(), 0u);
    EXPECT_EQ(registry.version("m"), 201u);
    std::remove(path.c_str());
}

// ---------------------------------------------------- store LRU/budget

TEST(ModelStoreTest, ParseByteSize)
{
    EXPECT_EQ(store::parseByteSize(""), 0u);
    EXPECT_EQ(store::parseByteSize("junk"), 0u);
    EXPECT_EQ(store::parseByteSize("123"), 123u);
    EXPECT_EQ(store::parseByteSize("8K"), 8192u);
    EXPECT_EQ(store::parseByteSize("2m"), 2u << 20);
    EXPECT_EQ(store::parseByteSize("3G"), 3ull << 30);
    EXPECT_EQ(store::parseByteSize("1T"), 0u);   // unknown suffix
    EXPECT_EQ(store::parseByteSize("K"), 0u);    // no digits
    EXPECT_EQ(store::parseByteSize("1 K"), 0u);  // embedded junk
    EXPECT_EQ(store::parseByteSize("99999999999999999999"), 0u);
}

TEST(ModelStoreTest, LoadFailsCleanlyOnGarbage)
{
    obs::Registry metrics;
    StoreConfig config;
    config.registry = &metrics;
    ModelStore modelStore(config);
    std::string path = tempPath("garbage");
    writeFile(path, std::vector<std::uint8_t>(256, 0x5a));
    std::shared_ptr<const store::MappedModel> model;
    std::string error;
    EXPECT_FALSE(modelStore.tryLoad(path, model, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(modelStore.tryLoad(path + ".missing", model, &error));
    EXPECT_EQ(modelStore.residentModels(), 0u);
    std::remove(path.c_str());
}

TEST(ModelStoreTest, LruEvictionSkipsPinnedModels)
{
    std::string pa = tempPath("lru_a"), pb = tempPath("lru_b"),
                pc = tempPath("lru_c");
    store::writeModelContainer(makeEngine(16, 24, 4, 2, 0xaaaa), pa);
    store::writeModelContainer(makeEngine(16, 24, 4, 2, 0xbbbb), pb);
    store::writeModelContainer(makeEngine(16, 24, 4, 2, 0xcccc), pc);
    std::size_t one = readFile(pa).size();

    obs::Registry metrics;
    StoreConfig config;
    config.budgetBytes = one * 2 + one / 2; // room for two, not three
    config.registry = &metrics;
    ModelStore modelStore(config);

    // A stays pinned (we hold the ref); B is released and becomes the
    // LRU victim when C arrives.
    std::shared_ptr<const store::MappedModel> a = modelStore.load(pa);
    modelStore.load(pb);
    EXPECT_EQ(modelStore.residentModels(), 2u);
    std::shared_ptr<const store::MappedModel> c = modelStore.load(pc);
    EXPECT_EQ(modelStore.residentModels(), 2u);
    EXPECT_LE(modelStore.residentBytes(), config.budgetBytes);

    // A survived eviction (it was pinned *and* older than B): a fresh
    // load must be a cache hit handing back the same mapping.
    std::shared_ptr<const store::MappedModel> again = modelStore.load(pa);
    EXPECT_EQ(again, a);
    // B was evicted: loading it again is a fresh mapping.
    std::shared_ptr<const store::MappedModel> b2 = modelStore.load(pb);
    ASSERT_NE(b2, nullptr);

    // The pinned model's network still runs after all that churn.
    Batch x = randomBatch(2, a->network->inputFeatures(), 3);
    (void)a->network->forward(x);

    // Dropping every pin lets evictUnpinned clear the store.
    a.reset();
    c.reset();
    again.reset();
    b2.reset();
    modelStore.evictUnpinned();
    EXPECT_EQ(modelStore.residentModels(), 0u);
    EXPECT_EQ(modelStore.residentBytes(), 0u);

    std::remove(pa.c_str());
    std::remove(pb.c_str());
    std::remove(pc.c_str());
}

TEST(ModelStoreTest, BudgetFromEnvironment)
{
    ::setenv("BBS_STORE_BUDGET", "512K", 1);
    obs::Registry metrics;
    StoreConfig config;
    config.registry = &metrics;
    ModelStore fromEnv(config);
    EXPECT_EQ(fromEnv.budgetBytes(), 512u << 10);
    config.budgetBytes = 1024;
    ModelStore explicitBudget(config);
    EXPECT_EQ(explicitBudget.budgetBytes(), 1024u);
    ::unsetenv("BBS_STORE_BUDGET");
}

} // namespace
} // namespace bbs
