/**
 * @file
 * BBMS — the page-aligned, mmap-backed model container: a
 * fixed 64-byte header, a directory of typed (kind, index, offset,
 * length) extents, and page-aligned payload sections whose byte layout
 * matches the in-memory packings EXACTLY — BitSerialMatrix plane words
 * for dense operands; for compressed rows the four CompressedRowPlanes
 * arrays (Planes: `stride` uint32 plane slots of `planeWords` words per
 * group; Bits, Shifts: one byte per group; Constants: one int32 per
 * group); raw float arrays for the per-layer scales and biases. At group
 * 32 with four pruned columns a compressed weight costs 22 bytes per 32
 * weights, 5.5 bits per weight.
 *
 * Because the payload IS the in-memory layout, loading a model is
 * `mmap` + directory validation + pointer fixup: zero deserialization,
 * zero copying, and — the multi-tenant point — N server processes
 * mapping the same container share ONE set of physical pages
 * (MAP_SHARED read-only file pages; bench/micro_store.cpp pins the
 * sharing via /proc/self/smaps Pss accounting and gates the load
 * speedup against packing the same layers from their INT8 codes).
 * BBMS is the one on-disk format for engine operands; the paper's
 * column-serial DRAM layout (core/serialization.hpp) stays the
 * accelerator model's view of a weight stream.
 *
 * The bytes of a container depend only on the model: unused plane slots
 * and every reserved field are zero, so two builds of one model write
 * identical files.
 *
 * `MappedContainer::tryOpen` is non-fatal: the container is UNTRUSTED
 * INPUT, and every malformed shape — truncated directory, overlapping or
 * out-of-bounds extents, misaligned offsets, bad magic/version, a
 * Planes extent that disagrees with rows x groups x stride x planeWords,
 * hostile per-group fields (bits > stride would read the next group's
 * planes; shifts outside 0..8 would be shift-UB in decompress; bits +
 * shift > 8 would break the GEMM's exact int32 lanes) — is rejected
 * with a diagnostic, never UB (tests/test_store.cpp fuzzes this).
 * Validation reads only the directory, the small metadata sections and
 * the Bits and Shifts arrays (two bytes per group); it never touches the
 * plane words, so open cost stays page-fault-bound, not size-bound.
 *
 * The writers (`writeModelContainer` / `writeOperandContainer`; the
 * first is surfaced as `bbs_cli store-pack`) write in-memory networks
 * or packed operands into containers. A container holds either one
 * Int8Network (layer sections referencing operand sections) or a bare
 * list of operands (layerCount == 0).
 */
#ifndef BBS_STORE_CONTAINER_HPP
#define BBS_STORE_CONTAINER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/packed_operand.hpp"
#include "nn/int8_infer.hpp"

namespace bbs::store {

/** "BBMS" little-endian. */
inline constexpr std::uint32_t kContainerMagic = 0x534d4242u;
/** Version 2: compact compressed rows (Planes / Bits sections). A
 *  version-1 container (128-byte group records) is refused at open. */
inline constexpr std::uint32_t kContainerVersion = 2;
/** Payload sections start on multiples of this (one page: the mmap
 *  granularity, and a multiple of the 64-byte alignment every kernel
 *  pointer guarantee needs). */
inline constexpr std::uint32_t kContainerAlign = 4096;

/**
 * Fingerprint of the in-memory layout the payload bytes mirror. A
 * container written by a build whose plane-word widths, dense row
 * alignment or weight bit width differ is rejected at open instead of
 * being reinterpreted.
 */
std::uint64_t containerLayoutTag();

/** Directory section kinds. */
enum class SectionKind : std::uint32_t
{
    LayerMeta = 1,   ///< LayerMetaSection, index = layer
    WScales = 2,     ///< float[outFeatures], index = layer
    Bias = 3,        ///< float[outFeatures], index = layer
    OperandMeta = 4, ///< OperandMetaSection, index = operand
    DenseWords = 5,  ///< uint64[8 * rows * colWords], index = operand
    /** uint32[rows * groupsPerRow * stride * planeWords], index =
     *  operand */
    Planes = 6,
    Bits = 7,        ///< uint8[rows * groupsPerRow], index = operand
    Shifts = 8,      ///< int8[rows * groupsPerRow], index = operand
    Constants = 9,   ///< int32[rows * groupsPerRow], index = operand
};

/** Fixed 64-byte file header (all fields little-endian). */
struct FileHeader
{
    std::uint32_t magic = kContainerMagic;
    std::uint32_t version = kContainerVersion;
    std::uint32_t headerBytes = sizeof(FileHeader);
    std::uint32_t entryCount = 0;
    std::uint64_t fileBytes = 0;
    std::uint32_t payloadAlign = kContainerAlign;
    std::uint32_t layerCount = 0;   ///< 0 = bare operand container
    std::uint32_t operandCount = 0;
    std::uint32_t reserved0 = 0;
    std::uint64_t layoutTag = 0;
    std::uint64_t reserved1 = 0;
    std::uint64_t reserved2 = 0;
};
static_assert(sizeof(FileHeader) == 64, "header must stay 64 bytes");

/** DirEntry::reserved bit marking that the low 32 bits hold a CRC-32
 *  of the section payload. Writers since this flag existed always set
 *  it; a clear flag (older containers) means "no checksum stored". */
inline constexpr std::uint64_t kDirHasCrc = 1ull << 32;

/** One directory extent, immediately after the header. */
struct DirEntry
{
    std::uint32_t kind = 0;
    std::uint32_t index = 0;   ///< layer or operand ordinal
    std::uint64_t offset = 0;  ///< absolute, multiple of payloadAlign
    std::uint64_t length = 0;  ///< bytes
    /** Checksum word: bit 32 (kDirHasCrc) says the low 32 bits are the
     *  IEEE CRC-32 of the section payload; bits 33..63 must be zero.
     *  With the flag clear the whole word must be zero (pre-checksum
     *  containers). Open validates the ENCODING only; recomputing the
     *  CRCs is the opt-in verifyChecksums() pass, so open cost stays
     *  page-fault-bound. */
    std::uint64_t reserved = 0;
};
static_assert(sizeof(DirEntry) == 32, "directory entry must stay 32 bytes");

/** Fixed-size payload of a LayerMeta section. */
struct LayerMetaSection
{
    std::int64_t inFeatures = 0;
    std::int64_t outFeatures = 0;
    std::int64_t groupSize = 0;
    std::uint32_t operandIndex = 0;
    std::uint32_t reluAfter = 0;
    std::uint32_t geluAfter = 0;
    std::uint32_t reserved = 0;
};
static_assert(sizeof(LayerMetaSection) == 40);

/** Fixed-size payload of an OperandMeta section. */
struct OperandMetaSection
{
    std::uint32_t packKind = 0; ///< engine::PackKind
    std::uint32_t stride = 0;   ///< compressed only: plane slots, 1..8
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::int64_t colWords = 0;     ///< dense only
    std::int64_t groupSize = 0;    ///< compressed only
    std::int64_t groupsPerRow = 0; ///< compressed only
    /** Precomputed so mapping never scans the group payload (the scan
     *  would fault in every page, defeating lazy loading). */
    double meanStoredBits = 0.0;
};
static_assert(sizeof(OperandMetaSection) == 56);

/**
 * A read-only mmap of one container, validated at open. Owns the
 * mapping; unmapped when the last shared_ptr drops — which, through the
 * aliasing shared_ptrs `mapOperand` hands out, is after the last plan
 * or network built over the mapping is gone (the hot-swap drain
 * contract: flip the registry pointer, let in-flight batches finish,
 * the old mapping unmaps itself).
 */
class MappedContainer
{
  public:
    /**
     * Open + validate + map @p path. Returns false (with a diagnostic
     * in @p error when non-null) on any I/O failure or malformed
     * container, without terminating the process. On
     * success @p out owns the mapping and all sections are validated:
     * every accessor below is then safe.
     */
    static bool tryOpen(const std::string &path,
                        std::shared_ptr<const MappedContainer> &out,
                        std::string *error = nullptr);

    /** tryOpen or BBS_FATAL (deployment-error form). */
    static std::shared_ptr<const MappedContainer>
    open(const std::string &path);

    ~MappedContainer();
    MappedContainer(const MappedContainer &) = delete;
    MappedContainer &operator=(const MappedContainer &) = delete;

    const std::string &path() const { return path_; }
    std::size_t bytes() const { return bytes_; }
    std::size_t layerCount() const { return layers_.size(); }
    std::size_t operandCount() const { return operands_.size(); }
    bool hasModel() const { return !layers_.empty(); }

    /** Advise the kernel to read ahead the whole payload (cold-start
     *  latency) or that it can drop the pages (eviction). */
    void adviseWillNeed() const;
    void adviseDontNeed() const;

    /** Validated layer metadata + per-layer float sections. */
    struct Layer
    {
        LayerMetaSection meta;
        const float *wScales = nullptr; ///< [outFeatures]
        const float *bias = nullptr;    ///< [outFeatures]
    };

    const Layer &layer(std::size_t i) const { return layers_[i]; }

    /** The in-place view packing of operand @p i (points into the
     *  mapping; valid for the container's lifetime). */
    const engine::PackedOperand &operandView(std::size_t i) const
    {
        return operandViews_[i];
    }

    /** Stored meanStoredBits of operand @p i (OperandMeta). */
    double operandStoredBits(std::size_t i) const
    {
        return operands_[i].meanStoredBits;
    }

    /** True when every directory entry carries a stored CRC (kDirHasCrc
     *  set). Containers written before checksums existed report false
     *  and verifyChecksums() skips their sections. */
    bool hasChecksums() const;

    /**
     * Recompute each checksummed section's CRC-32 over the mapped
     * payload and compare with the stored value. This is the one
     * deliberate full-payload read in the store path: it faults in
     * every section it checks, so it is opt-in (store-info --verify,
     * StoreConfig::verifyChecksums) rather than part of tryOpen.
     * Returns false (with a diagnostic in @p error when non-null) on
     * the first mismatch.
     */
    bool verifyChecksums(std::string *error = nullptr) const;

  private:
    MappedContainer() = default;

    friend engine::PackedOperand
    mapOperand(const std::shared_ptr<const MappedContainer> &c,
               std::size_t i);
    friend Int8Network
    mapModel(const std::shared_ptr<const MappedContainer> &c);

    std::string path_;
    const std::uint8_t *base_ = nullptr;
    std::size_t bytes_ = 0;
    /** Validated directory, kept for verifyChecksums(). */
    std::vector<DirEntry> dir_;
    std::vector<OperandMetaSection> operands_;
    std::vector<Layer> layers_;
    /** View objects the aliasing shared_ptrs in mapOperand point at:
     *  BitSerialMatrix / CompressedRowPlanes in view mode over the
     *  mapping, one per operand, built once at open. */
    std::vector<BitSerialMatrix> denseViews_;
    std::vector<CompressedRowPlanes> rowViews_;
    std::vector<engine::PackedOperand> operandViews_;
};

/**
 * Mapped-view PackedOperand over operand @p i of @p c: non-owning plane
 * pointers into the mapping, with the container's lifetime captured in
 * the operand's shared payload (the operand — and any MatmulPlan built
 * over it — keeps the mapping alive). Plan runs over it are
 * bit-identical to the owned path (tests/test_store.cpp pins this).
 */
engine::PackedOperand
mapOperand(const std::shared_ptr<const MappedContainer> &c, std::size_t i);

/**
 * Build the container's Int8Network over mapped planes: each layer's
 * CompressedRowPlanes is a view into the mapping (shared with its
 * MatmulPlan), wScales/bias are copied (tiny), and the network's layers
 * keep the mapping alive. Requires hasModel().
 */
Int8Network mapModel(const std::shared_ptr<const MappedContainer> &c);

/**
 * Pack @p net into a BBMS container at @p path (atomic: written to a
 * temp file then renamed). Returns the container size in bytes.
 */
std::size_t writeModelContainer(const Int8Network &net,
                                const std::string &path);

/** Pack bare operands (no network structure) into a container. */
std::size_t
writeOperandContainer(const std::vector<engine::PackedOperand> &ops,
                      const std::string &path);

} // namespace bbs::store

#endif // BBS_STORE_CONTAINER_HPP
