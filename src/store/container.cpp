#include "store/container.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/bit_utils.hpp"
#include "common/logging.hpp"
#include "engine/session.hpp"

namespace bbs::store {

// The payload sections are reinterpreted in place, so the file format
// is pinned to these widths; containerLayoutTag() rejects containers
// written by a build where any of them changed.
static_assert(kWeightBits == 8);

std::uint64_t
containerLayoutTag()
{
    return (static_cast<std::uint64_t>(sizeof(std::uint32_t)) << 24) |
           (static_cast<std::uint64_t>(sizeof(std::uint64_t)) << 16) |
           (static_cast<std::uint64_t>(kRowPlaneWordAlign) << 8) |
           static_cast<std::uint64_t>(kWeightBits);
}

namespace {

/** Overflow-checked a * b. */
bool
mulOk(std::uint64_t a, std::uint64_t b, std::uint64_t &out)
{
    if (b != 0 && a > UINT64_MAX / b)
        return false;
    out = a * b;
    return true;
}

std::uint64_t
alignUp(std::uint64_t v, std::uint64_t a)
{
    return (v + a - 1) / a * a;
}

// ------------------------------------------------------------------ writer

/** One pending payload section: descriptor + source bytes. */
struct PendingSection
{
    SectionKind kind;
    std::uint32_t index;
    const void *data;
    std::uint64_t length;
};

/**
 * Lay out and stream @p sections after the header + directory, each on
 * a payloadAlign boundary, to @p path atomically (temp file + rename).
 * The small metadata structs referenced by @p sections must stay alive
 * across the call (the caller keeps them in deques/vectors).
 */
std::size_t
writeContainer(std::vector<PendingSection> &sections,
               std::uint32_t layerCount, std::uint32_t operandCount,
               const std::string &path)
{
    FileHeader header;
    header.entryCount = static_cast<std::uint32_t>(sections.size());
    header.layerCount = layerCount;
    header.operandCount = operandCount;
    header.layoutTag = containerLayoutTag();

    std::vector<DirEntry> dir(sections.size());
    std::uint64_t cursor = alignUp(
        sizeof(FileHeader) + sections.size() * sizeof(DirEntry),
        kContainerAlign);
    for (std::size_t i = 0; i < sections.size(); ++i) {
        dir[i].kind = static_cast<std::uint32_t>(sections[i].kind);
        dir[i].index = sections[i].index;
        dir[i].offset = cursor;
        dir[i].length = sections[i].length;
        dir[i].reserved =
            kDirHasCrc |
            crc32(sections[i].data, sections[i].length);
        cursor = alignUp(cursor + sections[i].length, kContainerAlign);
    }
    header.fileBytes = cursor;

    std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    BBS_REQUIRE(out.good(), "cannot open ", tmp, " for writing");
    auto pad = [&](std::uint64_t upto) {
        static const char zeros[4096] = {};
        std::uint64_t at = static_cast<std::uint64_t>(out.tellp());
        while (at < upto) {
            std::uint64_t n = std::min<std::uint64_t>(upto - at,
                                                      sizeof(zeros));
            out.write(zeros, static_cast<std::streamsize>(n));
            at += n;
        }
    };
    out.write(reinterpret_cast<const char *>(&header), sizeof(header));
    out.write(reinterpret_cast<const char *>(dir.data()),
              static_cast<std::streamsize>(dir.size() * sizeof(DirEntry)));
    for (std::size_t i = 0; i < sections.size(); ++i) {
        pad(dir[i].offset);
        out.write(reinterpret_cast<const char *>(sections[i].data),
                  static_cast<std::streamsize>(sections[i].length));
    }
    pad(header.fileBytes);
    out.close();
    BBS_REQUIRE(out.good(), "write to ", tmp, " failed");
    BBS_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                "cannot rename ", tmp, " to ", path, ": ",
                std::strerror(errno));
    return static_cast<std::size_t>(header.fileBytes);
}

/** Append the sections describing one operand (meta + payload). */
void
appendOperandSections(const engine::PackedOperand &op, std::uint32_t index,
                      std::vector<OperandMetaSection> &metas,
                      std::vector<PendingSection> &sections)
{
    BBS_REQUIRE(!op.empty(), "cannot pack an empty operand");
    OperandMetaSection meta;
    meta.packKind = static_cast<std::uint32_t>(op.kind());
    meta.rows = op.rows();
    meta.cols = op.cols();
    meta.meanStoredBits = op.meanStoredBits();
    if (op.kind() == engine::PackKind::DenseBitPlanes) {
        const BitSerialMatrix &m = op.dense();
        meta.colWords = m.colWords();
        metas.push_back(meta);
        sections.push_back({SectionKind::OperandMeta, index,
                            &metas.back(), sizeof(OperandMetaSection)});
        std::span<const std::uint64_t> words = m.planeWords();
        sections.push_back({SectionKind::DenseWords, index, words.data(),
                            words.size_bytes()});
        return;
    }
    const CompressedRowPlanes &p = op.compressedRows();
    meta.stride = static_cast<std::uint32_t>(p.stride());
    meta.groupSize = p.groupSize();
    meta.groupsPerRow = p.groupsPerRow();
    metas.push_back(meta);
    sections.push_back({SectionKind::OperandMeta, index, &metas.back(),
                        sizeof(OperandMetaSection)});
    sections.push_back({SectionKind::Planes, index, p.planes().data(),
                        p.planes().size_bytes()});
    sections.push_back({SectionKind::Bits, index, p.bits().data(),
                        p.bits().size_bytes()});
    sections.push_back({SectionKind::Shifts, index, p.shifts().data(),
                        p.shifts().size_bytes()});
    sections.push_back({SectionKind::Constants, index,
                        p.constants().data(),
                        p.constants().size_bytes()});
}

} // namespace

std::size_t
writeModelContainer(const Int8Network &net, const std::string &path)
{
    const auto &layers = net.layers();
    BBS_REQUIRE(!layers.empty(), "network has no layers to pack");
    std::vector<PendingSection> sections;
    // Reserved up front: PendingSection keeps raw pointers into these.
    std::vector<OperandMetaSection> operandMetas;
    std::vector<LayerMetaSection> layerMetas;
    operandMetas.reserve(layers.size());
    layerMetas.reserve(layers.size());

    for (std::size_t i = 0; i < layers.size(); ++i) {
        const Int8LinearLayer &l = layers[i];
        LayerMetaSection meta;
        meta.inFeatures = l.inFeatures;
        meta.outFeatures = l.outFeatures();
        meta.groupSize = l.groupSize;
        meta.operandIndex = static_cast<std::uint32_t>(i);
        meta.reluAfter = l.reluAfter ? 1 : 0;
        meta.geluAfter = l.geluAfter ? 1 : 0;
        layerMetas.push_back(meta);
        std::uint32_t index = static_cast<std::uint32_t>(i);
        sections.push_back({SectionKind::LayerMeta, index,
                            &layerMetas.back(),
                            sizeof(LayerMetaSection)});
        sections.push_back({SectionKind::WScales, index, l.wScales.data(),
                            l.wScales.size() * sizeof(float)});
        sections.push_back({SectionKind::Bias, index, l.bias.data().data(),
                            l.bias.data().size() * sizeof(float)});
        appendOperandSections(
            engine::PackedOperand::fromPrepared(l.planes), index,
            operandMetas, sections);
    }
    return writeContainer(sections,
                          static_cast<std::uint32_t>(layers.size()),
                          static_cast<std::uint32_t>(layers.size()), path);
}

std::size_t
writeOperandContainer(const std::vector<engine::PackedOperand> &ops,
                      const std::string &path)
{
    BBS_REQUIRE(!ops.empty(), "no operands to pack");
    std::vector<PendingSection> sections;
    std::vector<OperandMetaSection> operandMetas;
    operandMetas.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        appendOperandSections(ops[i], static_cast<std::uint32_t>(i),
                              operandMetas, sections);
    return writeContainer(sections, 0,
                          static_cast<std::uint32_t>(ops.size()), path);
}

// ------------------------------------------------------------------ reader

MappedContainer::~MappedContainer()
{
    if (base_ != nullptr)
        ::munmap(const_cast<std::uint8_t *>(base_), bytes_);
}

void
MappedContainer::adviseWillNeed() const
{
    if (base_ != nullptr)
        ::madvise(const_cast<std::uint8_t *>(base_), bytes_,
                  MADV_WILLNEED);
}

void
MappedContainer::adviseDontNeed() const
{
    if (base_ != nullptr)
        ::madvise(const_cast<std::uint8_t *>(base_), bytes_,
                  MADV_DONTNEED);
}

bool
MappedContainer::tryOpen(const std::string &path,
                         std::shared_ptr<const MappedContainer> &out,
                         std::string *error)
{
    auto fail = [error](auto &&...parts) {
        if (error != nullptr)
            *error = bbs::detail::concatMessage(
                std::forward<decltype(parts)>(parts)...);
        return false;
    };

    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return fail("cannot open ", path, ": ", std::strerror(errno));
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return fail(path, " is not a regular file");
    }
    auto bytes = static_cast<std::size_t>(st.st_size);
    if (bytes < sizeof(FileHeader)) {
        ::close(fd);
        return fail(path, " is too small to hold a container header");
    }
    // MAP_SHARED + PROT_READ: file-backed read-only pages, so every
    // process mapping this container shares one physical copy.
    void *base = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED)
        return fail("mmap of ", path, " failed: ", std::strerror(errno));

    // The mapping is owned from here on: any validation failure below
    // destroys `c`, which munmaps.
    std::shared_ptr<MappedContainer> c(new MappedContainer);
    c->path_ = path;
    c->base_ = static_cast<const std::uint8_t *>(base);
    c->bytes_ = bytes;

    FileHeader header;
    std::memcpy(&header, c->base_, sizeof(header));
    if (header.magic != kContainerMagic)
        return fail("not a BBMS container (bad magic)");
    if (header.version != kContainerVersion)
        return fail("unsupported container version ", header.version,
                    " (this build reads version ", kContainerVersion,
                    "; re-pack the model)");
    if (header.headerBytes != sizeof(FileHeader))
        return fail("corrupt container: bad header size");
    if (header.fileBytes != bytes)
        return fail("corrupt container: header says ", header.fileBytes,
                    " bytes, file holds ", bytes);
    if (header.layoutTag != containerLayoutTag())
        return fail("container written for an incompatible in-memory "
                    "layout (layout tag mismatch)");
    std::uint64_t align = header.payloadAlign;
    if (align < kCacheLineBytes || align > (1u << 20) ||
        (align & (align - 1)) != 0)
        return fail("corrupt container: bad payload alignment ", align);

    // Directory bounds before touching any entry: entryCount is
    // attacker-controlled.
    std::uint64_t dirBytes;
    if (header.entryCount > (1u << 20) ||
        !mulOk(header.entryCount, sizeof(DirEntry), dirBytes) ||
        sizeof(FileHeader) + dirBytes > bytes)
        return fail("corrupt container: directory exceeds the file");
    std::uint64_t dirEnd = sizeof(FileHeader) + dirBytes;

    std::vector<DirEntry> dir(header.entryCount);
    std::memcpy(dir.data(), c->base_ + sizeof(FileHeader), dirBytes);

    // Per-extent validation, overflow-safe: length first, then offset
    // against the remaining room (offset + length could wrap).
    for (const DirEntry &e : dir) {
        if (e.kind < static_cast<std::uint32_t>(SectionKind::LayerMeta) ||
            e.kind > static_cast<std::uint32_t>(SectionKind::Constants))
            return fail("corrupt container: unknown section kind ",
                        e.kind);
        if (e.length == 0 || e.length > bytes ||
            e.offset > bytes - e.length)
            return fail("corrupt container: section extent out of "
                        "bounds");
        if (e.offset < dirEnd)
            return fail("corrupt container: section overlaps the "
                        "directory");
        if (e.offset % align != 0)
            return fail("corrupt container: misaligned section offset ",
                        e.offset);
        // Checksum-word encoding (cheap, structural — the CRCs
        // themselves are only recomputed by verifyChecksums()): with
        // kDirHasCrc set only the low 32 bits may be non-zero; with it
        // clear the whole word must be zero.
        if ((e.reserved & kDirHasCrc) != 0
                ? (e.reserved >> 33) != 0
                : e.reserved != 0)
            return fail("corrupt container: malformed directory "
                        "checksum word");
    }

    // No two extents may overlap: a directory aliasing one payload
    // under two types would let a validated-as-groups extent be
    // reinterpreted as something else.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
    extents.reserve(dir.size());
    for (const DirEntry &e : dir)
        extents.emplace_back(e.offset, e.length);
    std::sort(extents.begin(), extents.end());
    for (std::size_t i = 1; i < extents.size(); ++i)
        if (extents[i].first <
            extents[i - 1].first + extents[i - 1].second)
            return fail("corrupt container: overlapping sections");

    auto findSection = [&](SectionKind kind,
                           std::uint32_t index) -> const DirEntry * {
        const DirEntry *found = nullptr;
        for (const DirEntry &e : dir) {
            if (e.kind != static_cast<std::uint32_t>(kind) ||
                e.index != index)
                continue;
            if (found != nullptr)
                return nullptr; // duplicates are corruption
            found = &e;
        }
        return found;
    };

    // ---------------------------------------------------- operands
    if (header.operandCount > header.entryCount)
        return fail("corrupt container: operand count exceeds the "
                    "directory");
    c->operands_.reserve(header.operandCount);
    c->denseViews_.resize(header.operandCount);
    c->rowViews_.resize(header.operandCount);
    c->operandViews_.resize(header.operandCount);
    for (std::uint32_t i = 0; i < header.operandCount; ++i) {
        const DirEntry *metaEntry = findSection(SectionKind::OperandMeta,
                                                i);
        if (metaEntry == nullptr ||
            metaEntry->length != sizeof(OperandMetaSection))
            return fail("corrupt container: operand ", i,
                        " metadata missing or malformed");
        OperandMetaSection meta;
        std::memcpy(&meta, c->base_ + metaEntry->offset, sizeof(meta));
        if (meta.rows <= 0 || meta.cols <= 0)
            return fail("corrupt container: operand ", i,
                        " has a non-positive shape");

        if (meta.packKind ==
            static_cast<std::uint32_t>(engine::PackKind::DenseBitPlanes)) {
            if (meta.stride != 0 ||
                meta.colWords !=
                    BitSerialMatrix::paddedColWords(meta.cols))
                return fail("corrupt container: operand ", i,
                            " dense metadata mismatch");
            const DirEntry *words = findSection(SectionKind::DenseWords,
                                                i);
            std::uint64_t wordCount, wordBytes;
            if (words == nullptr ||
                !mulOk(static_cast<std::uint64_t>(meta.rows) *
                           static_cast<std::uint64_t>(kWeightBits),
                       static_cast<std::uint64_t>(meta.colWords),
                       wordCount) ||
                !mulOk(wordCount, sizeof(std::uint64_t), wordBytes) ||
                words->length != wordBytes)
                return fail("corrupt container: operand ", i,
                            " dense plane extent mismatch");
            c->denseViews_[i] = BitSerialMatrix::viewExternal(
                reinterpret_cast<const std::uint64_t *>(c->base_ +
                                                        words->offset),
                meta.rows, meta.cols);
            c->operandViews_[i] = engine::PackedOperand::mappedDense(
                std::shared_ptr<const BitSerialMatrix>(
                    std::shared_ptr<void>(), &c->denseViews_[i]));
        } else if (meta.packKind ==
                   static_cast<std::uint32_t>(
                       engine::PackKind::CompressedRows)) {
            if (meta.groupSize < 1 || meta.groupSize > 64 ||
                meta.groupsPerRow !=
                    (meta.cols + meta.groupSize - 1) / meta.groupSize)
                return fail("corrupt container: operand ", i,
                            " group structure mismatch");
            if (meta.stride < 1 || meta.stride > kWeightBits)
                return fail("corrupt container: operand ", i,
                            " plane stride ", meta.stride,
                            " out of range 1..", kWeightBits);
            if (!(meta.meanStoredBits >= 0.0 &&
                  meta.meanStoredBits <= 8.0))
                return fail("corrupt container: operand ", i,
                            " stored-bit mean out of range");
            const int planeWords =
                CompressedRowPlanes::planeWordsFor(meta.groupSize);
            std::uint64_t count, planeBytes, constBytes;
            if (!mulOk(static_cast<std::uint64_t>(meta.rows),
                       static_cast<std::uint64_t>(meta.groupsPerRow),
                       count) ||
                !mulOk(count,
                       static_cast<std::uint64_t>(meta.stride) *
                           static_cast<std::uint64_t>(planeWords) *
                           sizeof(std::uint32_t),
                       planeBytes) ||
                !mulOk(count, sizeof(std::int32_t), constBytes))
                return fail("corrupt container: operand ", i,
                            " group count overflows");
            const DirEntry *planes = findSection(SectionKind::Planes, i);
            const DirEntry *bits = findSection(SectionKind::Bits, i);
            const DirEntry *shifts = findSection(SectionKind::Shifts, i);
            const DirEntry *constants =
                findSection(SectionKind::Constants, i);
            if (planes == nullptr || planes->length != planeBytes ||
                bits == nullptr || bits->length != count ||
                shifts == nullptr || shifts->length != count ||
                constants == nullptr || constants->length != constBytes)
                return fail("corrupt container: operand ", i,
                            " compressed extents mismatch");

            // Hostile payload scan over the two per-group fields the
            // kernels index and shift by: bits > stride would read the
            // next group's plane slots; shifts outside 0..8 are
            // shift-UB in decompress; bits + shift > 8 would let the
            // GEMM's int32 lanes leave their exact range. Member counts
            // derive from groupSize and cols, so no field can make a
            // group overrun its columns. This pass reads two bytes per
            // group, never the plane words.
            const auto *bitsBase = c->base_ + bits->offset;
            const auto *sh = reinterpret_cast<const std::int8_t *>(
                c->base_ + shifts->offset);
            for (std::uint64_t g = 0; g < count; ++g) {
                if (bitsBase[g] > meta.stride)
                    return fail("corrupt container: operand ", i,
                                " group ", g, " claims ",
                                static_cast<int>(bitsBase[g]),
                                " stored bit planes of stride ",
                                meta.stride);
                if (sh[g] < 0 || sh[g] > kWeightBits)
                    return fail("corrupt container: operand ", i,
                                " group ", g, " shift ",
                                static_cast<int>(sh[g]),
                                " out of range");
                if (bitsBase[g] + sh[g] > kWeightBits)
                    return fail("corrupt container: operand ", i,
                                " group ", g, " stores ",
                                static_cast<int>(bitsBase[g]),
                                " bits over shift ",
                                static_cast<int>(sh[g]),
                                ", more than ", kWeightBits);
            }
            c->rowViews_[i] = CompressedRowPlanes::viewExternal(
                reinterpret_cast<const std::uint32_t *>(c->base_ +
                                                        planes->offset),
                bitsBase, sh,
                reinterpret_cast<const std::int32_t *>(
                    c->base_ + constants->offset),
                meta.rows, meta.cols, meta.groupSize,
                static_cast<int>(meta.stride));
            c->operandViews_[i] = engine::PackedOperand::mappedCompressed(
                std::shared_ptr<const CompressedRowPlanes>(
                    std::shared_ptr<void>(), &c->rowViews_[i]),
                meta.meanStoredBits);
        } else {
            return fail("corrupt container: operand ", i,
                        " has unknown pack kind ", meta.packKind);
        }
        c->operands_.push_back(meta);
    }

    // ------------------------------------------------------ layers
    if (header.layerCount > header.entryCount)
        return fail("corrupt container: layer count exceeds the "
                    "directory");
    c->layers_.reserve(header.layerCount);
    for (std::uint32_t i = 0; i < header.layerCount; ++i) {
        const DirEntry *metaEntry = findSection(SectionKind::LayerMeta, i);
        if (metaEntry == nullptr ||
            metaEntry->length != sizeof(LayerMetaSection))
            return fail("corrupt container: layer ", i,
                        " metadata missing or malformed");
        Layer layer;
        std::memcpy(&layer.meta, c->base_ + metaEntry->offset,
                    sizeof(LayerMetaSection));
        const LayerMetaSection &m = layer.meta;
        if (m.operandIndex >= header.operandCount)
            return fail("corrupt container: layer ", i,
                        " references operand ", m.operandIndex,
                        " of ", header.operandCount);
        const OperandMetaSection &op = c->operands_[m.operandIndex];
        if (op.packKind != static_cast<std::uint32_t>(
                               engine::PackKind::CompressedRows) ||
            m.inFeatures != op.cols || m.outFeatures != op.rows ||
            m.groupSize != op.groupSize)
            return fail("corrupt container: layer ", i,
                        " shape disagrees with its operand");
        if (m.reluAfter > 1 || m.geluAfter > 1 ||
            (m.reluAfter == 1 && m.geluAfter == 1))
            return fail("corrupt container: layer ", i,
                        " activation flags malformed");
        if (i > 0 &&
            c->layers_.back().meta.outFeatures != m.inFeatures)
            return fail("corrupt container: layer ", i,
                        " input width breaks the layer chain");
        std::uint64_t floatBytes;
        if (!mulOk(static_cast<std::uint64_t>(m.outFeatures),
                   sizeof(float), floatBytes))
            return fail("corrupt container: layer ", i,
                        " feature count overflows");
        const DirEntry *wScales = findSection(SectionKind::WScales, i);
        const DirEntry *bias = findSection(SectionKind::Bias, i);
        if (wScales == nullptr || wScales->length != floatBytes ||
            bias == nullptr || bias->length != floatBytes)
            return fail("corrupt container: layer ", i,
                        " scale/bias extents mismatch");
        layer.wScales = reinterpret_cast<const float *>(c->base_ +
                                                        wScales->offset);
        layer.bias = reinterpret_cast<const float *>(c->base_ +
                                                     bias->offset);
        c->layers_.push_back(layer);
    }

    c->dir_ = std::move(dir);
    out = std::move(c);
    return true;
}

bool
MappedContainer::hasChecksums() const
{
    for (const DirEntry &e : dir_)
        if ((e.reserved & kDirHasCrc) == 0)
            return false;
    return !dir_.empty();
}

bool
MappedContainer::verifyChecksums(std::string *error) const
{
    for (std::size_t i = 0; i < dir_.size(); ++i) {
        const DirEntry &e = dir_[i];
        if ((e.reserved & kDirHasCrc) == 0)
            continue; // pre-checksum container
        std::uint32_t stored = static_cast<std::uint32_t>(e.reserved);
        std::uint32_t actual = crc32(base_ + e.offset, e.length);
        if (stored != actual) {
            if (error != nullptr)
                *error = bbs::detail::concatMessage(
                    path_, ": section ", i, " (kind ", e.kind,
                    ", index ", e.index, ") checksum mismatch: stored ",
                    stored, ", payload hashes to ", actual);
            return false;
        }
    }
    return true;
}

std::shared_ptr<const MappedContainer>
MappedContainer::open(const std::string &path)
{
    std::shared_ptr<const MappedContainer> c;
    std::string error;
    if (!tryOpen(path, c, &error))
        BBS_FATAL(error);
    return c;
}

engine::PackedOperand
mapOperand(const std::shared_ptr<const MappedContainer> &c, std::size_t i)
{
    BBS_REQUIRE(c != nullptr && i < c->operandCount(),
                "operand index out of range");
    const OperandMetaSection &meta = c->operands_[i];
    if (meta.packKind ==
        static_cast<std::uint32_t>(engine::PackKind::DenseBitPlanes))
        // Aliasing shared_ptr: shares the container's control block but
        // points at the view object, so the operand (and every plan
        // built on it) keeps the mapping alive.
        return engine::PackedOperand::mappedDense(
            std::shared_ptr<const BitSerialMatrix>(c,
                                                   &c->denseViews_[i]));
    return engine::PackedOperand::mappedCompressed(
        std::shared_ptr<const CompressedRowPlanes>(c, &c->rowViews_[i]),
        meta.meanStoredBits);
}

Int8Network
mapModel(const std::shared_ptr<const MappedContainer> &c)
{
    BBS_REQUIRE(c != nullptr && c->hasModel(),
                "container holds no model layers");
    std::vector<Int8LinearLayer> layers;
    layers.reserve(c->layerCount());
    for (std::size_t i = 0; i < c->layerCount(); ++i) {
        const MappedContainer::Layer &src = c->layer(i);
        const std::size_t opIdx = src.meta.operandIndex;
        Int8LinearLayer layer;
        layer.planes = std::shared_ptr<const CompressedRowPlanes>(
            c, &c->rowViews_[opIdx]);
        layer.plan = engine::defaultSession().plan(mapOperand(c, opIdx));
        layer.inFeatures = src.meta.inFeatures;
        layer.groupSize = src.meta.groupSize;
        auto outF = static_cast<std::size_t>(src.meta.outFeatures);
        // Scales and bias are copied out of the mapping: per-output-
        // channel floats, tiny next to the planes, and keeping them
        // owned means the float tensors need no view machinery.
        layer.wScales.assign(src.wScales, src.wScales + outF);
        layer.bias = FloatTensor(
            Shape{src.meta.outFeatures},
            std::vector<float>(src.bias, src.bias + outF));
        layer.reluAfter = src.meta.reluAfter == 1;
        layer.geluAfter = src.meta.geluAfter == 1;
        layers.push_back(std::move(layer));
    }
    return Int8Network::fromLayers(std::move(layers));
}

} // namespace bbs::store
