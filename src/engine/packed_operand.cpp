#include "engine/packed_operand.hpp"

#include "common/logging.hpp"

namespace bbs::engine {

namespace {

/** Non-deleting aliasing holder for view operands. */
template <typename T>
std::shared_ptr<const T>
nonOwning(const T &ref)
{
    return std::shared_ptr<const T>(std::shared_ptr<void>(), &ref);
}

} // namespace

const char *
packKindName(PackKind k)
{
    switch (k) {
    case PackKind::DenseBitPlanes: return "dense-bit-planes";
    case PackKind::CompressedRows: return "compressed-rows";
    }
    return "?";
}

PackedOperand
PackedOperand::packDense(const Int8Tensor &m)
{
    PackedOperand op;
    op.kind_ = PackKind::DenseBitPlanes;
    op.dense_ =
        std::make_shared<const BitSerialMatrix>(BitSerialMatrix::pack(m));
    op.meanStoredBits_ = 8.0;
    return op;
}

PackedOperand
PackedOperand::packDense(std::span<const std::int8_t> values,
                         std::int64_t rows, std::int64_t cols)
{
    PackedOperand op;
    op.kind_ = PackKind::DenseBitPlanes;
    op.dense_ = std::make_shared<const BitSerialMatrix>(
        BitSerialMatrix::pack(values, rows, cols));
    op.meanStoredBits_ = 8.0;
    return op;
}

PackedOperand
PackedOperand::packCompressed(const Int8Tensor &m, const PackOptions &opts)
{
    return fromPrepared(std::make_shared<const CompressedRowPlanes>(
        CompressedRowPlanes::compress(m, opts.groupSize, opts.targetColumns,
                                      opts.strategy)));
}

PackedOperand
PackedOperand::fromPrepared(
    std::shared_ptr<const CompressedRowPlanes> planes)
{
    BBS_REQUIRE(planes != nullptr, "null prepared planes");
    PackedOperand op;
    op.kind_ = PackKind::CompressedRows;
    op.rows_ = std::move(planes);
    op.meanStoredBits_ = op.rows_->meanStoredBits();
    return op;
}

PackedOperand
PackedOperand::mappedDense(std::shared_ptr<const BitSerialMatrix> view)
{
    BBS_REQUIRE(view != nullptr, "null mapped dense view");
    PackedOperand op;
    op.kind_ = PackKind::DenseBitPlanes;
    op.mapped_ = true;
    op.dense_ = std::move(view);
    op.meanStoredBits_ = 8.0;
    return op;
}

PackedOperand
PackedOperand::mappedCompressed(
    std::shared_ptr<const CompressedRowPlanes> view, double meanStoredBits)
{
    BBS_REQUIRE(view != nullptr, "null mapped compressed view");
    BBS_REQUIRE(meanStoredBits >= 0.0 && meanStoredBits <= 8.0,
                "mean stored bits must be 0..8, got ", meanStoredBits);
    PackedOperand op;
    op.kind_ = PackKind::CompressedRows;
    op.mapped_ = true;
    op.rows_ = std::move(view);
    // Precomputed (the container's OperandMeta): scanning the groups
    // here would fault in the whole payload at load time.
    op.meanStoredBits_ = meanStoredBits;
    return op;
}

PackedOperand
PackedOperand::viewDense(const BitSerialMatrix &m)
{
    PackedOperand op;
    op.kind_ = PackKind::DenseBitPlanes;
    op.dense_ = nonOwning(m);
    op.meanStoredBits_ = 8.0;
    return op;
}

PackedOperand
PackedOperand::viewCompressed(const CompressedRowPlanes &p)
{
    PackedOperand op;
    op.kind_ = PackKind::CompressedRows;
    op.rows_ = nonOwning(p);
    op.meanStoredBits_ = p.meanStoredBits();
    return op;
}

std::int64_t
PackedOperand::rows() const
{
    if (kind_ == PackKind::DenseBitPlanes)
        return dense_ ? dense_->rows() : 0;
    return rows_ ? rows_->rows() : 0;
}

std::int64_t
PackedOperand::cols() const
{
    if (kind_ == PackKind::DenseBitPlanes)
        return dense_ ? dense_->cols() : 0;
    return rows_ ? rows_->cols() : 0;
}

const BitSerialMatrix &
PackedOperand::dense() const
{
    BBS_REQUIRE(kind_ == PackKind::DenseBitPlanes && dense_ != nullptr,
                "operand is not a dense bit-plane packing");
    return *dense_;
}

const CompressedRowPlanes &
PackedOperand::compressedRows() const
{
    BBS_REQUIRE(kind_ == PackKind::CompressedRows && rows_ != nullptr,
                "operand is not a compressed row packing");
    return *rows_;
}

Int8Tensor
PackedOperand::unpack() const
{
    if (kind_ == PackKind::DenseBitPlanes)
        return dense().unpack();
    return compressedRows().decompress();
}

} // namespace bbs::engine
