/**
 * @file
 * PackedOperand — one value type for "an INT8 matrix packed for the
 * bit-serial engine", subsuming the packing-type zoo behind
 * `Session::pack()`.
 *
 * An operand holds exactly one payload:
 *  - **DenseBitPlanes**: a BitSerialMatrix (whole matrix packed into
 *    [bit][row][col-word] uint64 planes) — activations, or weights for
 *    the dense tiled kernel;
 *  - **CompressedRows**: CompressedRowPlanes (BBS-compressed weight rows:
 *    surviving-column planes + pruned-column shift + BBS constant per
 *    group), the operand's only weight copy.
 *
 * Operands are cheap to copy (shared immutable payloads) and safe to
 * share across threads. Their on-disk form is the BBMS container
 * (store::writeOperandContainer / store::mapOperand), whose payload is
 * this in-memory layout.
 */
#ifndef BBS_ENGINE_PACKED_OPERAND_HPP
#define BBS_ENGINE_PACKED_OPERAND_HPP

#include <cstdint>
#include <memory>
#include <span>

#include "core/group_compressor.hpp"
#include "gemm/bit_serial_matrix.hpp"
#include "gemm/compressed_gemm.hpp"

namespace bbs::engine {

/** Internal representation a PackedOperand chose. */
enum class PackKind
{
    DenseBitPlanes = 0,
    CompressedRows = 1,
};

/** "dense-bit-planes" / "compressed-rows". */
const char *packKindName(PackKind k);

/** BBS compression operating point for Session::pack(). */
struct PackOptions
{
    std::int64_t groupSize = 32;
    int targetColumns = 0;
    PruneStrategy strategy = PruneStrategy::ZeroPointShifting;
};

class PackedOperand
{
  public:
    PackedOperand() = default;

    /** Pack a dense matrix into bit planes. */
    static PackedOperand packDense(const Int8Tensor &m);
    static PackedOperand packDense(std::span<const std::int8_t> values,
                                   std::int64_t rows, std::int64_t cols);

    /** BBS-compress row by row into row planes (weights path). */
    static PackedOperand packCompressed(const Int8Tensor &m,
                                        const PackOptions &opts);

    /** Share an already-prepared row-plane packing (no copy). */
    static PackedOperand
    fromPrepared(std::shared_ptr<const CompressedRowPlanes> planes);

    /**
     * Non-owning views over caller-kept packings (the engine::matmul*
     * conveniences and prepacked activations). The caller must keep the
     * viewed object alive for the operand's lifetime.
     */
    static PackedOperand viewDense(const BitSerialMatrix &m);
    static PackedOperand viewCompressed(const CompressedRowPlanes &p);

    /**
     * Mapped-view operands (the mmap model store): the payload is a
     * view packing whose plane pointers live in an mmap'd container,
     * and the shared_ptr's ownership (typically an aliasing shared_ptr
     * into the MappedContainer) keeps the mapping alive for as long as
     * any operand or plan built over it exists. `mappedCompressed`
     * takes the precomputed stored-bit mean (the container's
     * OperandMeta) so creating the operand never scans — and therefore
     * never page-faults — the group payload. Plan runs are
     * bit-identical to the owned path (tests/test_store.cpp pins it).
     */
    static PackedOperand
    mappedDense(std::shared_ptr<const BitSerialMatrix> view);
    static PackedOperand
    mappedCompressed(std::shared_ptr<const CompressedRowPlanes> view,
                     double meanStoredBits);

    /** True for mapped*-built operands (payload lives in a mapping). */
    bool mapped() const { return mapped_; }

    bool empty() const { return rows() == 0 || cols() == 0; }
    PackKind kind() const { return kind_; }
    bool compressed() const { return kind_ == PackKind::CompressedRows; }
    std::int64_t rows() const;
    std::int64_t cols() const;

    /**
     * Mean stored bit columns per weight (8.0 = compression removed
     * nothing; 0.0 = every group fully pruned). Dense operands report
     * 8.0. The sparsity signal MatmulPlan::selectKind() reads.
     */
    double meanStoredBits() const { return meanStoredBits_; }

    /** The dense packing; requires kind() == DenseBitPlanes. */
    const BitSerialMatrix &dense() const;

    /** The compressed row planes; requires kind() == CompressedRows. */
    const CompressedRowPlanes &compressedRows() const;

    /** Reconstruct the INT8 matrix [rows, cols] (exact for either
     *  representation). */
    Int8Tensor unpack() const;

  private:
    PackKind kind_ = PackKind::DenseBitPlanes;
    bool mapped_ = false;
    double meanStoredBits_ = 8.0;
    std::shared_ptr<const BitSerialMatrix> dense_;
    std::shared_ptr<const CompressedRowPlanes> rows_;
};

} // namespace bbs::engine

#endif // BBS_ENGINE_PACKED_OPERAND_HPP
