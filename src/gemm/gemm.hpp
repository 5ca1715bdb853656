/**
 * @file
 * Dense bit-serial GEMM over packed bit planes.
 *
 * Both operands are `BitSerialMatrix` packings sharing the depth
 * dimension (weights [K, C], activations [N, C]); the product is computed
 * entirely in the bit domain: for every pair of bit planes (b, c),
 * AND+popcount over the 64-column words contributes
 * columnWeight(b) * columnWeight(c) * popcount to the accumulator
 * (gemmbitserial's algorithm). The kernel is cache-blocked over depth
 * words and register-tiled 2x1x2 — two activation rows x one depth word x
 * two weight rows share four plane loads per step — and parallelized over
 * activation-row tiles with parallelFor.
 *
 * `gemmReferenceBatch` is the naive per-element loop the test suite pins
 * the kernel against, exactly; `gemmReference` is the [C, N]-orientation
 * form the functional BitVert array simulation checks against (moved here
 * from accel/ so every GEMM reference lives beside the engine). The
 * references stay real functions on purpose: they are the oracles the
 * engine facade is pinned against, so they must not route through it.
 *
 * The kernel itself is detail::gemmBitSerialKernel; callers reach it
 * through an engine::MatmulPlan (engine/engine.hpp) whose kind resolves
 * to TiledBitSerial, or the engine::matmulBitSerial convenience.
 */
#ifndef BBS_GEMM_GEMM_HPP
#define BBS_GEMM_GEMM_HPP

#include "engine/tuning.hpp"
#include "gemm/bit_serial_matrix.hpp"
#include "tensor/tensor.hpp"

namespace bbs {

/**
 * Maximum GEMM depth the INT32 output tensor supports without overflow:
 * the worst-case |dot| is depth * 128 * 128, so depth must stay below
 * 2^17 for the accumulator to fit (the engine kernels enforce this
 * rather than truncate silently — it also keeps the GEMM forward path
 * provably bit-identical to the int64 per-dot reference).
 */
inline constexpr std::int64_t kMaxGemmDepth = (1ll << 17) - 1;

/**
 * Naive integer GEMM reference: outputs [K, N] of
 * weights [K, C] x activations [C, N] (column-vector orientation used by
 * the functional accelerator simulations).
 */
Int32Tensor gemmReference(const Int8Tensor &weights,
                          const Int8Tensor &activations);

/**
 * Naive batched reference in the inference orientation: activations
 * [N, C] (one sample per row) x weights [K, C] -> outputs [N, K].
 */
Int32Tensor gemmReferenceBatch(const Int8Tensor &activations,
                               const Int8Tensor &weights);

namespace detail {

/**
 * Reshape @p out to [n, k] only when its shape differs — the
 * buffer-reuse contract every GEMM kernel and plan run shares (a
 * serving loop executing the same model batch after batch skips the
 * per-call allocate + zero-fill; every element is overwritten).
 */
inline void
ensureOutputShape(Int32Tensor &out, std::int64_t n, std::int64_t k)
{
    if (out.shape().rank() != 2 || out.shape().dim(0) != n ||
        out.shape().dim(1) != k)
        out.resizeTo(Shape{n, k}); // Shape enforces n, k >= 1; storage
                                   // is reused in place (grow-only)
}

/**
 * Bit-serial AND+popcount GEMM kernel: activations [N, C] x weights
 * [K, C], both packed, -> @p out [N, K] (reshaped only when its shape
 * differs, so repeated runs reuse the buffer). Exactly equals
 * gemmReferenceBatch on the unpacked operands for EVERY @p tuning
 * (blocking and tile shape change traversal order, never arithmetic).
 * The engine's TiledBitSerial plan kind executes here; the default
 * tuning derives the depth block from the detected cache topology and
 * runs the 2x1x2 SIMD register tile.
 */
void gemmBitSerialKernel(const BitSerialMatrix &activations,
                         const BitSerialMatrix &weights, Int32Tensor &out,
                         const engine::TuningParams &tuning = {});

} // namespace detail

} // namespace bbs

#endif // BBS_GEMM_GEMM_HPP
