/**
 * @file
 * TuningParams — the kernel constants that used to be baked into the
 * source, promoted to a value type the engine carries around
 * (EngineConfig::tuning) and the autotuner sweeps.
 *
 * Two families of knobs:
 *
 *  - **GEMM cache blocking** (`depthBlockWords`): how many 64-column
 *    plane words the dense tiled kernel streams per cache block. 0 means
 *    "derive from the machine": resolvedDepthBlockWords() sizes the block
 *    so the four resident plane rows (2 activation + 2 weight) fill about
 *    half of the detected L1d (engine/cache_topology.hpp) — on a 32 KiB
 *    L1d that reproduces the old hard-coded 512 words (16 KiB).
 *  - **Register tile** (`tileRows` x `tileCols`): 2x2 runs the SIMD
 *    andPopcountTile micro-kernel (four AND+popcount streams sharing
 *    four plane loads); 1x1 runs the plain andPopcountAccumulate stream.
 *    2x2 wins everywhere measured so far, but the choice is now a
 *    sweepable parameter instead of an article of faith.
 *
 * The compressed kernel has no knob here: its stage 2 always runs the
 * fixed 2x2 SimdKernels::compressedGemmTile register tile.
 *
 * All parameter combinations are bit-identical by construction (they
 * change traversal order and kernel shape, never arithmetic), so tuning
 * is purely a performance decision — the test suite fuzzes that pin.
 */
#ifndef BBS_ENGINE_TUNING_HPP
#define BBS_ENGINE_TUNING_HPP

#include <cstdint>

namespace bbs::engine {

struct TuningParams
{
    /** Depth words per dense-GEMM cache block; 0 = derive from the
     *  detected cache topology (resolvedDepthBlockWords()). */
    std::int64_t depthBlockWords = 0;

    /** Activation rows per register tile (1 or 2). */
    int tileRows = 2;
    /** Weight rows per register tile (1 or 2). */
    int tileCols = 2;

    /** depthBlockWords with 0 resolved against the detected cache
     *  topology; always a power of two in [128, 4096]. */
    std::int64_t resolvedDepthBlockWords() const;
};

} // namespace bbs::engine

#endif // BBS_ENGINE_TUNING_HPP
