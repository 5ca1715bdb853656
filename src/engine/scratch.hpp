/**
 * @file
 * Per-thread scratch arena for the compressed GEMM's stage-1 staging
 * (activation window blocks + per-group activation sums) and the
 * activation-pack buffer every plan kind but per-dot packs into.
 *
 * Stage 1 stages windows per *sample pair*: one 64-byte block of 16
 * uint32 lanes per (pair, group, 32-column word), lanes 0-7 the even
 * sample's eight activation planes and lanes 8-15 the odd sample's
 * (zeros when the batch has no odd sample), so stage 2 ANDs one
 * broadcast weight plane word against two samples per vector. The
 * engine owns the type so Sessions can pre-reserve it
 * (EngineConfig::scratchReserveRows / ShapeHints::expectedBatch) and so
 * its sizing policy is visible API, not a kernel implementation detail.
 * Arenas keep their high-water allocation for the thread's lifetime: a
 * serving worker draining batch after batch pays zero allocations after
 * the first.
 *
 * Threading contract: the kernel resolves the calling thread's arena
 * ONCE at entry and hands its workers raw pointers — parallelFor
 * workers are fresh threads, and a lambda naming the thread_local would
 * resolve to the worker's own empty instance.
 */
#ifndef BBS_ENGINE_SCRATCH_HPP
#define BBS_ENGINE_SCRATCH_HPP

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "gemm/bit_serial_matrix.hpp"

namespace bbs::engine {

struct ScratchArena
{
    /** Stage-1 window blocks, 16 uint32 lanes per (sample pair, group,
     *  32-column word), 64-byte aligned so each block is exactly one
     *  cache line. */
    AlignedVector<std::uint32_t> windows;
    /** Per-(sample pair, group) sums of activations, even sample
     *  first. */
    std::vector<std::int32_t> sums;
    /** Reusable bit-plane packing of the current activation batch: plan
     *  runs repack each batch in place here (BitSerialMatrix::packInto),
     *  so steady-state execution packs with zero allocations. */
    BitSerialMatrix actsPack;

    /** Grow (never shrink) to hold the staging of @p rows samples over
     *  @p groupsPerRow groups of @p planeWords words. */
    void
    reserve(std::int64_t rows, std::int64_t groupsPerRow, int planeWords)
    {
        if (rows <= 0 || groupsPerRow <= 0)
            return;
        std::size_t blocks =
            static_cast<std::size_t>((rows + 1) / 2 * groupsPerRow);
        std::size_t words =
            blocks * static_cast<std::size_t>(planeWords) * 16;
        if (windows.size() < words)
            windows.resize(words);
        if (sums.size() < 2 * blocks)
            sums.resize(2 * blocks);
    }

    /** Grow the activation-pack buffer for @p rows x @p cols batches. */
    void
    reservePack(std::int64_t rows, std::int64_t cols)
    {
        actsPack.reserve(rows, cols);
    }

    /** The calling thread's arena (kept for the thread's lifetime). */
    static ScratchArena &
    forThisThread()
    {
        static thread_local ScratchArena arena;
        return arena;
    }
};

} // namespace bbs::engine

#endif // BBS_ENGINE_SCRATCH_HPP
