/**
 * @file
 * The bbs engine — the library's unified compute API.
 *
 * One facade over the bit-serial compute zoo that grew across the first
 * four PRs (four dot forms plus scalar twins, two GEMM engines, three
 * forward variants, and three packing types, each with its own ad-hoc
 * config channel):
 *
 *  - **Session** (engine/session.hpp): owns an EngineConfig — thread
 *    cap, SIMD level, scratch-arena reservation — and is the single
 *    source of truth replacing scattered env reads and global setters.
 *  - **PackedOperand** (engine/packed_operand.hpp): one value type for a
 *    packed INT8 matrix, produced by `Session::pack()`, which chooses
 *    the representation (dense bit planes vs BBS-compressed row planes)
 *    and round-trips through bytes bit-exactly.
 *  - **MatmulPlan** (engine/plan.hpp): created once via
 *    `Session::plan(weights, hints)`, executed with `plan.run(acts)`;
 *    picks per-dot vs tiled bit-serial vs compressed-batched execution
 *    from batch size, shape and sparsity — or from the autotuner's
 *    measured winners when a tuning cache is loaded — with an
 *    explicit-override escape hatch.
 *  - **Autotuner** (engine/autotune.hpp): measures the kinds and the
 *    kernel parameters (cache-topology depth blocking, register tiles)
 *    per shape class and persists winners as a JSON tuning cache
 *    Sessions load at creation (BBS_TUNE_CACHE).
 *
 * Backends (sharding, caching, new accelerators) mount behind plans;
 * callers target this header.
 */
#ifndef BBS_ENGINE_ENGINE_HPP
#define BBS_ENGINE_ENGINE_HPP

#include "engine/autotune.hpp"
#include "engine/cache_topology.hpp"
#include "engine/engine_config.hpp"
#include "engine/packed_operand.hpp"
#include "engine/plan.hpp"
#include "engine/scratch.hpp"
#include "engine/session.hpp"

#endif // BBS_ENGINE_ENGINE_HPP
