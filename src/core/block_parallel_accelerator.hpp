// Block-parallel execution: host-side parallelism from overlapped tiling.
//
// Overlapped spatial blocking (paper eq. 2) pads every block with a halo
// of partime*rad cells per side, which makes each block's full
// partime-step chain completely independent within a pass: no halo
// exchange, no ordering constraints between blocks. On the FPGA that
// independence buys redundancy-free synchronization between PEs; on the
// host it buys thread-level parallelism. This backend executes the exact
// BlockingPlan of the synchronous simulator but fans the blocks of each
// pass out over a pool of worker threads:
//
//   * One worker = one private PE chain + one pair of lane buffers
//     (leased from RunOptions::pool when set), so workers share nothing
//     but the two grids and the block cursor.
//   * Work stealing: workers claim flat block indices from a shared
//     atomic cursor, so an uneven last block never idles the pool.
//   * Passes are barriers: pass k+1 reads cells that pass k wrote into
//     neighbouring blocks' halo regions, so every block of a pass
//     retires before the next pass starts. The pass sequence is the sync
//     simulator's (core/pass_chain.hpp): in place, or from an input to a
//     separate output whose last pass stores with a StoreOp.
//   * Determinism: each block writes only its own compute region
//     (disjoint by construction of the plan) through the same
//     stream_block() core as StencilAccelerator, so the output is
//     bit-exact with the sync simulator -- and therefore with the naive
//     reference -- for ANY worker count. Pinned by
//     tests/block_parallel_test.cpp, including under TSan.
//
// Scaling trade: more workers want more blocks (smaller bsize), but
// smaller blocks raise the redundancy factor streamed/valid (eq. 2).
// docs/PARALLEL.md quantifies the trade; automatic routing picks this
// backend by single_board_backend() below.
#pragma once

#include "core/run_options.hpp"
#include "core/stencil_accelerator.hpp"

namespace fpga_stencil {

/// Worker count a RunOptions asks for: `workers` when positive, else
/// std::thread::hardware_concurrency() (always >= 1). The routing rule
/// (single_board_backend) uses this uncapped request.
[[nodiscard]] int requested_block_workers(int workers);

/// The automatic single-board routing rule that run() and the engine
/// share: block_parallel when at least two requested workers each get at
/// least two of the plan's blocks, else sync_sim -- below that the sync
/// sweep beats spawning a starved pool.
[[nodiscard]] ExecutionBackend single_board_backend(int workers,
                                                    const BlockingPlan& plan);

/// Workers a block-parallel run of `plan` actually spawns: the request
/// clamped to the plan's block count, so no worker is born idle.
[[nodiscard]] int resolved_block_workers(const RunOptions& options,
                                         const BlockingPlan& plan);

/// Advances `grid` by `iterations` time steps in place on a worker pool.
/// Bit-exact with StencilAccelerator::run for the same inputs regardless
/// of options.workers. Instantiated for Grid2D<float> and Grid3D<float>.
template <typename GridT>
RunStats run_block_parallel(const TapSet& taps, const AcceleratorConfig& cfg,
                            GridT& grid, int iterations,
                            const RunOptions& options = {});

extern template RunStats run_block_parallel<Grid2D<float>>(
    const TapSet&, const AcceleratorConfig&, Grid2D<float>&, int,
    const RunOptions&);
extern template RunStats run_block_parallel<Grid3D<float>>(
    const TapSet&, const AcceleratorConfig&, Grid3D<float>&, int,
    const RunOptions&);

/// Advances `in` by `iterations` time steps on a worker pool and stores
/// the result into `out` (same extents, another buffer) with `store`;
/// `store.prev` may be `out` itself. Passes before the last run over
/// spare grids leased from options.pool (a private pool when null;
/// options.scratch is not used); only the last pass touches `out`.
/// `iterations` must be positive. Bit-exact with
/// StencilAccelerator::run_into regardless of options.workers. An aborted
/// run throws with `in` untouched and `out` unspecified.
template <typename GridT>
RunStats run_block_parallel_into(const TapSet& taps,
                                 const AcceleratorConfig& cfg,
                                 const GridT& in, GridT& out, int iterations,
                                 const StoreOp& store,
                                 const RunOptions& options = {});

extern template RunStats run_block_parallel_into<Grid2D<float>>(
    const TapSet&, const AcceleratorConfig&, const Grid2D<float>&,
    Grid2D<float>&, int, const StoreOp&, const RunOptions&);
extern template RunStats run_block_parallel_into<Grid3D<float>>(
    const TapSet&, const AcceleratorConfig&, const Grid3D<float>&,
    Grid3D<float>&, int, const StoreOp&, const RunOptions&);

}  // namespace fpga_stencil
