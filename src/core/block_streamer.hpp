// The per-block streaming core: read kernel -> PE chain -> write kernel
// for one overlapped block, driven by the collapsed global vector index.
//
// This is the code that used to live inline in
// StencilAccelerator::run_pass. It is factored out because two executors
// stream blocks: the synchronous simulator (a whole pass as one run of
// blocks) and the block-parallel backend (blocks fanned out over a worker
// pool, one at a time). Both call these functions, so their outputs are
// bit-exact with each other by construction, not by coincidence.
//
// stream_block is a dispatcher: when the configuration's tap set and
// parvec are inside the KernelRegistry envelope (and
// cfg.use_specialized_kernels, the default), the block -- or the run of
// consecutive blocks the synchronous simulator hands over per pass --
// runs on a compile-time-specialized vectorized kernel (src/kernels);
// otherwise it runs on the scalar interpreter below. The two paths are
// bit-exact, so every backend (sync, block-parallel, resilient, engine)
// gets the speedup without a semantic change. stream_block_generic
// exposes the interpreter directly -- it is the semantic reference the
// kernels are tested against and the baseline the dispatch microbench
// measures.
//
// A call touches only its arguments: the PE chain and the lane buffers
// `va`/`vb` (each cfg.parvec floats) must be private to the caller
// (thread), while `in`/`out` may be shared across concurrent calls --
// reads are unrestricted and each block writes only its own disjoint
// compute region. (The specialized path additionally uses a
// thread-local scratch slab internal to src/kernels.)
//
// Store: every retired cell lands in `out` through `store` (StoreOp,
// stencil/store_op.hpp): assign writes the result, add writes
// prev + result. Both paths apply it per cell in their write step, so a
// pass's result never needs a second pass over the grid to combine.
//
// Cancellation: a non-null `cancel` token is checked every few hundred
// vectors (interpreter) / every streamed plane or row of the run
// (specialized); a tripped token aborts the run by throwing
// CancelledError / DeadlineExceededError. Partial writes land only in `out`,
// which the caller discards on unwind (the in-place runs keep the last
// completed pass; see StencilAccelerator::run).
#pragma once

#include <span>
#include <vector>

#include "common/cancellation.hpp"
#include "core/stencil_accelerator.hpp"
#include "stencil/store_op.hpp"

namespace fpga_stencil {

/// Streams the run of `count` consecutive blocks of `plan` from block
/// `first` through `pes` for a pass of `steps <= partime` time steps,
/// storing valid cells of each block's compute region into `out` with
/// `store`. One registry lookup serves the run; a specialized kernel
/// computes the run's adjacent blocks as a few merged tiles
/// (kernels/run_specialized_impl.hpp), and the interpreter walks the run
/// block by block. A sync pass is one run of every block of the plan.
void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, std::int64_t first,
                  std::int64_t count, const Grid2D<float>& in,
                  Grid2D<float>& out, int steps, std::span<float> va,
                  std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel = nullptr,
                  const StoreOp& store = {});
void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, std::int64_t first,
                  std::int64_t count, const Grid3D<float>& in,
                  Grid3D<float>& out, int steps, std::span<float> va,
                  std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel = nullptr,
                  const StoreOp& store = {});

/// Streams one 2D block (1.5D blocking: x blocked, y streamed): the
/// count-1 run of `blk`, which must be block_extent(plan, blk.index).
void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid2D<float>& in, Grid2D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel = nullptr,
                  const StoreOp& store = {});

/// Streams one 3D block (2.5D blocking: x/y blocked, z streamed).
void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid3D<float>& in, Grid3D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel = nullptr,
                  const StoreOp& store = {});

/// The scalar interpreter, bypassing the KernelRegistry unconditionally.
/// Semantic reference for tests/kernels_test.cpp and baseline for
/// bench/microbench_kernel_dispatch.cpp.
void stream_block_generic(std::vector<ProcessingElement>& pes,
                          const BlockingPlan& plan, const BlockExtent& blk,
                          const Grid2D<float>& in, Grid2D<float>& out,
                          int steps, std::span<float> va, std::span<float> vb,
                          RunStats& stats,
                          const CancellationToken* cancel = nullptr,
                          const StoreOp& store = {});
void stream_block_generic(std::vector<ProcessingElement>& pes,
                          const BlockingPlan& plan, const BlockExtent& blk,
                          const Grid3D<float>& in, Grid3D<float>& out,
                          int steps, std::span<float> va, std::span<float> vb,
                          RunStats& stats,
                          const CancellationToken* cancel = nullptr,
                          const StoreOp& store = {});

}  // namespace fpga_stencil
