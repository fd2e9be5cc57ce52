// The pass sequence both single-board executors share
// (StencilAccelerator and run_block_parallel).
//
// A run of `iterations` time steps is ceil(iterations / partime) passes.
// Pass 0 reads the run's input; every pass but the last assigns into a
// spare grid, alternating between two; the last pass stores into the
// run's output with the run's StoreOp. Only the last pass touches the
// output, because an `add` store may read the output itself as `prev`.
//
// An in-place run is the same chain with the grid as input and as second
// spare and a scratch grid as first spare: its passes ping-pong between
// the two, and the last one lands in whichever the pass count's parity
// picks.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid.hpp"
#include "grid/leased_grid.hpp"
#include "stencil/store_op.hpp"

namespace fpga_stencil {

[[nodiscard]] inline int pass_count(int iterations, int partime) {
  return (iterations + partime - 1) / partime;
}

/// Runs `pass(src, dst, steps, store)` once per pass of the chain from
/// `in` to `out` (see above). `done` tracks the grid holding the last
/// completed pass (`in` before the first), so a caller can unwind to it.
template <typename GridT, typename PassFn>
void run_pass_chain(const GridT& in, GridT& out, GridT* spare0,
                    GridT* spare1, int iterations, int partime,
                    const StoreOp& store, const GridT*& done, PassFn&& pass) {
  GridT* const spare[2] = {spare0, spare1};
  done = &in;
  for (int remaining = iterations, i = 0; remaining > 0; ++i) {
    const int steps = std::min(remaining, partime);
    remaining -= steps;
    GridT& dst = remaining == 0 ? out : *spare[i % 2];
    pass(*done, dst, steps, remaining == 0 ? store : StoreOp::assign());
    done = &dst;
  }
}

/// An in-place run of `passes` passes over `grid`:
/// `chain(out, spare0, spare1, done)` runs the chain with `grid` as input,
/// a scratch grid (over `scratch_storage` when non-null) as spare 0 and
/// `grid` as spare 1, and the result is swapped into `grid`. On unwind
/// `grid` holds the last completed pass and `scratch_storage` is left
/// empty; on return it gets the scratch storage back.
template <typename GridT, typename ChainFn>
RunStats in_place_chain(GridT& grid, int passes,
                        std::vector<float>* scratch_storage, ChainFn&& chain) {
  GridT scratch = grid_over(grid, scratch_storage
                                      ? std::move(*scratch_storage)
                                      : std::vector<float>());
  GridT& out = passes % 2 == 1 ? scratch : grid;
  const GridT* done = &grid;
  RunStats stats;
  try {
    stats = chain(out, &scratch, &grid, done);
  } catch (...) {
    if (done == &scratch) std::swap(grid, scratch);
    throw;
  }
  if (done == &scratch) std::swap(grid, scratch);
  if (scratch_storage) *scratch_storage = scratch.release_storage();
  return stats;
}

/// The spare grids of an in -> out chain of `passes` passes (one per
/// intermediate result, at most two live), shaped like `like`, leased
/// from `pool` (a private pool when null) until destruction.
template <typename GridT>
class ChainSpares {
 public:
  ChainSpares(const GridT& like, int passes, BufferPool* pool) {
    for (int i = 0; i < std::min(passes - 1, 2); ++i) {
      spares_[i].emplace(pool ? *pool : fallback_, like);
    }
  }

  /// Spare `i`, or null when the chain needs fewer.
  [[nodiscard]] GridT* get(int i) {
    return spares_[i] ? &spares_[i]->grid() : nullptr;
  }

 private:
  BufferPool fallback_;  ///< outlives spares_
  std::optional<LeasedGrid<GridT>> spares_[2];
};

}  // namespace fpga_stencil
