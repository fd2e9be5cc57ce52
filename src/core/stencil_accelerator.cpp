#include "core/stencil_accelerator.hpp"

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>

#include "common/stopwatch.hpp"
#include "core/block_streamer.hpp"
#include "core/pass_chain.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {

AcceleratorConfig resolve_stage_lag(const TapSet& taps,
                                    AcceleratorConfig cfg) {
  cfg.validate();
  FPGASTENCIL_EXPECT(taps.dims() == cfg.dims && taps.radius() <= cfg.radius,
                     "tap set and configuration disagree on dims/radius");
  if (cfg.stage_lag == 0) {
    // The forward reach after any border remap (TapSet::remapped_reach),
    // the same bound the PEs size their shift registers from.
    const std::int64_t fwd =
        taps.remapped_reach(cfg.bsize_x, cfg.row_cells()).fwd;
    const std::int64_t rows =
        ceil_div(std::max<std::int64_t>(fwd, 1), cfg.row_cells());
    cfg.stage_lag = static_cast<int>(std::max<std::int64_t>(rows, 1));
  }
  return cfg;
}

StencilAccelerator::StencilAccelerator(const TapSet& taps,
                                       const AcceleratorConfig& cfg)
    : taps_(taps), cfg_(resolve_stage_lag(taps, cfg)) {
  FPGASTENCIL_EXPECT(taps.dims() == cfg_.dims && taps.radius() <= cfg_.radius,
                     "tap set and configuration disagree on dims/radius");
  pes_.reserve(static_cast<std::size_t>(cfg_.partime));
  for (int k = 0; k < cfg_.partime; ++k) {
    pes_.emplace_back(taps_, cfg_, k);
  }
  vec_a_.resize(static_cast<std::size_t>(cfg_.parvec));
  vec_b_.resize(static_cast<std::size_t>(cfg_.parvec));
}

StencilAccelerator::StencilAccelerator(const StarStencil& stencil,
                                       const AcceleratorConfig& cfg)
    : StencilAccelerator(stencil.to_taps(), cfg) {
  FPGASTENCIL_EXPECT(
      stencil.dims() == cfg.dims && stencil.radius() == cfg.radius,
      "stencil and configuration disagree on dims/radius");
}

RunStats StencilAccelerator::run(Grid2D<float>& grid, int iterations,
                                 std::vector<float>* scratch,
                                 const CancellationToken* cancel) {
  FPGASTENCIL_EXPECT(cfg_.dims == 2, "2D run on a 3D configuration");
  return run_in_place(grid, iterations, scratch, cancel);
}

RunStats StencilAccelerator::run(Grid3D<float>& grid, int iterations,
                                 std::vector<float>* scratch,
                                 const CancellationToken* cancel) {
  FPGASTENCIL_EXPECT(cfg_.dims == 3, "3D run on a 2D configuration");
  return run_in_place(grid, iterations, scratch, cancel);
}

RunStats StencilAccelerator::run_into(const Grid2D<float>& in,
                                      Grid2D<float>& out, int iterations,
                                      const StoreOp& store, BufferPool* pool,
                                      const CancellationToken* cancel) {
  FPGASTENCIL_EXPECT(cfg_.dims == 2, "2D run on a 3D configuration");
  return run_into_impl(in, out, iterations, store, pool, cancel);
}

RunStats StencilAccelerator::run_into(const Grid3D<float>& in,
                                      Grid3D<float>& out, int iterations,
                                      const StoreOp& store, BufferPool* pool,
                                      const CancellationToken* cancel) {
  FPGASTENCIL_EXPECT(cfg_.dims == 3, "3D run on a 2D configuration");
  return run_into_impl(in, out, iterations, store, pool, cancel);
}

template <typename GridT>
RunStats StencilAccelerator::run_in_place(GridT& grid, int iterations,
                                          std::vector<float>* scratch,
                                          const CancellationToken* cancel) {
  FPGASTENCIL_EXPECT(iterations >= 0, "iterations must be non-negative");
  return in_place_chain(
      grid, pass_count(iterations, cfg_.partime), scratch,
      [&](GridT& out, GridT* spare0, GridT* spare1, const GridT*& done) {
        return run_chain(grid, out, spare0, spare1, iterations,
                         StoreOp::assign(), done, cancel);
      });
}

template <typename GridT>
RunStats StencilAccelerator::run_into_impl(const GridT& in, GridT& out,
                                           int iterations,
                                           const StoreOp& store,
                                           BufferPool* pool,
                                           const CancellationToken* cancel) {
  FPGASTENCIL_EXPECT(iterations > 0, "run_into needs at least one step");
  FPGASTENCIL_EXPECT(in.size() == out.size() && in.data() != out.data(),
                     "run_into needs an output the input's size, elsewhere");
  const int passes = pass_count(iterations, cfg_.partime);
  ChainSpares<GridT> spares(in, passes, pool);
  const GridT* done = nullptr;
  return run_chain(in, out, spares.get(0), spares.get(1), iterations, store,
                   done, cancel);
}

template <typename GridT>
RunStats StencilAccelerator::run_chain(const GridT& in, GridT& out,
                                       GridT* spare0, GridT* spare1,
                                       int iterations, const StoreOp& store,
                                       const GridT*& done,
                                       const CancellationToken* cancel) {
  RunStats stats;
  run_pass_chain(
      in, out, spare0, spare1, iterations, cfg_.partime, store, done,
      [&](const GridT& src, GridT& dst, int steps, const StoreOp& st) {
        const std::int64_t written_before = stats.cells_written;
        Tracer::Span span;
        if (cfg_.telemetry) {
          span = cfg_.telemetry->tracer().span("sync_pass", 0, "sync");
        }
        const Stopwatch pass_clock;
        run_pass(src, dst, steps, stats, cancel, st);
        if (cfg_.telemetry) {
          span.end();
          record_pass_metrics(*cfg_.telemetry, "sync",
                              stats.cells_written - written_before,
                              pass_clock.nanoseconds());
        }
        stats.time_steps += steps;
        ++stats.passes;
      });
  return stats;
}

template <typename GridT>
void StencilAccelerator::run_pass(const GridT& in, GridT& out, int steps,
                                  RunStats& stats,
                                  const CancellationToken* cancel,
                                  const StoreOp& store) {
  BlockingPlan plan;
  if constexpr (std::is_same_v<GridT, Grid3D<float>>) {
    plan = make_blocking_plan(cfg_, in.nx(), in.ny(), in.nz());
  } else {
    plan = make_blocking_plan(cfg_, in.nx(), in.ny());
  }
  // The whole pass is one run, which a 2D kernel streams row by row
  // across all its blocks (kernels/run_specialized_impl.hpp).
  stream_block(pes_, plan, 0, plan.total_blocks(), in, out, steps,
               std::span<float>(vec_a_), std::span<float>(vec_b_), stats,
               cancel, store);
}

}  // namespace fpga_stencil
