#include "core/block_streamer.hpp"

#include <string>
#include <utility>

#include "common/stopwatch.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/kernel_workspace.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

/// Cancellation poll cadence: every 512 vectors, plus q = 0 so an
/// already-tripped token aborts before the block does any work. Cheap
/// (one branch per vector) yet far finer than the one-block-time bound
/// the engine promises for cancel().
constexpr std::int64_t kCancelCheckMask = 511;

/// Modular wrap into [0, n) for periodic fetches.
std::int64_t wrap_index(std::int64_t i, std::int64_t n) {
  const std::int64_t m = i % n;
  return m < 0 ? m + n : m;
}

/// The write kernel's store of `v` into `cell`, a cell of `out`.
template <typename GridT>
void store_cell(const StoreOp& store, const GridT& out, float& cell, float v) {
  cell = store.is_add() ? store.prev[&cell - out.data()] + v : v;
}

/// Runs blocks [first, first + count) on a registry kernel if this
/// configuration has one: one registry lookup per run. Returns false
/// (periodic, off-envelope or dispatch disabled) when the caller must fall
/// back to the interpreter. Telemetry, when attached: hit/miss counters
/// (per block) plus a per-kernel retired-cell throughput gauge (per run).
template <typename GridT>
bool try_specialized(std::vector<ProcessingElement>& pes,
                     const BlockingPlan& plan, std::int64_t first,
                     std::int64_t count, const GridT& in, GridT& out,
                     int steps, RunStats& stats,
                     const CancellationToken* cancel, const StoreOp& store) {
  const AcceleratorConfig& cfg = plan.config;
  if (!cfg.use_specialized_kernels || pes.empty()) return false;
  const TapSet& taps = pes.front().taps();
  // Kernels fill clamp, reflective and dirichlet ghost margins
  // (kernels/run_specialized_impl.hpp); the registry resolves periodic
  // boundaries to null, so they keep the wrap-extended interpreter below.
  const SpecializedKernel* kernel = KernelRegistry::instance().find(taps, cfg);
  if (kernel == nullptr) return false;
  Telemetry* const tel = cfg.telemetry;
  if (tel) tel->metrics().counter("kernels.dispatch_specialized").add(count);

  // Coefficients travel as runtime data in tap (= accumulation) order;
  // one specialized instantiation serves every coefficient set.
  std::vector<float>& cf = tls_kernel_workspace().coefficients();
  cf.resize(taps.size());
  for (std::size_t i = 0; i < taps.size(); ++i) {
    cf[i] = taps.taps()[i].coeff;
  }

  const std::int64_t written_before = stats.cells_written;
  const Stopwatch clock;
  if constexpr (std::is_same_v<GridT, Grid2D<float>>) {
    kernel->run_2d(plan, first, count, in, out, steps, cf.data(), stats,
                   cancel, taps.boundary(), store);
  } else {
    kernel->run_3d(plan, first, count, in, out, steps, cf.data(), stats,
                   cancel, taps.boundary(), store);
  }
  if (tel) {
    const std::int64_t ns = clock.nanoseconds();
    const std::int64_t cells = stats.cells_written - written_before;
    if (ns > 0) {
      tel->metrics()
          .gauge(std::string("kernels.") + kernel->name + ".cells_per_s")
          .set(cells * 1'000'000'000 / ns);
    }
  }
  return true;
}

template <typename GridT>
void stream_run(std::vector<ProcessingElement>& pes, const BlockingPlan& plan,
                std::int64_t first, std::int64_t count, const GridT& in,
                GridT& out, int steps, std::span<float> va,
                std::span<float> vb, RunStats& stats,
                const CancellationToken* cancel, const StoreOp& store) {
  if (try_specialized(pes, plan, first, count, in, out, steps, stats, cancel,
                      store)) {
    return;
  }
  if (plan.config.telemetry) {
    plan.config.telemetry->metrics().counter("kernels.dispatch_fallback")
        .add(count);
  }
  for (std::int64_t b = first; b < first + count; ++b) {
    stream_block_generic(pes, plan, block_extent(plan, b), in, out, steps, va,
                         vb, stats, cancel, store);
  }
}

}  // namespace

void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, std::int64_t first,
                  std::int64_t count, const Grid2D<float>& in,
                  Grid2D<float>& out, int steps, std::span<float> va,
                  std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel, const StoreOp& store) {
  stream_run(pes, plan, first, count, in, out, steps, va, vb, stats, cancel,
             store);
}

void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, std::int64_t first,
                  std::int64_t count, const Grid3D<float>& in,
                  Grid3D<float>& out, int steps, std::span<float> va,
                  std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel, const StoreOp& store) {
  stream_run(pes, plan, first, count, in, out, steps, va, vb, stats, cancel,
             store);
}

void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid2D<float>& in, Grid2D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel, const StoreOp& store) {
  stream_run(pes, plan, blk.index, 1, in, out, steps, va, vb, stats, cancel,
             store);
}

void stream_block(std::vector<ProcessingElement>& pes,
                  const BlockingPlan& plan, const BlockExtent& blk,
                  const Grid3D<float>& in, Grid3D<float>& out, int steps,
                  std::span<float> va, std::span<float> vb, RunStats& stats,
                  const CancellationToken* cancel, const StoreOp& store) {
  stream_run(pes, plan, blk.index, 1, in, out, steps, va, vb, stats, cancel,
             store);
}

void stream_block_generic(std::vector<ProcessingElement>& pes,
                          const BlockingPlan& plan, const BlockExtent& blk,
                          const Grid2D<float>& in, Grid2D<float>& out,
                          int steps, std::span<float> va, std::span<float> vb,
                          RunStats& stats, const CancellationToken* cancel,
                          const StoreOp& store) {
  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t halo = cfg.halo();
  const std::int64_t drain = cfg.stream_drain();
  const std::int64_t csize = cfg.csize_x();
  // Periodic boundaries wrap-extend the stream instead of taking a border
  // select-chain in the PEs: every fetch wraps modulo the grid, and the
  // streamed dimension is pre-padded with `drain` ghost rows so row 0's
  // backward influence cone (up to partime*radius rows) is fed with real
  // wrapped data before the first retired row emerges. The write index
  // shifts by the same pre-pad, so retired coordinates are unchanged.
  const bool periodic = !pes.empty() && pes.front().taps().boundary().kind ==
                                            BoundaryKind::periodic;
  const std::int64_t prepad = periodic ? drain : 0;
  const std::int64_t vectors_per_block =
      (plan.cells_streamed_per_pass + prepad * cfg.bsize_x) / cfg.parvec;

  BlockContext ctx;
  ctx.block_x0 = blk.x0;
  ctx.nx = in.nx();
  ctx.ny = in.ny();
  for (auto& pe : pes) {
    ctx.passthrough = pe.stage() >= steps;
    pe.begin_block(ctx);
  }

  // The collapsed loop: one global vector index drives the read kernel,
  // every PE, and the write kernel for this block pass.
  for (std::int64_t q = 0; q < vectors_per_block; ++q) {
    if (cancel && (q & kCancelCheckMask) == 0) cancel->throw_if_cancelled();
    // --- read kernel: fetch parvec cells (zero outside the grid) ---
    const std::int64_t flat_in = q * cfg.parvec;
    const std::int64_t y_in = flat_in / cfg.bsize_x;
    const std::int64_t x_rel_in = flat_in % cfg.bsize_x;
    if (periodic) {
      const std::int64_t ys = wrap_index(y_in - prepad, in.ny());
      for (std::int64_t l = 0; l < cfg.parvec; ++l) {
        const std::int64_t xs = wrap_index(blk.x0 + x_rel_in + l, in.nx());
        va[size_t(l)] = in.at(xs, ys);
      }
    } else {
      for (std::int64_t l = 0; l < cfg.parvec; ++l) {
        const std::int64_t xg = blk.x0 + x_rel_in + l;
        va[size_t(l)] = (xg >= 0 && xg < in.nx() && y_in < in.ny())
                            ? in.at(xg, y_in)
                            : 0.0f;
      }
    }
    stats.cells_streamed += cfg.parvec;

    // --- compute: chain of PEs ---
    std::span<float> cur = va;
    std::span<float> nxt = vb;
    for (auto& pe : pes) {
      pe.process_vector(q, cur, nxt);
      std::swap(cur, nxt);
    }

    // --- write kernel: store valid cells ---
    const std::int64_t yg = y_in - drain - prepad;  // total chain lag
    if (yg < 0 || yg >= in.ny()) continue;
    for (std::int64_t l = 0; l < cfg.parvec; ++l) {
      const std::int64_t x_rel = x_rel_in + l;
      const std::int64_t xg = blk.x0 + x_rel;
      if (x_rel >= halo && x_rel < halo + csize && xg < blk.valid_x_end) {
        store_cell(store, out, out.at(xg, yg), cur[size_t(l)]);
        ++stats.cells_written;
      }
    }
  }
  stats.vectors_processed += vectors_per_block;
  ++stats.block_passes;
}

void stream_block_generic(std::vector<ProcessingElement>& pes,
                          const BlockingPlan& plan, const BlockExtent& blk,
                          const Grid3D<float>& in, Grid3D<float>& out,
                          int steps, std::span<float> va, std::span<float> vb,
                          RunStats& stats, const CancellationToken* cancel,
                          const StoreOp& store) {
  const AcceleratorConfig& cfg = plan.config;
  const std::int64_t halo = cfg.halo();
  const std::int64_t drain = cfg.stream_drain();
  const std::int64_t csx = cfg.csize_x();
  const std::int64_t csy = cfg.csize_y();
  const std::int64_t plane = cfg.row_cells();
  // Periodic wrap-extended stream: see the 2D overload. The streamed
  // dimension here is z, so the pre-pad is `drain` ghost planes.
  const bool periodic = !pes.empty() && pes.front().taps().boundary().kind ==
                                            BoundaryKind::periodic;
  const std::int64_t prepad = periodic ? drain : 0;
  const std::int64_t vectors_per_block =
      (plan.cells_streamed_per_pass + prepad * plane) / cfg.parvec;

  BlockContext ctx;
  ctx.block_x0 = blk.x0;
  ctx.block_y0 = blk.y0;
  ctx.nx = in.nx();
  ctx.ny = in.ny();
  ctx.nz = in.nz();
  for (auto& pe : pes) {
    ctx.passthrough = pe.stage() >= steps;
    pe.begin_block(ctx);
  }

  for (std::int64_t q = 0; q < vectors_per_block; ++q) {
    if (cancel && (q & kCancelCheckMask) == 0) cancel->throw_if_cancelled();
    // --- read kernel ---
    const std::int64_t flat_in = q * cfg.parvec;
    const std::int64_t z_in = flat_in / plane;
    const std::int64_t rem_in = flat_in % plane;
    const std::int64_t y_rel_in = rem_in / cfg.bsize_x;
    const std::int64_t x_rel_in = rem_in % cfg.bsize_x;
    const std::int64_t yg_in = blk.y0 + y_rel_in;
    if (periodic) {
      const std::int64_t zs = wrap_index(z_in - prepad, in.nz());
      const std::int64_t ys = wrap_index(yg_in, in.ny());
      for (std::int64_t l = 0; l < cfg.parvec; ++l) {
        const std::int64_t xs = wrap_index(blk.x0 + x_rel_in + l, in.nx());
        va[size_t(l)] = in.at(xs, ys, zs);
      }
    } else {
      const bool row_in_grid = z_in < in.nz() && yg_in >= 0 && yg_in < in.ny();
      for (std::int64_t l = 0; l < cfg.parvec; ++l) {
        const std::int64_t xg = blk.x0 + x_rel_in + l;
        va[size_t(l)] = (row_in_grid && xg >= 0 && xg < in.nx())
                            ? in.at(xg, yg_in, z_in)
                            : 0.0f;
      }
    }
    stats.cells_streamed += cfg.parvec;

    // --- compute ---
    std::span<float> cur = va;
    std::span<float> nxt = vb;
    for (auto& pe : pes) {
      pe.process_vector(q, cur, nxt);
      std::swap(cur, nxt);
    }

    // --- write kernel: store valid cells ---
    const std::int64_t zg = z_in - drain - prepad;
    if (zg < 0 || zg >= in.nz()) continue;
    const std::int64_t y_rel = y_rel_in;
    const std::int64_t yg = blk.y0 + y_rel;
    if (y_rel < halo || y_rel >= halo + csy || yg >= blk.valid_y_end) continue;
    for (std::int64_t l = 0; l < cfg.parvec; ++l) {
      const std::int64_t x_rel = x_rel_in + l;
      const std::int64_t xg = blk.x0 + x_rel;
      if (x_rel >= halo && x_rel < halo + csx && xg < blk.valid_x_end) {
        store_cell(store, out, out.at(xg, yg, zg), cur[size_t(l)]);
        ++stats.cells_written;
      }
    }
  }
  stats.vectors_processed += vectors_per_block;
  ++stats.block_passes;
}

}  // namespace fpga_stencil
