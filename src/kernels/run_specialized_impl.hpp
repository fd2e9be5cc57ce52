// Definition of run_specialized (declared in run_specialized.hpp).
//
// Included only by the explicit-instantiation TUs (star_kernels_*.cpp,
// box_kernels_*.cpp, table_kernels_*.cpp); everything else links against
// those instantiations through the extern templates.
//
// ## Algorithm: array-form rolling window
//
// The interpreter emulates the FPGA datapath literally: one flat
// shift register per PE, one parvec-wide vector per cycle, per-tap
// bounds-checked ring reads. A specialized kernel computes the same
// mathematical recurrence in array form: per temporal stage a rolling
// window (PlanarShiftRegister) of the last 2*Rad + 1 stream planes
// (z-planes in 3D, x-rows in 2D), advanced one stream index per outer
// iteration:
//
//   for z in [0, nz + steps*Rad):          // streamed dim + pipeline drain
//     read  : load input plane z into stage 0's window, fill its ghosts
//     update: for k = 1..steps-1, plane p = z - k*Rad of stage k becomes
//             computable (its +Rad source in stage k-1 just landed);
//             compute it row by row from stage k-1's window, fill its
//             ghosts
//     store : plane z - steps*Rad of stage `steps` is final; compute its
//             retired region straight into `out`, row by row, with the
//             store op (assign: the result; add: prev + result)
//
// The last stage has no window and no ghost fill (nothing reads it): it
// covers exactly the block's retired span [w_lo, w_hi) -- never a span
// widened to whole ParVec chunks, because the cells past it belong to
// neighbouring blocks, which write `out` concurrently under
// block_parallel. The store op is picked per row inside the one
// instantiation, so both ops share each entry's code.
//
// ## Runs: a 2D pass advances all its blocks one row at a time
//
// A kernel call covers a run of consecutive blocks (the synchronous
// simulator hands over a whole pass; one block is the count-1 run). In 2D
// the run advances in lock-step: per stream row y, every block, in x
// order, does its read / update / store above from its own windows. The
// blocks are independent -- each reads only `in`, stores only its retired
// span of `out`, and reads `prev` only at those cells, prev == out
// included -- so the order changes no bit. It does change the memory
// traffic: one block walking all its rows reads `bsize_x`-float segments
// a whole grid row apart (256 B every 4 KiB at bsize_x 64 on a 1024-wide
// grid), a stride the hardware prefetcher does not follow, while the run
// reads `in` and writes `out` row by row across the grid. A run keeps
// every block's windows live, so it advances in sub-runs whose windows
// fit kRunWindowBudget (a block past the budget runs alone). 3D runs walk
// their blocks one at a time: one block's windows already outgrow L2.
//
// Per cell the arithmetic is the interpreter's exactly: taps accumulate
// in tap-set order (acc = c0*t0; acc += ct*tt) and only in-grid centers
// are computed. The tap table is a run-pass parameter: the canonical
// star/box tables are constexpr (constexpr tap trip counts), any other
// tap set passes a runtime table through the same body. Rows run in
// ParVec-wide chunks, then a scalar remainder. A chunk's lanes live in
// ParVec / Lanes GCC vectors of the ISA's native width (Lanes = 4 on
// baseline x86-64, 8 under AVX2), each stored on its own so none spills;
// each lane carries an independent dependency chain in the interpreter's
// op order, and mul and add round separately (-ffp-contract=off, no FMA
// in either ISA), so the vector width cannot change results. The whole
// run pass, this one compute_row body included, is compiled once per
// KernelIsa (run_blocks_for); the registry picks the instantiation when
// it is built, so nothing branches or crosses ISAs per row.
//
// ## Boundaries: ghost margins, refilled per stage
//
// Every window row/plane carries Rad padding cells per side of each
// blocked axis. Whenever a stage writes a row (2D) or plane (3D) whose
// block holds a grid edge, the Rad cells past that edge are filled by the
// boundary condition's rule from the values just written: clamp copies
// the edge cell, reflective the mirrored cell (-k -> k, n-1+k -> n-1-k),
// dirichlet writes its constant. In 3D the x margins of every in-grid row
// are filled first, then whole padded rows are copied into the y margins,
// which reproduces the interpreter's per-axis remap at corners too. The
// streamed axis has no margin: per computed plane a table of 2*Rad + 1
// source-plane pointers resolves each dz by the same rule, pointing at a
// constant plane for dirichlet. Every tap of an in-grid cell therefore
// reads a plain offset -- no per-tap border branch, clamp included -- and
// each ghost holds exactly the float the interpreter's select chain picks.
// Because stage k's ghosts are filled from stage k's own values, the fill
// repeats at every temporal stage.
//
// Periodic boundaries never reach this file: a rolling window cannot see
// the wrapped planes at z = 0 and wrapped columns live in other blocks,
// so they keep the interpreter's wrap-extended stream (block_streamer).
//
// ## Influence cone: what a stage computes, and why the rest is don't-care
//
// By induction, the stage-k cells any retired cell depends on lie within
// [w_lo - (steps - k)*Rad, w_hi + (steps - k)*Rad) of each blocked axis,
// where [w_lo, w_hi) is the block's retired region: each stage widens the
// cone by at most Rad, and a ghost read at a grid edge resolves to a cell
// at most Rad further inward, which is inside the previous stage's cone.
// So stage k computes only that span, clipped to the in-grid cells (x is
// widened to whole ParVec chunks inside the in-grid span, so no chunk is
// split into a scalar tail; y rows are not widened), and stage `steps`
// computes just the retired region, into `out`. Every cell inside the
// cone is computed from genuinely loaded input with the exact interpreter
// arithmetic; everything outside -- stale window values, the zeroed
// padding at block edges inside the grid where the interpreter's ring
// reads wrapped rows -- is don't-care for both implementations. The cone
// stays at least Rad inside the block edge for k >= 1 since
// halo = partime*radius >= steps*Rad. tests/kernels_test.cpp verifies the
// retired output bit-for-bit against the interpreter for every envelope
// entry on every ISA the CPU supports.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/cancellation.hpp"
#include "common/math_util.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid.hpp"
#include "kernels/kernel_workspace.hpp"
#include "kernels/run_specialized.hpp"
#include "pipeline/shift_register.hpp"

namespace fpga_stencil {
namespace kernels_detail {

/// Canonical tap offsets for <Shape, Rad, Dims>, split per axis. Must
/// stay in lockstep with StarStencil::to_taps / make_box_stencil (the
/// registry's structural match guarantees a dispatched TapSet has exactly
/// these offsets in this order, so `coeffs[t]` belongs to offset t).
template <StencilShape Shape, int Rad, int Dims>
struct TapPattern {
  static_assert(Shape != StencilShape::kTable, "runtime tables have no pattern");
  static constexpr int kSide = 2 * Rad + 1;
  static constexpr int kCount =
      Shape == StencilShape::kStar
          ? 1 + 2 * Dims * Rad
          : (Dims == 3 ? kSide * kSide * kSide : kSide * kSide);

  struct Offsets {
    std::array<int, kCount> dx{}, dy{}, dz{};
  };

  static constexpr Offsets make_offsets() {
    Offsets o{};
    int t = 0;
    if constexpr (Shape == StencilShape::kStar) {
      o.dx[t] = 0;
      ++t;  // center
      for (int i = 1; i <= Rad; ++i) {
        o.dx[t++] = -i;                  // West
        o.dx[t++] = +i;                  // East
        o.dy[t++] = -i;                  // South
        o.dy[t++] = +i;                  // North
        if constexpr (Dims == 3) {
          o.dz[t++] = -i;                // Below
          o.dz[t++] = +i;                // Above
        }
      }
    } else {
      const int zr = Dims == 3 ? Rad : 0;
      for (int dz = -zr; dz <= zr; ++dz) {
        for (int dy = -Rad; dy <= Rad; ++dy) {
          for (int dx = -Rad; dx <= Rad; ++dx) {
            o.dx[t] = dx;
            o.dy[t] = dy;
            o.dz[t] = dz;
            ++t;
          }
        }
      }
    }
    return o;
  }

  static constexpr Offsets kOffsets = make_offsets();
};

/// The tap table a run pass reads, as a view. `Count` is a
/// std::integral_constant for the canonical tables (constexpr tap loops)
/// and int for runtime tables; either way count <= kMaxTableTaps.
template <typename Count>
struct TapView {
  Count count;
  const int* dx;
  const int* dy;
  const int* dz;
};

/// `Lanes` floats in one register: a GCC vector, or a plain float.
template <int Lanes>
struct LaneVec {
  using type = float;
};
template <>
struct LaneVec<4> {
  typedef float type __attribute__((vector_size(16)));
};
template <>
struct LaneVec<8> {
  typedef float type __attribute__((vector_size(32)));
};

/// Cells [lo, hi) of one output row: `taps[t] + off` points at block-local
/// x == 0 of tap t's source row, already shifted by the tap's dx. Each
/// ParVec chunk accumulates in ParVec / Lanes registers. With `Add`, each
/// cell stores `prev[x] + acc` (prev first, as StoreOp documents). Always
/// inlined, so it compiles for the ISA of the block pass it sits in.
template <int Lanes, int ParVec, bool Add, typename Count>
[[gnu::always_inline]] inline void compute_row(float* dst, std::int64_t lo,
                                               std::int64_t hi,
                                               const float* const* taps,
                                               std::int64_t off,
                                               const float* cf, Count n,
                                               const float* prev) {
  using V = typename LaneVec<Lanes>::type;
  constexpr int kRegs = ParVec / Lanes;
  static_assert(kRegs * Lanes == ParVec && sizeof(V) == Lanes * sizeof(float));
  std::int64_t x = lo;
  for (; x + ParVec <= hi; x += ParVec) {
    V acc[kRegs];
    for (int v = 0; v < kRegs; ++v) {
      V t0;
      std::memcpy(&t0, taps[0] + off + x + v * Lanes, sizeof(V));
      acc[v] = cf[0] * t0;
    }
    for (int t = 1; t < n; ++t) {
      const float* rt = taps[t] + off + x;
      const float ct = cf[t];
      for (int v = 0; v < kRegs; ++v) {
        V tt;
        std::memcpy(&tt, rt + v * Lanes, sizeof(V));
        acc[v] += ct * tt;
      }
    }
    for (int v = 0; v < kRegs; ++v) {
      if constexpr (Add) {
        V p;
        std::memcpy(&p, prev + x + v * Lanes, sizeof(V));
        acc[v] = p + acc[v];
      }
      std::memcpy(dst + x + v * Lanes, &acc[v], sizeof(V));
    }
  }
  for (; x < hi; ++x) {  // chunk remainder: the same op sequence, scalar
    float acc = cf[0] * taps[0][off + x];
    for (int t = 1; t < n; ++t) acc += cf[t] * taps[t][off + x];
    if constexpr (Add) acc = prev[x] + acc;
    dst[x] = acc;
  }
}

/// The last stage's row: cells [0, n) of `dst`, the retired span of one
/// output row, stored with `store`; `cell` is dst's index in the output
/// grid, which `store.prev` shares. The op is picked per row.
template <int Lanes, int ParVec, typename Count>
[[gnu::always_inline]] inline void store_row(float* dst, std::int64_t n,
                                             const float* const* taps,
                                             std::int64_t off,
                                             const float* cf, Count count,
                                             const StoreOp& store,
                                             std::int64_t cell) {
  if (store.is_add()) {
    compute_row<Lanes, ParVec, true>(dst, 0, n, taps, off, cf, count,
                                     store.prev + cell);
  } else {
    compute_row<Lanes, ParVec, false>(dst, 0, n, taps, off, cf, count,
                                      nullptr);
  }
}

/// A blocked axis in block-local coordinates: in-grid cells [lo, hi), and
/// whether the block holds the grid's low/high edge. Only a held edge
/// gets its Rad ghost cells filled; an edge beyond the block leaves the
/// padding alone, which the influence cone never reads.
struct AxisEdges {
  std::int64_t lo = 0, hi = 0;
  bool has_lo = false, has_hi = false;
};

inline AxisEdges axis_edges(std::int64_t origin, std::int64_t n,
                            std::int64_t b) {
  AxisEdges e;
  e.lo = std::clamp<std::int64_t>(-origin, 0, b);
  e.hi = std::clamp<std::int64_t>(n - origin, e.lo, b);
  e.has_lo = e.hi > e.lo && origin <= 0;
  e.has_hi = e.hi > e.lo && n - origin <= b;
  return e;
}

/// Cells [lo, hi) of one blocked axis.
struct Span {
  std::int64_t lo = 0, hi = 0;
};

/// The stage cells a retired span [w_lo, w_hi) depends on, `reach` =
/// (steps - k)*Rad stages out, clipped to the in-grid cells.
inline Span cone(std::int64_t w_lo, std::int64_t w_hi, std::int64_t reach,
                 const AxisEdges& e) {
  return {std::max(e.lo, w_lo - reach), std::min(e.hi, w_hi + reach)};
}

/// `s` widened to whole ParVec chunks without leaving the in-grid cells.
template <int ParVec>
inline Span whole_chunks(Span s, const AxisEdges& e) {
  if (s.hi <= s.lo) return s;
  const std::int64_t len = round_up<std::int64_t>(s.hi - s.lo, ParVec);
  if (s.lo + len <= e.hi) return {s.lo, s.lo + len};
  return {std::max(e.lo, e.hi - len), e.hi};
}

/// Block-local cell a clamp or reflective ghost at `g` copies.
inline std::int64_t ghost_source(BoundaryKind kind, std::int64_t g,
                                 const AxisEdges& e) {
  if (kind == BoundaryKind::reflective) {
    return g < e.lo ? 2 * e.lo - g : 2 * (e.hi - 1) - g;
  }
  return g < e.lo ? e.lo : e.hi - 1;
}

/// Fills the x ghosts of one row (`row` at block-local x == 0).
template <int Rad>
inline void fill_row_ghosts(float* row, const AxisEdges& ex,
                            const BoundaryCondition& bc) {
  const auto fill = [&](std::int64_t g0) {
    for (std::int64_t g = g0; g < g0 + Rad; ++g) {
      row[g] = bc.kind == BoundaryKind::dirichlet
                   ? bc.value
                   : row[ghost_source(bc.kind, g, ex)];
    }
  };
  if (ex.has_lo) fill(ex.lo - Rad);
  if (ex.has_hi) fill(ex.hi);
}

/// Fills the y ghost rows of one plane (`origin` at block-local (0, 0),
/// rows `prow` apart) with whole padded rows, x ghosts included.
template <int Rad>
inline void fill_plane_ghosts(float* origin, std::int64_t prow,
                              const AxisEdges& ey,
                              const BoundaryCondition& bc) {
  const auto fill = [&](std::int64_t g0) {
    for (std::int64_t g = g0; g < g0 + Rad; ++g) {
      float* dst = origin + g * prow - Rad;
      if (bc.kind == BoundaryKind::dirichlet) {
        std::fill(dst, dst + prow, bc.value);
      } else {
        std::memcpy(dst, origin + ghost_source(bc.kind, g, ey) * prow - Rad,
                    std::size_t(prow) * sizeof(float));
      }
    }
  };
  if (ey.has_lo) fill(ey.lo - Rad);
  if (ey.has_hi) fill(ey.hi);
}

/// Stream index a tap at `i` reads, or -1 for the dirichlet constant. The
/// reflective clamp only guards extents <= Rad, which validation rejects.
inline std::int64_t stream_source(const BoundaryCondition& bc, std::int64_t i,
                                  std::int64_t n) {
  if (i >= 0 && i < n) return i;
  switch (bc.kind) {
    case BoundaryKind::dirichlet:
      return -1;
    case BoundaryKind::reflective:
      return clamp_index(i < 0 ? -i : 2 * n - 2 - i, 0, n - 1);
    default:
      return clamp_index(i, 0, n - 1);
  }
}

/// Floats of block windows a 2D run keeps live at once: a run whose
/// blocks' windows exceed it advances in sub-runs that fit, and a block
/// whose windows alone exceed it runs alone. 256 KiB stays inside L2
/// beside the rows the run streams.
inline constexpr std::int64_t kRunWindowBudget = 256 * 1024 / sizeof(float);

/// One block of a 2D run: its x geometry and where its windows live.
struct RowBlock {
  std::int64_t x0 = 0;
  AxisEdges ex;
  std::int64_t wx_hi = 0;  ///< retired span [halo, wx_hi), block-local
  /// Block-local x == 0 of stage 0's first window row; stage k's window
  /// starts k * (2*Rad + 1) rows on.
  float* windows = nullptr;
  const Span* stage_x = nullptr;  ///< [k]: the x cells stage k computes
};

/// 2D run pass over blocks [first, first + count), whose windows fit the
/// budget: x blocked, y streamed, window planes single rows. Per stream
/// row every block, in x order, loads its row segment, computes its stage
/// rows and stores its retired span, each from its own windows, so the
/// run reads `in` and writes `out` row by row across the grid. Always
/// inlined into run_blocks_for, which fixes its ISA.
template <int Rad, int ParVec, int Lanes, typename Count>
[[gnu::always_inline]] inline void run_row_interleaved(
    const BlockingPlan& plan, std::int64_t first, std::int64_t count,
    const Grid2D<float>& in, Grid2D<float>& out, int steps,
    const TapView<Count>& taps, const KernelArgs& args, RunStats& stats,
    const CancellationToken* cancel) {
  constexpr std::int64_t W = 2 * Rad + 1;
  const AcceleratorConfig& cfg = plan.config;
  const BoundaryCondition& bc = args.boundary;
  const std::int64_t ny = in.ny();
  const std::int64_t prow = cfg.bsize_x + 2 * Rad;  // padded row stride
  const std::int64_t stage_cells = W * prow;        // one stage's window

  // Per block: windows for stages 0 .. steps-1 (the last stage stores
  // into `out`), then one dirichlet ghost row for the whole run.
  KernelWorkspace& ws = tls_kernel_workspace();
  const std::size_t windows = std::size_t(count * steps * stage_cells);
  float* base = ws.ensure(windows + std::size_t(prow));
  std::fill(base, base + windows, 0.0f);
  // Dirichlet: every tap past the streamed edge reads this constant row.
  float* const ghost_row = base + windows + Rad;
  if (bc.kind == BoundaryKind::dirichlet) {
    std::fill(ghost_row - Rad, ghost_row - Rad + prow, bc.value);
  }

  // Per-block state, worked out once per run. The x cells stage k < steps
  // computes are its influence cone (see above); recomputing it per row
  // cost 2-tap rows ~10%.
  const std::int64_t wx_lo = cfg.halo();
  std::vector<RowBlock> blocks(static_cast<std::size_t>(count));
  std::vector<Span> spans(static_cast<std::size_t>(count * steps));
  for (std::int64_t i = 0; i < count; ++i) {
    const BlockExtent blk = block_extent(plan, first + i);
    RowBlock& b = blocks[std::size_t(i)];
    b.x0 = blk.x0;
    b.ex = axis_edges(blk.x0, in.nx(), cfg.bsize_x);
    b.wx_hi = std::min(wx_lo + cfg.csize_x(), blk.valid_x_end - blk.x0);
    b.windows = base + i * steps * stage_cells + Rad;
    Span* xs = spans.data() + i * steps;
    for (int k = 1; k < steps; ++k) {
      xs[k] = whole_chunks<ParVec>(
          cone(wx_lo, b.wx_hi, std::int64_t(steps - k) * Rad, b.ex), b.ex);
    }
    b.stage_x = xs;
  }

  // Block-relative offset of stage k's window row holding stream row r:
  // the same in every block of the run.
  const auto row_at = [&](int k, std::int64_t r) {
    return k * stage_cells + (r % W) * prow;
  };
  std::vector<std::int64_t> src_rows(std::size_t(steps) * W);
  const std::int64_t ymax = ny + std::int64_t(steps) * Rad;
  for (std::int64_t y = 0; y < ymax; ++y) {
    if (cancel) cancel->throw_if_cancelled();
    // The stages with a row to compute: stage k's row y - k*Rad became
    // computable (its +Rad source in stage k-1 just landed) and is on the
    // grid. Their source rows are resolved once for every block; -1 reads
    // the dirichlet constant.
    const int k_lo = y < ny ? 1 : int((y - ny) / Rad + 1);
    const int k_hi = int(std::min<std::int64_t>(steps, y / Rad));
    for (int k = k_lo; k <= k_hi; ++k) {
      const std::int64_t r = y - std::int64_t(k) * Rad;
      for (std::int64_t j = 0; j < W; ++j) {
        const std::int64_t s = stream_source(bc, r + j - Rad, ny);
        src_rows[std::size_t((k - 1) * W + j)] =
            s < 0 ? -1 : row_at(k - 1, s);
      }
    }

    for (const RowBlock& b : blocks) {
      // --- read: load input row y and fill its ghosts ---
      if (y < ny && b.ex.hi > b.ex.lo) {
        float* row = b.windows + row_at(0, y);
        std::memcpy(row + b.ex.lo, &in.at(b.x0 + b.ex.lo, y),
                    std::size_t(b.ex.hi - b.ex.lo) * sizeof(float));
        fill_row_ghosts<Rad>(row, b.ex, bc);
      }

      // --- update: the stage rows that just became computable ---
      for (int k = k_lo; k <= k_hi; ++k) {
        const std::int64_t r = y - std::int64_t(k) * Rad;
        std::array<const float*, W> src;
        for (std::int64_t j = 0; j < W; ++j) {
          const std::int64_t at = src_rows[std::size_t((k - 1) * W + j)];
          src[std::size_t(j)] = at < 0 ? ghost_row : b.windows + at;
        }
        const float* tp[kMaxTableTaps];
        for (int t = 0; t < taps.count; ++t) {
          tp[t] = src[std::size_t(taps.dy[t] + Rad)] + taps.dx[t];
        }
        if (k < steps) {
          float* dst = b.windows + row_at(k, r);
          const Span xs = b.stage_x[k];
          compute_row<Lanes, ParVec, false>(dst, xs.lo, xs.hi, tp, 0,
                                            args.coeffs, taps.count, nullptr);
          fill_row_ghosts<Rad>(dst, b.ex, bc);
        } else if (b.wx_hi > wx_lo) {
          // --- store: the finished row's retired span, into `out` ---
          float* dst = &out.at(b.x0 + wx_lo, r);
          store_row<Lanes, ParVec>(dst, b.wx_hi - wx_lo, tp, wx_lo,
                                   args.coeffs, taps.count, args.store,
                                   dst - out.data());
          stats.cells_written += b.wx_hi - wx_lo;
        }
      }
    }
  }

  stats.cells_streamed += count * plan.cells_streamed_per_pass;
  stats.vectors_processed +=
      count * (plan.cells_streamed_per_pass / cfg.parvec);
  stats.block_passes += count;
}

/// 2D run pass: blocks [first, first + count) in sub-runs whose windows
/// fit kRunWindowBudget, each advanced row by row (run_row_interleaved).
template <int Rad, int ParVec, int Lanes, typename Count>
[[gnu::always_inline]] inline void run_blocks(
    const BlockingPlan& plan, std::int64_t first, std::int64_t count,
    const Grid2D<float>& in, Grid2D<float>& out, int steps,
    const TapView<Count>& taps, const KernelArgs& args, RunStats& stats,
    const CancellationToken* cancel) {
  const std::int64_t block_windows =
      std::int64_t(steps) * (2 * Rad + 1) * (plan.config.bsize_x + 2 * Rad);
  const std::int64_t per_run =
      std::max<std::int64_t>(1, kRunWindowBudget / block_windows);
  for (std::int64_t b = first; b < first + count; b += per_run) {
    run_row_interleaved<Rad, ParVec, Lanes>(
        plan, b, std::min(per_run, first + count - b), in, out, steps, taps,
        args, stats, cancel);
  }
}

/// 3D block pass: x/y blocked, z streamed; window planes are padded
/// (bsize_y + 2*Rad) x (bsize_x + 2*Rad) tiles. Inlined like the 2D one.
template <int Rad, int ParVec, int Lanes, typename Count>
[[gnu::always_inline]] inline void run_block(
    const BlockingPlan& plan, const BlockExtent& blk, const Grid3D<float>& in,
    Grid3D<float>& out, int steps, const TapView<Count>& taps,
    const KernelArgs& args, RunStats& stats, const CancellationToken* cancel) {
  constexpr std::int64_t W = 2 * Rad + 1;
  const AcceleratorConfig& cfg = plan.config;
  const BoundaryCondition& bc = args.boundary;
  const std::int64_t bx = cfg.bsize_x, by = cfg.bsize_y;
  const std::int64_t nz = in.nz();
  const std::int64_t x0 = blk.x0, y0 = blk.y0;
  const std::int64_t prow = bx + 2 * Rad;
  const std::int64_t plane_cells = prow * (by + 2 * Rad);
  const std::int64_t pad = Rad * prow + Rad;  // plane start -> (0, 0)

  // Windows for stages 0 .. steps-1; the last stage stores into `out`.
  KernelWorkspace& ws = tls_kernel_workspace();
  const std::size_t windows =
      std::size_t(steps) * std::size_t(W) * std::size_t(plane_cells);
  float* base = ws.ensure(windows + std::size_t(plane_cells));
  std::fill(base, base + windows, 0.0f);
  // Dirichlet: every tap past the streamed edge reads this constant plane.
  float* const ghost_plane = base + windows + pad;
  if (bc.kind == BoundaryKind::dirichlet) {
    std::fill(ghost_plane - pad, ghost_plane - pad + plane_cells, bc.value);
  }
  const auto window = [&](int stage) {
    return PlanarShiftRegister<float>(
        base + std::size_t(stage) * W * plane_cells, W, plane_cells);
  };
  // Block-local (0, 0) of the window plane holding stream plane `p`.
  const auto origin = [&](int stage, std::int64_t p) {
    return window(stage).plane(p) + pad;
  };

  const AxisEdges ex = axis_edges(x0, in.nx(), bx);
  const AxisEdges ey = axis_edges(y0, in.ny(), by);
  const std::int64_t halo = cfg.halo();
  const std::int64_t wx_lo = halo;
  const std::int64_t wx_hi =
      std::min(halo + cfg.csize_x(), blk.valid_x_end - x0);
  const std::int64_t wy_lo = halo;
  const std::int64_t wy_hi =
      std::min(halo + cfg.csize_y(), blk.valid_y_end - y0);
  // The x cells and y rows stage k < steps computes: its influence cone.
  std::vector<Span> stage_x(static_cast<std::size_t>(steps));
  std::vector<Span> stage_y(static_cast<std::size_t>(steps));
  for (int k = 1; k < steps; ++k) {
    const std::int64_t reach = std::int64_t(steps - k) * Rad;
    stage_x[std::size_t(k)] =
        whole_chunks<ParVec>(cone(wx_lo, wx_hi, reach, ex), ex);
    stage_y[std::size_t(k)] = cone(wy_lo, wy_hi, reach, ey);
  }

  const std::int64_t zmax = nz + std::int64_t(steps) * Rad;
  for (std::int64_t z = 0; z < zmax; ++z) {
    if (cancel) cancel->throw_if_cancelled();
    // --- read: load input plane z and fill its ghosts ---
    if (z < nz && ex.hi > ex.lo && ey.hi > ey.lo) {
      float* o = origin(0, z);
      for (std::int64_t y_rel = ey.lo; y_rel < ey.hi; ++y_rel) {
        float* row = o + y_rel * prow;
        std::memcpy(row + ex.lo, &in.at(x0 + ex.lo, y0 + y_rel, z),
                    std::size_t(ex.hi - ex.lo) * sizeof(float));
        fill_row_ghosts<Rad>(row, ex, bc);
      }
      fill_plane_ghosts<Rad>(o, prow, ey, bc);
    }

    // --- update: stage-k planes that just became computable ---
    for (int k = 1; k <= steps; ++k) {
      const std::int64_t p = z - std::int64_t(k) * Rad;
      if (p < 0) break;
      if (p >= nz) continue;  // off-grid center plane: never read
      std::array<const float*, W> src;
      for (std::int64_t j = 0; j < W; ++j) {
        const std::int64_t s = stream_source(bc, p + j - Rad, nz);
        src[std::size_t(j)] = s < 0 ? ghost_plane : origin(k - 1, s);
      }
      const float* tp[kMaxTableTaps];
      for (int t = 0; t < taps.count; ++t) {
        tp[t] = src[std::size_t(taps.dz[t] + Rad)] + taps.dy[t] * prow +
                taps.dx[t];
      }
      if (k < steps) {
        float* o = origin(k, p);
        const Span xs = stage_x[std::size_t(k)];
        const Span ys = stage_y[std::size_t(k)];
        for (std::int64_t y_rel = ys.lo; y_rel < ys.hi; ++y_rel) {
          float* dst = o + y_rel * prow;
          compute_row<Lanes, ParVec, false>(dst, xs.lo, xs.hi, tp,
                                            y_rel * prow, args.coeffs,
                                            taps.count, nullptr);
          fill_row_ghosts<Rad>(dst, ex, bc);
        }
        fill_plane_ghosts<Rad>(o, prow, ey, bc);
      } else if (wx_hi > wx_lo) {
        // --- store: the finished plane's retired region, into `out` ---
        for (std::int64_t y_rel = wy_lo; y_rel < wy_hi; ++y_rel) {
          float* dst = &out.at(x0 + wx_lo, y0 + y_rel, p);
          store_row<Lanes, ParVec>(dst, wx_hi - wx_lo, tp,
                                   y_rel * prow + wx_lo, args.coeffs,
                                   taps.count, args.store, dst - out.data());
          stats.cells_written += wx_hi - wx_lo;
        }
      }
    }
  }

  stats.cells_streamed += plan.cells_streamed_per_pass;
  stats.vectors_processed += plan.cells_streamed_per_pass / cfg.parvec;
  ++stats.block_passes;
}

/// 3D run pass: blocks [first, first + count) one after another. A 3D
/// block's windows (tiles of 2*Rad + 1 planes per stage) already outgrow
/// L2 at the paper's geometry, so interleaving blocks would not keep them
/// resident.
template <int Rad, int ParVec, int Lanes, typename Count>
[[gnu::always_inline]] inline void run_blocks(
    const BlockingPlan& plan, std::int64_t first, std::int64_t count,
    const Grid3D<float>& in, Grid3D<float>& out, int steps,
    const TapView<Count>& taps, const KernelArgs& args, RunStats& stats,
    const CancellationToken* cancel) {
  for (std::int64_t b = first; b < first + count; ++b) {
    run_block<Rad, ParVec, Lanes>(plan, block_extent(plan, b), in, out, steps,
                                  taps, args, stats, cancel);
  }
}

#if defined(__x86_64__)
/// The run pass compiled for AVX2, row loop included (run_blocks and
/// compute_row inline here), so nothing crosses ISAs per row.
template <int Rad, int ParVec, typename GridT, typename Count>
[[gnu::target("avx2")]] void run_blocks_avx2(
    const BlockingPlan& plan, std::int64_t first, std::int64_t count,
    const GridT& in, GridT& out, int steps, const TapView<Count>& taps,
    const KernelArgs& args, RunStats& stats, const CancellationToken* cancel) {
  run_blocks<Rad, ParVec, std::min(ParVec, 8)>(plan, first, count, in, out,
                                                steps, taps, args, stats,
                                                cancel);
}
#endif

/// The run pass compiled for `Isa`: 8-lane vectors under AVX2, 4-lane
/// ones on baseline x86-64.
template <KernelIsa Isa, int Rad, int ParVec, typename GridT, typename Count>
void run_blocks_for(const BlockingPlan& plan, std::int64_t first,
                    std::int64_t count, const GridT& in, GridT& out, int steps,
                    const TapView<Count>& taps, const KernelArgs& args,
                    RunStats& stats, const CancellationToken* cancel) {
#if defined(__x86_64__)
  if constexpr (Isa == KernelIsa::kAvx2) {
    run_blocks_avx2<Rad, ParVec>(plan, first, count, in, out, steps, taps,
                                 args, stats, cancel);
    return;
  }
#endif
  run_blocks<Rad, ParVec, std::min(ParVec, 4)>(plan, first, count, in, out,
                                                steps, taps, args, stats,
                                                cancel);
}

}  // namespace kernels_detail

template <StencilShape Shape, int Rad, int Dims, int ParVec, KernelIsa Isa>
void run_specialized(const BlockingPlan& plan, std::int64_t first,
                     std::int64_t count, const GridOf<Dims>& in,
                     GridOf<Dims>& out, int steps, const KernelArgs& args,
                     RunStats& stats, const CancellationToken* cancel) {
  using kernels_detail::TapView;
  if constexpr (Shape == StencilShape::kTable) {
    const KernelTapTable& t = *args.table;
    const TapView<int> taps{int(t.dx.size()), t.dx.data(), t.dy.data(),
                             t.dz.data()};
    kernels_detail::run_blocks_for<Isa, Rad, ParVec>(
        plan, first, count, in, out, steps, taps, args, stats, cancel);
  } else {
    using Pattern = kernels_detail::TapPattern<Shape, Rad, Dims>;
    constexpr auto& offs = Pattern::kOffsets;
    const TapView<std::integral_constant<int, Pattern::kCount>> taps{
        {}, offs.dx.data(), offs.dy.data(), offs.dz.data()};
    kernels_detail::run_blocks_for<Isa, Rad, ParVec>(
        plan, first, count, in, out, steps, taps, args, stats, cancel);
  }
}

/// Both ISAs of one envelope point, for the instantiation TUs.
#define FPGASTENCIL_INSTANTIATE_KERNEL(SHAPE, RAD, DIMS, PARVEC)  \
  FPGASTENCIL_KERNEL_INSTANCE(SHAPE, RAD, DIMS, PARVEC, kBaseline) \
  FPGASTENCIL_KERNEL_INSTANCE(SHAPE, RAD, DIMS, PARVEC, kAvx2)

}  // namespace fpga_stencil
