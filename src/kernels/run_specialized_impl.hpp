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
// ## Runs: adjacent blocks compute as one merged tile
//
// A kernel call covers a run of consecutive blocks (the synchronous
// simulator hands over a whole pass; one block is the count-1 run). The
// paper gives every block its own halo because the FPGA buffers one
// bsize-wide window at a time; a host run can keep a wider window live,
// so the overlap between neighbouring blocks of a run buys nothing. A run
// therefore computes as a few merged tiles (merged_tiles): a rectangle of
// its blocks computed as one block, whose origin is its first block's and
// whose retired region is the union of its blocks' retired regions --
// contiguous, because retired spans tile the grid. Windows, stage cones,
// ghost fills and the influence-cone argument below hold for a tile as
// for a block, with the tile's edges in place of the block's, so no bit
// changes. A tile grows along x while its windows fit kRunWindowBudget,
// then (3D) across block-rows: a 2D pass over a 1024-wide grid is one
// tile, read and written row by row across the grid (one bsize_x-wide
// block reads segments a grid row apart, a stride the hardware prefetcher
// does not follow), while a block whose windows alone exceed the budget
// is a tile of its own. RunStats still count plan blocks.
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
// tile holds a grid edge, the Rad cells past that edge are filled by the
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
// where [w_lo, w_hi) is the block's (tile's) retired region: each stage
// widens the cone by at most Rad, and a ghost read at a grid edge resolves
// to a cell at most Rad further inward, inside the previous stage's cone.
// So stage k computes only that span, clipped to the in-grid cells (x is
// widened to whole ParVec chunks inside the in-grid span, so no chunk is
// split into a scalar tail; y rows are not widened), and stage `steps`
// computes just the retired region, into `out`. Every cell inside the
// cone is computed from genuinely loaded input with the exact interpreter
// arithmetic; everything outside -- stale window values, the zeroed
// padding at block edges inside the grid where the interpreter's ring
// reads wrapped rows -- is don't-care for both implementations. The cone
// stays at least Rad inside the tile edge for k >= 1 since
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

/// Cells [lo, hi) of one output row: `taps[t] + off` points at tile-local
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

/// A blocked axis in tile-local coordinates: in-grid cells [lo, hi), and
/// whether the tile holds the grid's low/high edge. Only a held edge
/// gets its Rad ghost cells filled; an edge beyond the tile leaves the
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

/// Tile-local cell a clamp or reflective ghost at `g` copies.
inline std::int64_t ghost_source(BoundaryKind kind, std::int64_t g,
                                 const AxisEdges& e) {
  if (kind == BoundaryKind::reflective) {
    return g < e.lo ? 2 * e.lo - g : 2 * (e.hi - 1) - g;
  }
  return g < e.lo ? e.lo : e.hi - 1;
}

/// Fills the x ghosts of one row (`row` at tile-local x == 0).
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

/// Fills the y ghost rows of one plane (`origin` at tile-local (0, 0),
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

/// Floats of windows one tile keeps live: a run's blocks merge into
/// tiles whose windows fit it, and a block whose windows alone exceed it
/// is a tile of its own. 256 KiB stays inside L2 beside the rows the tile
/// streams.
inline constexpr std::int64_t kRunWindowBudget = 256 * 1024 / sizeof(float);

/// One blocked axis of a merged tile: tile-local 0 is grid cell `origin`,
/// the tile spans `size` cells and retires [w_lo, w_hi). 2D tiles keep the
/// default y: one row, retired.
struct TileAxis {
  std::int64_t origin = 0, size = 1, w_lo = 0, w_hi = 1;
};

/// A merged tile: a rectangle of a run's blocks, computed as one block.
struct Tile {
  TileAxis x, y;
};

/// The axis of blocks [lo, hi) of `csize` cells each on an `n`-cell grid
/// axis: the first block's origin, and the union of the blocks' retired
/// spans, which is contiguous because retired spans tile the grid.
inline TileAxis tile_axis(std::int64_t lo, std::int64_t hi,
                          std::int64_t csize, std::int64_t n,
                          std::int64_t halo) {
  const std::int64_t origin = lo * csize - halo;
  return {origin, (hi - lo) * csize + 2 * halo, halo,
          std::min(n, hi * csize) - origin};
}

/// The merged tiles of blocks [first, first + count) of `plan`, in block
/// order, for windows of `rad` ghost cells. The run splits into bands of
/// block-rows over one x range (whole rows, or a partial row at either end
/// of the run). A band's tiles are as many blocks wide as fit
/// kRunWindowBudget one block-row tall, then (3D) as many block-rows tall
/// as fit that width, with the blocks shared out evenly.
inline std::vector<Tile> merged_tiles(const BlockingPlan& plan,
                                      std::int64_t first, std::int64_t count,
                                      int steps, int rad) {
  const AcceleratorConfig& cfg = plan.config;
  const bool k3d = cfg.dims == 3;
  const std::int64_t halo = cfg.halo();
  const std::int64_t csx = cfg.csize_x(), csy = cfg.csize_y();
  // A tile of cx x cy blocks keeps steps * (2*rad + 1) window planes of
  // (cx*csx + margin) x (cy*csy + margin) floats live (one row in 2D):
  // halo and ghost cells on both sides of its blocks' compute cells.
  const std::int64_t margin = 2 * (halo + rad);
  const std::int64_t planes = std::int64_t(steps) * (2 * rad + 1);
  // The most blocks of `csize` (1 .. n) whose padded extent fits `cells`.
  const auto fit = [&](std::int64_t cells, std::int64_t csize,
                       std::int64_t n) {
    return std::clamp<std::int64_t>((cells - margin) / csize, 1, n);
  };
  std::vector<Tile> tiles;
  const std::int64_t end = first + count;
  for (std::int64_t b = first; b < end;) {
    const std::int64_t by = b / plan.blocks_x, lo = b % plan.blocks_x;
    const bool whole = lo == 0 && end - b >= plan.blocks_x;
    const std::int64_t hi =
        whole ? plan.blocks_x : std::min(plan.blocks_x, lo + end - b);
    const std::int64_t rows = whole ? (end - b) / plan.blocks_x : 1;
    b += (hi - lo) * rows;
    const std::int64_t cx = fit(
        kRunWindowBudget / (planes * (k3d ? csy + margin : 1)), csx, hi - lo);
    const std::int64_t cy =
        k3d ? fit(kRunWindowBudget / (planes * (cx * csx + margin)), csy,
                  rows)
            : 1;
    const std::int64_t tx = ceil_div(hi - lo, cx), ty = ceil_div(rows, cy);
    for (std::int64_t j = 0; j < ty; ++j) {
      Tile t;
      if (k3d) {
        t.y = tile_axis(by + j * rows / ty, by + (j + 1) * rows / ty, csy,
                        plan.ny, halo);
      }
      for (std::int64_t i = 0; i < tx; ++i) {
        t.x = tile_axis(lo + i * (hi - lo) / tx, lo + (i + 1) * (hi - lo) / tx,
                        csx, plan.nx, halo);
        tiles.push_back(t);
      }
    }
  }
  return tiles;
}

/// One tile's pass. x (and y in 3D) is blocked and the last axis streamed:
/// z-planes in 3D, grid rows in 2D, whose window planes are single padded
/// rows. Always inlined into run_blocks_for, which fixes its ISA.
template <int Rad, int ParVec, int Lanes, typename GridT, typename Count>
[[gnu::always_inline]] inline void run_tile(
    const Tile& tile, const GridT& in, GridT& out, int steps,
    const TapView<Count>& taps, const KernelArgs& args, RunStats& stats,
    const CancellationToken* cancel) {
  constexpr bool k3d = std::is_same_v<GridT, Grid3D<float>>;
  constexpr std::int64_t W = 2 * Rad + 1;
  constexpr std::int64_t YPad = k3d ? Rad : 0;  // y ghost rows per side
  const BoundaryCondition& bc = args.boundary;
  const std::int64_t nx = in.nx();
  std::int64_t ny = 1, nz = in.ny();  // grid rows per plane, planes
  if constexpr (k3d) ny = in.ny(), nz = in.nz();
  const int* const tap_dz = k3d ? taps.dz : taps.dy;  // stream offsets
  const std::int64_t prow = tile.x.size + 2 * Rad;
  const std::int64_t plane_cells = prow * (tile.y.size + 2 * YPad);
  const std::int64_t pad = YPad * prow + Rad;  // plane start -> (0, 0)
  // Grid cell (x, y) of plane z, tile-local.
  const auto cell = [&](std::int64_t x, std::int64_t y, std::int64_t z) {
    return (z * ny + tile.y.origin + y) * nx + tile.x.origin + x;
  };

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
  // Stage 0's window; stage k's is the same ring k * W planes on. One
  // view per tile: a view built per plane lookup cost 64-wide 2D blocks
  // ~5%.
  PlanarShiftRegister<float> ring(base, W, plane_cells);
  // Tile-local (0, 0) of stage `stage`'s window plane holding plane `p`.
  const auto origin = [&](int stage, std::int64_t p) {
    return ring.plane(p) + std::int64_t(stage) * W * plane_cells + pad;
  };

  const AxisEdges ex = axis_edges(tile.x.origin, nx, tile.x.size);
  const AxisEdges ey = k3d ? axis_edges(tile.y.origin, ny, tile.y.size)
                           : AxisEdges{0, 1, false, false};
  // The x cells and y rows stage k < steps computes: its influence cone,
  // worked out once per tile (per row it cost 2-tap rows ~10%).
  std::vector<std::array<Span, 2>> stage(static_cast<std::size_t>(steps));
  for (int k = 1; k < steps; ++k) {
    const std::int64_t reach = std::int64_t(steps - k) * Rad;
    stage[std::size_t(k)] = {
        whole_chunks<ParVec>(cone(tile.x.w_lo, tile.x.w_hi, reach, ex), ex),
        cone(tile.y.w_lo, tile.y.w_hi, reach, ey)};
  }

  const std::int64_t zmax = nz + std::int64_t(steps) * Rad;
  for (std::int64_t z = 0; z < zmax; ++z) {
    if (cancel) cancel->throw_if_cancelled();
    // --- read: load input plane z and fill its ghosts ---
    if (z < nz && ex.hi > ex.lo && ey.hi > ey.lo) {
      float* o = origin(0, z);
      for (std::int64_t y = ey.lo; y < ey.hi; ++y) {
        float* row = o + y * prow;
        std::memcpy(row + ex.lo, in.data() + cell(ex.lo, y, z),
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
        tp[t] = src[std::size_t(tap_dz[t] + Rad)] + taps.dx[t];
        if constexpr (k3d) tp[t] += taps.dy[t] * prow;
      }
      if (k < steps) {
        float* o = origin(k, p);
        const auto [xs, ys] = stage[std::size_t(k)];
        for (std::int64_t y = ys.lo; y < ys.hi; ++y) {
          float* dst = o + y * prow;
          compute_row<Lanes, ParVec, false>(dst, xs.lo, xs.hi, tp, y * prow,
                                            args.coeffs, taps.count,
                                            nullptr);
          fill_row_ghosts<Rad>(dst, ex, bc);
        }
        fill_plane_ghosts<Rad>(o, prow, ey, bc);
      } else if (tile.x.w_hi > tile.x.w_lo) {
        // --- store: the finished plane's retired region, into `out` ---
        const std::int64_t n = tile.x.w_hi - tile.x.w_lo;
        for (std::int64_t y = tile.y.w_lo; y < tile.y.w_hi; ++y) {
          const std::int64_t at = cell(tile.x.w_lo, y, p);
          store_row<Lanes, ParVec>(out.data() + at, n, tp,
                                   y * prow + tile.x.w_lo, args.coeffs,
                                   taps.count, args.store, at);
          stats.cells_written += n;
        }
      }
    }
  }
}

/// Run pass: blocks [first, first + count) as merged tiles, one after
/// another. RunStats count plan blocks, as the interpreter does.
template <int Rad, int ParVec, int Lanes, typename GridT, typename Count>
[[gnu::always_inline]] inline void run_blocks(
    const BlockingPlan& plan, std::int64_t first, std::int64_t count,
    const GridT& in, GridT& out, int steps, const TapView<Count>& taps,
    const KernelArgs& args, RunStats& stats,
    const CancellationToken* cancel) {
  for (const Tile& tile : merged_tiles(plan, first, count, steps, Rad)) {
    run_tile<Rad, ParVec, Lanes>(tile, in, out, steps, taps, args, stats,
                                 cancel);
  }
  stats.cells_streamed += count * plan.cells_streamed_per_pass;
  stats.vectors_processed +=
      count * (plan.cells_streamed_per_pass / plan.config.parvec);
  stats.block_passes += count;
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
