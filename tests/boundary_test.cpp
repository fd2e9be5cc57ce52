// Boundary-condition exactness sweep (docs/PROGRAMS.md): every
// BoundaryCondition (clamp, periodic, reflective, dirichlet) x star/box
// x 2D/3D x radius 1-4 x parvec {2, 4} must be bit-identical between the
// streaming accelerator and the naive reference model -- on the
// synchronous simulator AND the block-parallel backend, with partial edge
// blocks and a partial temporal tail, so corners, edges, and halo
// exchanges all see every boundary rule. Parvec 2 is off the kernel
// envelope, so it checks the interpreter; parvec 4 runs the specialized
// kernels' ghost-margin fill for clamp, reflective and dirichlet, and the
// sweep asserts through telemetry which path each case dispatched to. A
// few analytic single-tap tests pin the absolute semantics (what
// "mirror", "wrap", and "the dirichlet value" mean), not just agreement
// between two implementations.
#include <gtest/gtest.h>

#include "core/block_parallel_accelerator.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/plan_cache.hpp"
#include "grid/grid_compare.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

BoundaryCondition boundary_case(int i) {
  switch (i) {
    case 0: return BoundaryCondition::clamp();
    case 1: return BoundaryCondition::periodic();
    case 2: return BoundaryCondition::reflective();
    default: return BoundaryCondition::dirichlet(0.75f);
  }
}

/// Small blocks: several blocks per dimension with partial edge blocks,
/// so boundary handling is exercised per-block, not just per-grid.
AcceleratorConfig sweep_config(int dims, int radius, int parvec) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = parvec;
  cfg.partime = 2;
  cfg.bsize_x = 2 * cfg.partime * radius + 4;
  cfg.bsize_y = dims == 3 ? cfg.bsize_x : 1;
  cfg.validate();
  return cfg;
}

class BoundarySweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool, int, int>> {
};

TEST_P(BoundarySweep, AcceleratorMatchesReferenceBitExact) {
  const auto [dims, radius, box, bc_index, parvec] = GetParam();
  const BoundaryCondition bc = boundary_case(bc_index);
  Telemetry tel;
  AcceleratorConfig cfg = sweep_config(dims, radius, parvec);
  cfg.telemetry = &tel;
  const TapSet taps =
      (box ? make_box_stencil(dims, radius, 31)
           : StarStencil::make_benchmark(dims, radius, 7).to_taps())
          .with_boundary(bc);
  const int iters = 5;  // 2+2+1: includes a partial temporal tail pass

  if (dims == 2) {
    Grid2D<float> base(61, 23);
    base.fill_random(radius + bc_index * 13 + (box ? 100 : 0));
    Grid2D<float> want = base;
    reference_run(taps, want, iters);

    Grid2D<float> sync = base;
    StencilAccelerator(taps, cfg).run(sync, iters);
    EXPECT_TRUE(compare_exact(sync, want).identical())
        << "sync 2D rad=" << radius << " box=" << box
        << " bc=" << boundary_kind_name(bc.kind);

    Grid2D<float> par = base;
    run_block_parallel(taps, cfg, par, iters, RunOptions{.workers = 3});
    EXPECT_TRUE(compare_exact(par, want).identical())
        << "block_parallel 2D rad=" << radius << " box=" << box
        << " bc=" << boundary_kind_name(bc.kind);
  } else {
    Grid3D<float> base(25, 19, 9);
    base.fill_random(radius + bc_index * 13 + (box ? 100 : 0));
    Grid3D<float> want = base;
    reference_run(taps, want, iters);

    Grid3D<float> sync = base;
    StencilAccelerator(taps, cfg).run(sync, iters);
    EXPECT_TRUE(compare_exact(sync, want).identical())
        << "sync 3D rad=" << radius << " box=" << box
        << " bc=" << boundary_kind_name(bc.kind);

    Grid3D<float> par = base;
    run_block_parallel(taps, cfg, par, iters, RunOptions{.workers = 3});
    EXPECT_TRUE(compare_exact(par, want).identical())
        << "block_parallel 3D rad=" << radius << " box=" << box
        << " bc=" << boundary_kind_name(bc.kind);
  }

  // Every non-periodic boundary at an envelope parvec runs on the
  // kernels; periodic and parvec 2 stay on the interpreter.
  const std::int64_t specialized =
      tel.metrics().counter("kernels.dispatch_specialized").value();
  const std::int64_t fallback =
      tel.metrics().counter("kernels.dispatch_fallback").value();
  if (parvec == 4 && bc.kind != BoundaryKind::periodic) {
    EXPECT_GT(specialized, 0);
    EXPECT_EQ(fallback, 0);
  } else {
    EXPECT_EQ(specialized, 0);
    EXPECT_GT(fallback, 0);
  }
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<int, int, bool, int, int>>&
        info) {
  const auto [dims, radius, box, bc_index, parvec] = info.param;
  return std::string(dims == 2 ? "d2" : "d3") + "r" + std::to_string(radius) +
         (box ? "box" : "star") +
         boundary_kind_name(boundary_case(bc_index).kind) + "v" +
         std::to_string(parvec);
}

INSTANTIATE_TEST_SUITE_P(
    AllBoundaries, BoundarySweep,
    ::testing::Combine(::testing::Values(2, 3), ::testing::Range(1, 5),
                       ::testing::Bool(), ::testing::Range(0, 4),
                       ::testing::Values(2, 4)),
    sweep_name);

TEST(BoundaryRemap, AsymmetricTapsPulledPastTheirPlainReachStayExact) {
  // A clamp remap pulls an out-of-grid tap toward the center, which can
  // land it further forward or back than any plain offset: (-2, 1) at
  // x = 0 reads (0, 1), flat offset 32 against a plain reach of 30 at
  // bsize_x 32 (and its mirror (2, -1) at x = nx - 1 reads -32 against
  // -30). In 3D, (1, -1, 1) at y = 0 reads a whole plane plus one cell
  // ahead. The interpreter's shift register and stage lag must cover the
  // remapped reach, under clamp as under reflective.
  const auto pair = [](int dims, Tap t) {
    return TapSet(dims, 2, {Tap{0, 0, 0, 0.5f}, t});
  };
  const TapSet sets[] = {pair(2, {-2, 1, 0, 0.25f}), pair(2, {2, -1, 0, 0.25f}),
                         pair(3, {1, -1, 1, 0.25f}),
                         pair(3, {-1, 1, -1, 0.25f})};
  for (const TapSet& set : sets) {
    for (const BoundaryCondition& bc :
         {BoundaryCondition::clamp(), BoundaryCondition::reflective()}) {
      const TapSet taps = set.with_boundary(bc);
      for (const auto& [parvec, kernels] :
           {std::pair{2, true}, std::pair{4, false}}) {
        AcceleratorConfig cfg;
        cfg.dims = taps.dims();
        cfg.radius = 2;
        cfg.parvec = parvec;
        cfg.partime = 2;
        cfg.bsize_x = 32;
        cfg.bsize_y = taps.dims() == 3 ? 16 : 1;
        cfg.use_specialized_kernels = kernels;
        const std::string label = std::to_string(taps.dims()) + "D tap (" +
                                  std::to_string(taps.taps()[1].dx) + ", " +
                                  std::to_string(taps.taps()[1].dy) + ") " +
                                  bc.describe() + " parvec " +
                                  std::to_string(parvec);
        if (taps.dims() == 2) {
          Grid2D<float> base(40, 20);
          base.fill_random(17);
          Grid2D<float> want = base;
          reference_run(taps, want, 3);
          StencilAccelerator(taps, cfg).run(base, 3);
          EXPECT_TRUE(compare_exact(base, want).identical()) << label;
        } else {
          Grid3D<float> base(40, 20, 9);
          base.fill_random(17);
          Grid3D<float> want = base;
          reference_run(taps, want, 3);
          StencilAccelerator(taps, cfg).run(base, 3);
          EXPECT_TRUE(compare_exact(base, want).identical()) << label;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Analytic semantics: single off-center taps make the boundary rule the
// entire answer, pinned against hand-computed values (not the reference,
// which shares helpers with the implementation).

TapSet shift_tap(int dims, int dx, int dy, int dz, BoundaryCondition bc) {
  return TapSet(dims, std::max({std::abs(dx), std::abs(dy), std::abs(dz), 1}),
                {Tap{dx, dy, dz, 1.0f}})
      .with_boundary(bc);
}

AcceleratorConfig whole_grid_config(int dims, int radius) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = 2;
  cfg.partime = 1;
  cfg.bsize_x = 64;
  cfg.bsize_y = dims == 3 ? 64 : 1;
  cfg.validate();
  return cfg;
}

TEST(BoundarySemantics, PeriodicShiftWrapsAround) {
  const TapSet taps = shift_tap(2, 1, 0, 0, BoundaryCondition::periodic());
  Grid2D<float> base(7, 5);
  base.fill_random(3);
  Grid2D<float> got = base;
  StencilAccelerator(taps, whole_grid_config(2, 1)).run(got, 1);
  for (std::int64_t y = 0; y < base.ny(); ++y) {
    for (std::int64_t x = 0; x < base.nx(); ++x) {
      EXPECT_EQ(got.at(x, y), base.at((x + 1) % base.nx(), y))
          << "x=" << x << " y=" << y;
    }
  }
}

TEST(BoundarySemantics, ReflectiveShiftMirrorsAtEdge) {
  // Tap at -1: column 0 reads the mirror of index -1, which is index 1
  // (mirror-about-the-cell-center convention: -1 -> 1, -2 -> 2; the edge
  // cell is not duplicated).
  const TapSet taps = shift_tap(2, -1, 0, 0, BoundaryCondition::reflective());
  Grid2D<float> base(7, 5);
  base.fill_random(4);
  Grid2D<float> got = base;
  StencilAccelerator(taps, whole_grid_config(2, 1)).run(got, 1);
  for (std::int64_t y = 0; y < base.ny(); ++y) {
    EXPECT_EQ(got.at(0, y), base.at(1, y)) << "y=" << y;
    for (std::int64_t x = 1; x < base.nx(); ++x) {
      EXPECT_EQ(got.at(x, y), base.at(x - 1, y)) << "x=" << x << " y=" << y;
    }
  }
}

TEST(BoundarySemantics, DirichletValueEntersAtTheBorderOnly) {
  // 2D radius-1 star over an all-zero grid with dirichlet(2): only cells
  // whose taps cross the border see the boundary value, and each
  // out-of-grid tap contributes exactly coeff * value.
  const float kBoundary = 2.0f;
  const float c = 0.25f;
  const TapSet taps =
      TapSet(2, 1,
             {Tap{0, 0, 0, 0.5f}, Tap{-1, 0, 0, c}, Tap{1, 0, 0, c},
              Tap{0, -1, 0, c}, Tap{0, 1, 0, c}},
             BoundaryCondition::dirichlet(kBoundary));
  Grid2D<float> got(8, 6, 0.0f);
  StencilAccelerator(taps, whole_grid_config(2, 1)).run(got, 1);
  for (std::int64_t y = 0; y < got.ny(); ++y) {
    for (std::int64_t x = 0; x < got.nx(); ++x) {
      int outside = 0;
      if (x == 0 || x == got.nx() - 1) ++outside;
      if (y == 0 || y == got.ny() - 1) ++outside;
      EXPECT_EQ(got.at(x, y), float(outside) * c * kBoundary)
          << "x=" << x << " y=" << y;
    }
  }
}

TEST(BoundarySemantics, ClampIsStillTheDefaultAndFingerprintNeutral) {
  // Satellite 2 contract: clamp tap sets fingerprint exactly as before
  // the BoundaryCondition field existed (warm PlanCaches and TuningCaches
  // survive the upgrade); every non-clamp condition gets its own identity.
  const TapSet plain = StarStencil::make_benchmark(2, 2, 7).to_taps();
  EXPECT_TRUE(plain.boundary().is_clamp());
  EXPECT_EQ(tap_set_fingerprint(plain),
            tap_set_fingerprint(plain.with_boundary(BoundaryCondition::clamp())));
  const std::uint64_t clamp_fp = tap_set_fingerprint(plain);
  EXPECT_NE(clamp_fp, tap_set_fingerprint(
                          plain.with_boundary(BoundaryCondition::periodic())));
  EXPECT_NE(clamp_fp, tap_set_fingerprint(plain.with_boundary(
                          BoundaryCondition::reflective())));
  EXPECT_NE(clamp_fp, tap_set_fingerprint(
                          plain.with_boundary(BoundaryCondition::dirichlet(1))));
  // Distinct dirichlet values are distinct stencils.
  EXPECT_NE(
      tap_set_fingerprint(plain.with_boundary(BoundaryCondition::dirichlet(1))),
      tap_set_fingerprint(
          plain.with_boundary(BoundaryCondition::dirichlet(2))));
}

}  // namespace
}  // namespace fpga_stencil
