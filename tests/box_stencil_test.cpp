// Tests for the tap-set generalization: box stencils on the same deep
// pipeline, and star-stencil lowering equivalence.
#include <gtest/gtest.h>

#include "core/stencil_accelerator.hpp"
#include "grid/grid_compare.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"

namespace fpga_stencil {
namespace {

TEST(TapSet, Validation) {
  EXPECT_THROW(TapSet(4, 1, {Tap{0, 0, 0, 1.f}}), ConfigError);
  EXPECT_THROW(TapSet(2, 1, {}), ConfigError);
  EXPECT_THROW(TapSet(2, 1, {Tap{2, 0, 0, 1.f}}), ConfigError);  // > radius
  EXPECT_THROW(TapSet(2, 1, {Tap{0, 0, 1, 1.f}}), ConfigError);  // z in 2D
  EXPECT_NO_THROW(TapSet(3, 2, {Tap{1, -2, 2, 1.f}}));
}

TEST(TapSet, FlatOffsets) {
  const TapSet t(3, 1,
                 {Tap{0, 0, 0, 1.f}, Tap{-1, 0, 0, 1.f}, Tap{0, 1, 0, 1.f},
                  Tap{1, 1, 1, 1.f}});
  const std::int64_t bx = 8, plane = 8 * 4;
  EXPECT_EQ(t.flat_offset(t.taps()[1], bx, plane), -1);
  EXPECT_EQ(t.flat_offset(t.taps()[2], bx, plane), 8);
  EXPECT_EQ(t.flat_offset(t.taps()[3], bx, plane), plane + 8 + 1);
}

TEST(TapSet, CostModel) {
  const TapSet box = make_box_stencil(3, 1);
  EXPECT_EQ(box.size(), 27u);
  EXPECT_EQ(box.dsps_per_cell(), 27);
  EXPECT_EQ(box.flops_per_cell(), 53);
  // Star lowering preserves the paper's counts.
  const TapSet star = StarStencil::make_benchmark(3, 2).to_taps();
  EXPECT_EQ(star.size(), 13u);  // 1 + 6*2
  EXPECT_EQ(star.flops_per_cell(), 25);  // Table I, 3D radius 2
}

TEST(BoxStencil, TapCountFormula) {
  EXPECT_EQ(box_tap_count(2, 1), 9);
  EXPECT_EQ(box_tap_count(2, 3), 49);
  EXPECT_EQ(box_tap_count(3, 1), 27);
  EXPECT_EQ(box_tap_count(3, 2), 125);
  EXPECT_THROW(box_tap_count(4, 1), ConfigError);
}

TEST(BoxStencil, NormalizedAndDeterministic) {
  for (int dims : {2, 3}) {
    for (int rad : {1, 2}) {
      const TapSet t = make_box_stencil(dims, rad, 5);
      EXPECT_NEAR(t.coefficient_sum(), 1.0, 1e-4);
      EXPECT_EQ(std::int64_t(t.size()), box_tap_count(dims, rad));
    }
  }
  const TapSet a = make_box_stencil(2, 2, 5);
  const TapSet b = make_box_stencil(2, 2, 5);
  EXPECT_EQ(a.taps()[3].coeff, b.taps()[3].coeff);
}

TEST(BoxStencil, Cubic27SharedCoefficients) {
  const TapSet t = make_cubic27_stencil();
  EXPECT_EQ(t.size(), 27u);
  EXPECT_NEAR(t.coefficient_sum(), 1.0, 1e-6);
}

TEST(StarLowering, BitExactWithDirectApply) {
  // apply_taps on to_taps() must equal StarStencil::apply_point exactly.
  for (int dims : {2, 3}) {
    for (int rad : {1, 3}) {
      const StarStencil s = StarStencil::make_benchmark(dims, rad, 21);
      const TapSet taps = s.to_taps();
      if (dims == 2) {
        Grid2D<float> g(17, 11);
        g.fill_random(3);
        for (std::int64_t y = 0; y < 11; ++y) {
          for (std::int64_t x = 0; x < 17; ++x) {
            ASSERT_EQ(apply_taps(taps, g, x, y), s.apply_point(g, x, y));
          }
        }
      } else {
        Grid3D<float> g(9, 8, 7);
        g.fill_random(4);
        for (std::int64_t z = 0; z < 7; ++z) {
          for (std::int64_t y = 0; y < 8; ++y) {
            for (std::int64_t x = 0; x < 9; ++x) {
              ASSERT_EQ(apply_taps(taps, g, x, y, z),
                        s.apply_point(g, x, y, z));
            }
          }
        }
      }
    }
  }
}

TEST(StarLowering, AcceleratorViaTapsBitExactWithStarCtor) {
  const StarStencil s = StarStencil::make_benchmark(2, 2, 8);
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = 2;
  cfg.bsize_x = 48;
  cfg.parvec = 4;
  cfg.partime = 2;
  Grid2D<float> a(90, 30), b(90, 30);
  a.fill_random(6);
  b = a;
  StencilAccelerator via_star(s, cfg);
  StencilAccelerator via_taps(s.to_taps(), cfg);
  via_star.run(a, 5);
  via_taps.run(b, 5);
  EXPECT_TRUE(compare_exact(a, b).identical());
}

TEST(BoxAccelerator, AutoStageLagCoversCorners) {
  // Box corners reach radius*(plane + row + 1): one extra row of lag.
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = 1;
  cfg.bsize_x = 16;
  cfg.bsize_y = 8;
  cfg.parvec = 4;
  cfg.partime = 2;
  StencilAccelerator accel(make_box_stencil(3, 1), cfg);
  EXPECT_EQ(accel.config().effective_stage_lag(), 2);  // rad + 1
  // Star keeps the paper's lag (= radius).
  StencilAccelerator star(StarStencil::make_benchmark(3, 1), cfg);
  EXPECT_EQ(star.config().effective_stage_lag(), 1);
}

class BoxExactness2D
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BoxExactness2D, MatchesReference) {
  const auto [rad, parvec, partime] = GetParam();
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = rad;
  cfg.bsize_x = 48;
  cfg.parvec = parvec;
  cfg.partime = partime;
  if (cfg.csize_x() <= 0) GTEST_SKIP();
  const TapSet box = make_box_stencil(2, rad, 100 + std::uint64_t(rad));
  Grid2D<float> g(77, 21);
  g.fill_random(55);
  Grid2D<float> want = g;
  StencilAccelerator accel(box, cfg);
  accel.run(g, partime + 1);  // includes a partial tail pass
  reference_run(box, want, partime + 1);
  const CompareResult cmp = compare_exact(g, want);
  EXPECT_TRUE(cmp.identical())
      << "rad=" << rad << " pv=" << parvec << " pt=" << partime << ": "
      << cmp.summary();
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoxExactness2D,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 3)));

class BoxExactness3D
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BoxExactness3D, MatchesReference) {
  const auto [rad, partime] = GetParam();
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = rad;
  cfg.bsize_x = 24;
  cfg.bsize_y = 16;
  cfg.parvec = 4;
  cfg.partime = partime;
  if (cfg.csize_x() <= 0 || cfg.csize_y() <= 0) GTEST_SKIP();
  const TapSet box = make_box_stencil(3, rad, 200 + std::uint64_t(rad));
  Grid3D<float> g(30, 22, 9);
  g.fill_random(66);
  Grid3D<float> want = g;
  StencilAccelerator accel(box, cfg);
  accel.run(g, partime + 1);
  reference_run(box, want, partime + 1);
  const CompareResult cmp = compare_exact(g, want);
  EXPECT_TRUE(cmp.identical())
      << "rad=" << rad << " pt=" << partime << ": " << cmp.summary();
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoxExactness3D,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(1, 2, 3)));

TEST(BoxAccelerator, Cubic27MatchesReference) {
  // The related-work [19] kernel: first-order 27-point cubic stencil.
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = 1;
  cfg.bsize_x = 16;
  cfg.bsize_y = 12;
  cfg.parvec = 4;
  cfg.partime = 3;
  const TapSet cubic = make_cubic27_stencil();
  Grid3D<float> g(25, 19, 8);
  g.fill_random(77);
  Grid3D<float> want = g;
  StencilAccelerator accel(cubic, cfg);
  accel.run(g, 6);
  reference_run(cubic, want, 6);
  EXPECT_TRUE(compare_exact(g, want).identical());
}

TEST(BoxAccelerator, ExplicitStageLagValidated) {
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = 2;
  cfg.bsize_x = 32;
  cfg.parvec = 4;
  cfg.partime = 1;
  cfg.stage_lag = 1;  // too small for a radius-2 box's forward reach
  EXPECT_THROW(StencilAccelerator(make_box_stencil(2, 2), cfg), ConfigError);
  cfg.stage_lag = 3;  // oversized is allowed (just more drain)
  EXPECT_NO_THROW(StencilAccelerator(make_box_stencil(2, 2), cfg));
}

TEST(BoxAccelerator, OversizedExplicitLagStillBitExact) {
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = 1;
  cfg.bsize_x = 32;
  cfg.parvec = 4;
  cfg.partime = 2;
  cfg.stage_lag = 4;  // deliberately larger than needed
  const TapSet box = make_box_stencil(2, 1, 9);
  Grid2D<float> g(50, 17);
  g.fill_random(8);
  Grid2D<float> want = g;
  StencilAccelerator accel(box, cfg);
  accel.run(g, 4);
  reference_run(box, want, 4);
  EXPECT_TRUE(compare_exact(g, want).identical());
}

}  // namespace
}  // namespace fpga_stencil
