// Tests for the OpenCL-C kernel generator, in particular the generated
// boundary-condition select chains (paper Section III.B).
#include <gtest/gtest.h>

#include "codegen/kernel_generator.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/star_stencil.hpp"

namespace fpga_stencil {
namespace {

AcceleratorConfig cfg(int dims, int rad, std::int64_t bx, std::int64_t by,
                      int pv, int pt) {
  AcceleratorConfig c;
  c.dims = dims;
  c.radius = rad;
  c.bsize_x = bx;
  c.bsize_y = by;
  c.parvec = pv;
  c.partime = pt;
  return c;
}

TEST(Codegen, Deterministic) {
  const CodegenOptions o{cfg(2, 2, 64, 1, 4, 3), true};
  EXPECT_EQ(generate_kernel_source(o), generate_kernel_source(o));
}

TEST(Codegen, BalancedDelimiters) {
  for (int dims : {2, 3}) {
    for (int rad : {1, 3}) {
      const CodegenOptions o{
          cfg(dims, rad, 64, dims == 3 ? 32 : 1, 4, 2), true};
      const SourceMetrics m = analyze_source(generate_kernel_source(o));
      EXPECT_TRUE(m.balanced) << dims << "D rad " << rad;
      EXPECT_GT(m.lines, 50);
    }
  }
}

TEST(Codegen, MacrosAndKernelsPresent) {
  const CodegenOptions o{cfg(3, 2, 64, 32, 4, 2), true};
  const std::string src = generate_kernel_source(o);
  for (const char* token :
       {"#define RAD 2", "#define DIM 3", "#define BSIZE_X 64",
        "#define BSIZE_Y 32", "#define PAR_VEC 4", "#define PAR_TIME 2",
        "#define SR_SIZE (2 * RAD * ROW_CELLS + PAR_VEC)",
        "__kernel void stencil_read", "__kernel void stencil_compute",
        "__kernel void stencil_write", "__attribute__((autorun))",
        "__attribute__((num_compute_units(PAR_TIME)))",
        "get_compute_id(0)", "read_channel_intel", "write_channel_intel",
        "cl_intel_channels"}) {
    EXPECT_NE(src.find(token), std::string::npos) << "missing: " << token;
  }
}

TEST(Codegen, AccumulationCountMatchesStencilShape) {
  // One `acc +=` per (lane, direction, distance): parvec * 2*dims * rad.
  for (int dims : {2, 3}) {
    for (int rad = 1; rad <= 4; ++rad) {
      for (int pv : {2, 4}) {
        const CodegenOptions o{
            cfg(dims, rad, 64, dims == 3 ? 32 : 1, pv, 2), false};
        const SourceMetrics m = analyze_source(generate_kernel_source(o));
        EXPECT_EQ(m.accumulations, std::int64_t(pv) * 2 * dims * rad)
            << dims << "D rad " << rad << " pv " << pv;
      }
    }
  }
}

TEST(Codegen, SelectCountGrowsWithRadius) {
  // Every neighbor access carries one clamping select, plus a fixed number
  // of ternaries in the read/write kernels and the in-grid select per lane.
  const int pv = 4;
  std::int64_t prev = 0;
  for (int rad = 1; rad <= 4; ++rad) {
    const CodegenOptions o{cfg(2, rad, 64, 1, pv, 2), false};
    const SourceMetrics m = analyze_source(generate_kernel_source(o));
    EXPECT_GT(m.selects, prev);
    // Boundary selects alone: parvec * 4 * rad (2D).
    EXPECT_GE(m.selects, std::int64_t(pv) * 4 * rad);
    prev = m.selects;
  }
}

TEST(Codegen, SelectDeltaIsExactlyTheBoundaryChains) {
  // Radius r+1 adds exactly 2*dims selects per lane over radius r.
  const int pv = 4;
  for (int dims : {2, 3}) {
    const CodegenOptions a{cfg(dims, 2, 64, dims == 3 ? 32 : 1, pv, 2), false};
    const CodegenOptions b{cfg(dims, 3, 64, dims == 3 ? 32 : 1, pv, 2), false};
    const std::int64_t da = analyze_source(generate_kernel_source(a)).selects;
    const std::int64_t db = analyze_source(generate_kernel_source(b)).selects;
    EXPECT_EQ(db - da, std::int64_t(pv) * 2 * dims);
  }
}

TEST(Codegen, UnrollPragmasPresent) {
  const CodegenOptions o{cfg(2, 1, 64, 1, 4, 2), false};
  const SourceMetrics m = analyze_source(generate_kernel_source(o));
  // Shift loop + load loop in compute, one in read, one in write.
  EXPECT_GE(m.unroll_pragmas, 4);
}

TEST(Codegen, LaneBodyStructure) {
  const AcceleratorConfig c = cfg(2, 2, 64, 1, 4, 2);
  const std::string body = generate_lane_body(c, 1);
  EXPECT_NE(body.find("out.d[1]"), std::string::npos);
  EXPECT_NE(body.find("COEF_C"), std::string::npos);
  EXPECT_NE(body.find("COEF_W_2"), std::string::npos);
  EXPECT_NE(body.find("COEF_N_1"), std::string::npos);
  EXPECT_EQ(body.find("COEF_B_1"), std::string::npos);  // no z in 2D
  EXPECT_THROW(generate_lane_body(c, 4), ConfigError);
  EXPECT_THROW(generate_lane_body(c, -1), ConfigError);
}

TEST(Codegen, CommentsToggle) {
  const AcceleratorConfig c = cfg(2, 1, 64, 1, 2, 1);
  const std::string with = generate_kernel_source({c, true});
  const std::string without = generate_kernel_source({c, false});
  EXPECT_GT(with.size(), without.size());
  EXPECT_EQ(without.find("// ----"), std::string::npos);
}

TEST(Codegen, CoefficientMacrosGuarded) {
  // Coefficients are overridable at aoc time: every definition is guarded.
  const std::string src = generate_kernel_source({cfg(3, 2, 64, 32, 2, 1),
                                                  false});
  const SourceMetrics m = analyze_source(src);
  (void)m;
  std::size_t guards = 0;
  for (std::size_t p = src.find("#ifndef COEF_"); p != std::string::npos;
       p = src.find("#ifndef COEF_", p + 1)) {
    ++guards;
  }
  EXPECT_EQ(guards, 1u + 6u * 2u);  // center + 6 directions * rad 2
}

TEST(Codegen, InvalidConfigRejected) {
  EXPECT_THROW(generate_kernel_source({cfg(2, 4, 16, 1, 4, 4), true}),
               ConfigError);
}

// ---- tap-set (box) kernel generation ----

TEST(TapCodegen, BoxKernelStructure) {
  const TapSet box = make_box_stencil(3, 1, 7);
  const CodegenOptions o{cfg(3, 1, 32, 16, 4, 2), true};
  const std::string src = generate_tap_kernel_source(box, o);
  const SourceMetrics m = analyze_source(src);
  EXPECT_TRUE(m.balanced);
  // One `acc +=` per lane per non-first tap: parvec * (27 - 1).
  EXPECT_EQ(m.accumulations, 4 * 26);
  for (const char* token :
       {"__constant float COEFS[27]", "#define STAGE_LAG 2",
        "#define DRAIN (PAR_TIME * STAGE_LAG)", "#define CENTER_BASE",
        "__kernel void stencil_compute", "__kernel void stencil_read",
        "__kernel void stencil_write"}) {
    EXPECT_NE(src.find(token), std::string::npos) << "missing: " << token;
  }
}

TEST(TapCodegen, StarTapsGetStageLagEqualRadius) {
  const TapSet star = StarStencil::make_benchmark(2, 3).to_taps();
  const CodegenOptions o{cfg(2, 3, 64, 1, 4, 2), false};
  const std::string src = generate_tap_kernel_source(star, o);
  EXPECT_NE(src.find("#define STAGE_LAG 3"), std::string::npos);
  // Star window: SR_SIZE = 2*rad*bsize + parvec = 388.
  EXPECT_NE(src.find("#define SR_SIZE 388"), std::string::npos);
}

TEST(TapCodegen, Deterministic) {
  const TapSet box = make_box_stencil(2, 2, 3);
  const CodegenOptions o{cfg(2, 2, 32, 1, 2, 1), true};
  EXPECT_EQ(generate_tap_kernel_source(box, o),
            generate_tap_kernel_source(box, o));
}

TEST(TapCodegen, CoefficientsAreLiterals) {
  const TapSet cubic = make_cubic27_stencil();
  const CodegenOptions o{cfg(3, 1, 16, 8, 2, 1), false};
  const std::string src = generate_tap_kernel_source(cubic, o);
  EXPECT_NE(src.find("0.5f"), std::string::npos);       // center coeff
  EXPECT_EQ(src.find("#ifndef COEF_"), std::string::npos);  // no macros
}

TEST(TapCodegen, ZeroOffsetTapHasNoSelect) {
  // A pure-center tap set generates no clamping selects in the lane body.
  const TapSet center_only(2, 1, {Tap{0, 0, 0, 1.0f}});
  const CodegenOptions o{cfg(2, 1, 16, 1, 2, 1), false};
  const std::string src = generate_tap_kernel_source(center_only, o);
  EXPECT_NE(src.find("sr[center + 0]"), std::string::npos);
}

TEST(TapCodegen, ClampedReachSizesTheShiftRegister) {
  // At x = nx - 1 the clamp pulls (2, -1) to (0, -1): lanes 0-1 then read
  // a whole row back, past the tap's plain flat offset of -30. The window
  // must reach sr[l - 32], so the center sits 32 cells in.
  const CodegenOptions o{cfg(2, 2, 32, 1, 4, 1), false};
  const std::string fwd = generate_tap_kernel_source(
      TapSet(2, 2, {Tap{0, 0, 0, 0.5f}, Tap{2, -1, 0, 0.5f}}), o);
  EXPECT_NE(fwd.find("#define CENTER_BASE 32\n"), std::string::npos);
  EXPECT_NE(fwd.find("#define STAGE_LAG 1\n"), std::string::npos);
  // The mirror: at x = 0 the clamp pulls (-2, 1) to (0, 1), and at the
  // last row to (-2, 0), two cells back of a plain offset of +30.
  const std::string back = generate_tap_kernel_source(
      TapSet(2, 2, {Tap{0, 0, 0, 0.5f}, Tap{-2, 1, 0, 0.5f}}), o);
  EXPECT_NE(back.find("#define CENTER_BASE 2\n"), std::string::npos);
  EXPECT_NE(back.find("#define SR_SIZE 38\n"), std::string::npos);
}

TEST(TapCodegen, NonClampBoundariesRejected) {
  // The generated selects implement clamping only.
  const TapSet star = StarStencil::make_benchmark(2, 1).to_taps();
  const CodegenOptions o{cfg(2, 1, 32, 1, 4, 1), false};
  for (const BoundaryCondition& bc :
       {BoundaryCondition::dirichlet(0.0f), BoundaryCondition::reflective(),
        BoundaryCondition::periodic()}) {
    EXPECT_THROW(generate_tap_kernel_source(star.with_boundary(bc), o),
                 ConfigError)
        << bc.describe();
  }
  EXPECT_NO_THROW(generate_tap_kernel_source(star, o));
}

TEST(TapCodegen, MismatchedDimsRejected) {
  const TapSet box2 = make_box_stencil(2, 1);
  EXPECT_THROW(
      generate_tap_kernel_source(box2, {cfg(3, 1, 16, 8, 2, 1), true}),
      ConfigError);
}

}  // namespace
}  // namespace fpga_stencil
