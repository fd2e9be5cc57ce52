// KernelRegistry::bind interns each distinct runtime tap table once and
// stops at kMaxBoundTables. Past the cap find() returns null, so a job on
// a new table runs on the interpreter -- still bit-exact -- while tables
// bound earlier keep their handles. The registry is process-wide, which
// is why this suite is its own binary: no other test may intern first.
#include <gtest/gtest.h>

#include <vector>

#include "core/stencil_accelerator.hpp"
#include "grid/grid_compare.hpp"
#include "kernels/kernel_registry.hpp"
#include "stencil/reference.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

constexpr int kPool[10][2] = {{1, 0},  {-1, 0}, {0, 1},  {0, -1}, {1, 1},
                              {-1, -1}, {1, -1}, {-1, 1}, {0, 2},  {0, -2}};
static_assert(KernelRegistry::kMaxBoundTables <= (1u << 10),
              "numbered_table spans 2^10 distinct tables");

/// The `i`th of 2^10 distinct 2D radius-2 offset lists: the center and
/// (2, 0), plus the kPool offsets that i's bits select. None holds
/// (-2, 0), so none is the canonical star or box.
TapSet numbered_table(unsigned i) {
  std::vector<Tap> taps = {Tap{0, 0, 0, 0.5f}, Tap{2, 0, 0, 0.125f}};
  for (unsigned b = 0; b < 10; ++b) {
    if ((i >> b) & 1u) {
      taps.push_back(Tap{kPool[b][0], kPool[b][1], 0, 0.0625f});
    }
  }
  return TapSet(2, 2, std::move(taps));
}

TEST(KernelRegistryInternCap, TablesPastTheCapRunOnTheInterpreter) {
  const KernelRegistry& reg = KernelRegistry::instance();
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = 2;
  cfg.parvec = 4;
  cfg.partime = 2;
  cfg.bsize_x = 32;

  const SpecializedKernel* first = nullptr;
  for (unsigned i = 0; i < KernelRegistry::kMaxBoundTables; ++i) {
    const SpecializedKernel* k = reg.find(numbered_table(i), cfg);
    ASSERT_NE(k, nullptr) << "table " << i << " was not interned";
    ASSERT_EQ(k->shape, StencilShape::kTable) << "table " << i;
    if (i == 0) first = k;
  }

  // Holds (-2, 0), so no numbered table matches it.
  const TapSet fresh(2, 2, {Tap{0, 0, 0, 0.5f}, Tap{-2, 0, 0, 0.25f}});
  EXPECT_EQ(reg.find(fresh, cfg), nullptr);
  EXPECT_EQ(reg.find(numbered_table(0), cfg), first);

  Telemetry tel;
  cfg.telemetry = &tel;
  Grid2D<float> got(45, 23);
  got.fill_random(3, -1.0f, 1.0f);
  Grid2D<float> want = got;
  reference_run(fresh, want, 4);
  StencilAccelerator(fresh, cfg).run(got, 4);
  const CompareResult cmp = compare_exact(got, want);
  EXPECT_TRUE(cmp.identical()) << cmp.summary();
  EXPECT_GT(tel.metrics().counter("kernels.dispatch_fallback").value(), 0);
  EXPECT_EQ(tel.metrics().counter("kernels.dispatch_specialized").value(), 0);
}

}  // namespace
}  // namespace fpga_stencil
