// Block-parallel backend tests. The load-bearing property is determinism:
// the same job must be bit-identical to the synchronous simulator at ANY
// worker count -- including more workers than blocks, worker counts that
// do not divide the block count, and partial tail passes. The full sweep
// runs star and box stencils at radius 1-4 in 2D and 3D; the suite is
// part of the sanitize job, so the worker pool is also exercised under
// TSan/ASan.
#include <gtest/gtest.h>

#include <memory>

#include "common/buffer_pool.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/run.hpp"
#include "engine/stencil_engine.hpp"
#include "fault/fault_injector.hpp"
#include "grid/grid_compare.hpp"
#include "program/program_spec.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

constexpr int kWorkerCounts[] = {1, 2, 7, 16};

/// Small blocks on purpose: many blocks (non-divisible by any tested
/// worker count) while the grids stay test-sized.
AcceleratorConfig sweep_config(int dims, int radius) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = 2;
  cfg.partime = 2;
  // csize = bsize - 2*partime*radius must stay positive; keep it small so
  // even the 2D grids decompose into several blocks.
  cfg.bsize_x = 2 * cfg.partime * radius + 4;
  cfg.bsize_y = dims == 3 ? cfg.bsize_x : 1;
  cfg.validate();
  return cfg;
}

class BlockParallelSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(BlockParallelSweep, BitExactWithSyncAtEveryWorkerCount) {
  const auto [dims, radius, box] = GetParam();
  const AcceleratorConfig cfg = sweep_config(dims, radius);
  const TapSet taps =
      box ? make_box_stencil(dims, radius, 31)
          : StarStencil::make_benchmark(dims, radius, 7).to_taps();
  // Grid extents chosen so csize (always 4 here) does not divide them:
  // the last block of each dimension is partial.
  const int iters = 5;  // 2+2+1: includes a partial tail pass

  if (dims == 2) {
    Grid2D<float> base(61, 23);
    base.fill_random(radius + (box ? 100 : 0));
    Grid2D<float> want = base;
    StencilAccelerator accel(taps, cfg);
    const RunStats sync_stats = accel.run(want, iters);
    ASSERT_GT(sync_stats.block_passes, 0);
    for (const int workers : kWorkerCounts) {
      Grid2D<float> g = base;
      const RunStats stats = run_block_parallel(
          taps, cfg, g, iters, RunOptions{.workers = workers});
      EXPECT_TRUE(compare_exact(g, want).identical())
          << "dims=2 rad=" << radius << " box=" << box
          << " workers=" << workers;
      // Identical decomposition => identical work accounting.
      EXPECT_EQ(stats.cells_streamed, sync_stats.cells_streamed);
      EXPECT_EQ(stats.cells_written, sync_stats.cells_written);
      EXPECT_EQ(stats.vectors_processed, sync_stats.vectors_processed);
      EXPECT_EQ(stats.block_passes, sync_stats.block_passes);
      EXPECT_EQ(stats.passes, sync_stats.passes);
      EXPECT_EQ(stats.time_steps, sync_stats.time_steps);
    }
  } else {
    Grid3D<float> base(25, 19, 9);
    base.fill_random(radius + (box ? 100 : 0));
    Grid3D<float> want = base;
    StencilAccelerator accel(taps, cfg);
    const RunStats sync_stats = accel.run(want, iters);
    ASSERT_GT(sync_stats.block_passes, 0);
    for (const int workers : kWorkerCounts) {
      Grid3D<float> g = base;
      const RunStats stats = run_block_parallel(
          taps, cfg, g, iters, RunOptions{.workers = workers});
      EXPECT_TRUE(compare_exact(g, want).identical())
          << "dims=3 rad=" << radius << " box=" << box
          << " workers=" << workers;
      EXPECT_EQ(stats.cells_streamed, sync_stats.cells_streamed);
      EXPECT_EQ(stats.cells_written, sync_stats.cells_written);
      EXPECT_EQ(stats.block_passes, sync_stats.block_passes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StarAndBox, BlockParallelSweep,
                         ::testing::Combine(::testing::Values(2, 3),
                                            ::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

TEST(BlockParallel, MatchesNaiveReference) {
  // Transitivity check straight to ground truth, not just to the sync
  // simulator.
  const AcceleratorConfig cfg = sweep_config(2, 2);
  const StarStencil s = StarStencil::make_benchmark(2, 2, 5);
  Grid2D<float> g(50, 21);
  g.fill_random(3);
  Grid2D<float> want = g;
  run_block_parallel(s.to_taps(), cfg, g, 7, RunOptions{.workers = 4});
  reference_run(s, want, 7);
  EXPECT_TRUE(compare_exact(g, want).identical());
}

TEST(BlockParallel, ZeroIterationsIsANoOp) {
  const AcceleratorConfig cfg = sweep_config(2, 1);
  const StarStencil s = StarStencil::make_benchmark(2, 1);
  Grid2D<float> g(30, 10);
  g.fill_random(1);
  Grid2D<float> want = g;
  const RunStats stats =
      run_block_parallel(s.to_taps(), cfg, g, 0, RunOptions{.workers = 3});
  EXPECT_EQ(stats.passes, 0);
  EXPECT_TRUE(compare_exact(g, want).identical());
}

TEST(BlockParallel, WorkerResolutionClampsToBlocks) {
  const AcceleratorConfig cfg = sweep_config(2, 1);  // bsize 8, csize 4
  const BlockingPlan plan = make_blocking_plan(cfg, 17, 10);  // 5 blocks
  EXPECT_EQ(plan.total_blocks(), 5);
  EXPECT_EQ(resolved_block_workers(RunOptions{.workers = 16}, plan), 5);
  EXPECT_EQ(resolved_block_workers(RunOptions{.workers = 2}, plan), 2);
  EXPECT_GE(requested_block_workers(0), 1);  // hardware_concurrency floor
}

TEST(BlockParallel, BlockExtentEnumeratesThePlan) {
  AcceleratorConfig cfg = sweep_config(3, 1);  // bsize 8x8, csize 4x4
  const BlockingPlan plan = make_blocking_plan(cfg, 10, 6, 5);
  ASSERT_EQ(plan.blocks_x, 3);
  ASSERT_EQ(plan.blocks_y, 2);
  ASSERT_EQ(plan.total_blocks(), 6);
  const BlockExtent first = block_extent(plan, 0);
  EXPECT_EQ(first.bx, 0);
  EXPECT_EQ(first.by, 0);
  EXPECT_EQ(first.x0, -cfg.halo());
  EXPECT_EQ(first.valid_x_end, 4);
  const BlockExtent last = block_extent(plan, 5);
  EXPECT_EQ(last.bx, 2);
  EXPECT_EQ(last.by, 1);
  EXPECT_EQ(last.valid_x_end, 10);  // clamped to nx: partial block
  EXPECT_EQ(last.valid_y_end, 6);
  EXPECT_THROW(block_extent(plan, 6), ConfigError);
  EXPECT_THROW(block_extent(plan, -1), ConfigError);
}

TEST(BlockParallel, PoolLeasesServeWorkerLaneScratch) {
  const AcceleratorConfig cfg = sweep_config(2, 1);
  const StarStencil s = StarStencil::make_benchmark(2, 1);
  BufferPool pool;
  Grid2D<float> g(61, 23);
  g.fill_random(9);
  Grid2D<float> want = g;
  RunOptions opts;
  opts.workers = 4;
  opts.pool = &pool;
  run_block_parallel(s.to_taps(), cfg, g, 4, opts);
  reference_run(s, want, 4);
  EXPECT_TRUE(compare_exact(g, want).identical());
  EXPECT_GE(pool.acquires(), 4);  // one lane lease per worker
  // Leases returned: a second run reuses instead of allocating.
  const std::int64_t allocs = pool.allocations();
  Grid2D<float> h(61, 23);
  h.fill_random(9);
  run_block_parallel(s.to_taps(), cfg, h, 4, opts);
  EXPECT_EQ(pool.allocations(), allocs);
}

TEST(BlockParallel, TelemetryRecordsWorkersBlocksAndRedundancy) {
  Telemetry telemetry;
  const AcceleratorConfig cfg = sweep_config(2, 2);
  const StarStencil s = StarStencil::make_benchmark(2, 2);
  Grid2D<float> g(61, 23);
  g.fill_random(2);
  RunOptions opts;
  opts.workers = 3;
  opts.telemetry = &telemetry;
  const RunStats stats = run_block_parallel(s.to_taps(), cfg, g, 4, opts);
  const MetricsSnapshot snap = telemetry.metrics().snapshot();
  EXPECT_EQ(snap.value_or("block_parallel.workers", -1), 3);
  EXPECT_EQ(snap.value_or("block_parallel.blocks", -1), stats.block_passes);
  EXPECT_EQ(snap.value_or("block_parallel.redundancy_milli", -1),
            std::int64_t(stats.redundancy() * 1000.0));
  EXPECT_EQ(snap.value_or("block_parallel.passes", -1), stats.passes);
  EXPECT_GT(snap.value_or("block_parallel.cells_written", 0), 0);
  // Per-worker busy spans: one histogram observation per worker.
  const MetricSample* busy = snap.find("block_parallel.worker_busy_ns");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->value, 3);
}

// ------------------------------------------------- unified run() routing

TEST(UnifiedRun, ExplicitBackendsAreBitExact) {
  const AcceleratorConfig cfg = sweep_config(2, 2);
  const StarStencil s = StarStencil::make_benchmark(2, 2, 9);
  Grid2D<float> base(61, 23);
  base.fill_random(4);
  Grid2D<float> want = base;
  reference_run(s, want, 5);
  for (const ExecutionBackend backend :
       {ExecutionBackend::sync_sim, ExecutionBackend::concurrent,
        ExecutionBackend::block_parallel, ExecutionBackend::resilient}) {
    Grid2D<float> g = base;
    RunOptions opts;
    opts.backend = backend;
    opts.workers = 3;
    const RunStats stats = run(s.to_taps(), cfg, g, 5, opts);
    EXPECT_TRUE(compare_exact(g, want).identical()) << backend_name(backend);
    EXPECT_EQ(stats.time_steps, 5) << backend_name(backend);
  }
}

TEST(UnifiedRun, AutomaticRoutingPolicy) {
  const AcceleratorConfig cfg = sweep_config(2, 1);  // csize 4
  const TapSet taps = StarStencil::make_benchmark(2, 1).to_taps();
  // 61 cells / csize 4 = 16 blocks: enough for 8 workers (2 per worker)...
  RunOptions opts;
  opts.workers = 8;
  EXPECT_EQ(resolve_backend(taps, cfg, 61, 23, 1, opts),
            ExecutionBackend::block_parallel);
  // ...but not for 9 (needs 18).
  opts.workers = 9;
  EXPECT_EQ(resolve_backend(taps, cfg, 61, 23, 1, opts),
            ExecutionBackend::sync_sim);
  // A single worker never fans out.
  opts.workers = 1;
  EXPECT_EQ(resolve_backend(taps, cfg, 61, 23, 1, opts),
            ExecutionBackend::sync_sim);
  // An injector always routes to the resilient runner.
  FaultInjector fi(FaultPlan::parse("seed=1,seu_bit_flip:n=1"));
  opts.workers = 8;
  opts.injector = &fi;
  EXPECT_EQ(resolve_backend(taps, cfg, 61, 23, 1, opts),
            ExecutionBackend::resilient);
}

TEST(UnifiedRun, ClusterBackendIsEngineOnly) {
  const AcceleratorConfig cfg = sweep_config(2, 1);
  const StarStencil s = StarStencil::make_benchmark(2, 1);
  Grid2D<float> g(30, 10);
  g.fill_random(1);
  RunOptions opts;
  opts.backend = ExecutionBackend::cluster;
  EXPECT_THROW(run(s.to_taps(), cfg, g, 1, opts), ConfigError);
}

// ------------------------------------------------- engine integration

TEST(EngineBlockParallel, ExplicitBackendRunsAndMatchesSync) {
  StencilEngine engine;
  const AcceleratorConfig cfg = sweep_config(2, 2);
  const TapSet taps = StarStencil::make_benchmark(2, 2, 21).to_taps();
  Grid2D<float> base(61, 23);
  base.fill_random(6);
  Grid2D<float> want = base;
  StencilAccelerator accel(taps, cfg);
  accel.run(want, 6);

  JobSpec spec(taps, cfg, Grid2D<float>(base), 6);
  spec.backend = Backend::block_parallel;
  spec.workers = 4;
  JobResult result = engine.run(std::move(spec));
  EXPECT_EQ(result.backend, Backend::block_parallel);
  EXPECT_TRUE(compare_exact(result.grid2d(), want).identical());
}

TEST(EngineBlockParallel, AutomaticRoutingNeedsTwoBlocksPerWorker) {
  StencilEngine engine;
  const AcceleratorConfig cfg = sweep_config(2, 1);  // csize 4
  const TapSet taps = StarStencil::make_benchmark(2, 1).to_taps();
  Grid2D<float> g(61, 23);  // 16 blocks
  g.fill_random(2);

  JobSpec wide(taps, cfg, Grid2D<float>(g), 2);
  wide.workers = 8;  // 16 >= 2*8: fan out
  EXPECT_EQ(engine.run(std::move(wide)).backend, Backend::block_parallel);

  JobSpec narrow(taps, cfg, Grid2D<float>(g), 2);
  narrow.workers = 9;  // 16 < 18: stay on the sync sweep
  EXPECT_EQ(engine.run(std::move(narrow)).backend, Backend::sync_sim);

  // The same plan as a one-node program job routes by the same rule.
  const auto program_backend = [&](int workers) {
    ProgramSpec p;
    p.fields = {FieldSpec{"u", Grid2D<float>(g)}};
    p.nodes = {KernelNode{"step", taps, cfg, "u", "u", CombineOp::assign, 2,
                          {}}};
    p.validate();
    JobSpec spec(std::make_shared<const ProgramSpec>(std::move(p)));
    spec.workers = workers;
    return engine.run(std::move(spec)).backend;
  };
  EXPECT_EQ(program_backend(8), Backend::block_parallel);
  EXPECT_EQ(program_backend(9), Backend::sync_sim);
}

// PR 1 introduced the watchdog for the concurrent pipeline; PR 6 wires
// it into the block-parallel pool. The load-bearing property: one worker
// parked on the injector's stall gate (a hung PE) must not deadlock the
// two-barrier pass protocol -- the watchdog's unwind releases the gate,
// every sibling drains, and the whole pool retires through both barriers.
TEST(BlockParallelWatchdog, StalledWorkerUnwindsWholePoolWithoutDeadlock) {
  const AcceleratorConfig cfg = sweep_config(2, 1);
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  Grid2D<float> g(61, 23);
  g.fill_random(5);
  const Grid2D<float> initial = g;

  FaultInjector fi(FaultPlan::parse("seed=7,kernel_hang:n=1"));
  RunOptions opts;
  opts.workers = 4;  // P >= 2: siblings are mid-pass when the stall hits
  opts.injector = &fi;
  opts.watchdog_deadline = std::chrono::milliseconds(100);
  // The hang fires on the first pass; the watchdog unwinds it. If the
  // unwind mishandled either barrier this test would hang, not fail.
  EXPECT_THROW((void)run_block_parallel(taps, cfg, g, 6, opts),
               PassAbortedError);
  // No pass completed: the caller's grid is untouched (the aborted pass
  // wrote only the scratch side).
  EXPECT_TRUE(compare_exact(g, initial).identical());
}

TEST(BlockParallelWatchdog, CleanRunUnderWatchdogStaysBitExact) {
  const AcceleratorConfig cfg = sweep_config(2, 1);
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  Grid2D<float> want(61, 23);
  want.fill_random(5);
  Grid2D<float> g = want;
  StencilAccelerator accel(taps, cfg);
  accel.run(want, 6);

  RunOptions opts;
  opts.workers = 4;
  opts.watchdog_deadline = std::chrono::milliseconds(10000);
  (void)run_block_parallel(taps, cfg, g, 6, opts);
  EXPECT_TRUE(compare_exact(g, want).identical());
}

}  // namespace
}  // namespace fpga_stencil
