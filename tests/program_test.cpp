// Program IR tests (docs/PROGRAMS.md): DAG validation rejects every
// program whose result would depend on scheduling tie-breaks; the
// executor matches the multi-field golden model bit-for-bit through the
// engine AND the cluster front door; the single-stencil adapter is
// equivalent to the classic direct run; program plans hit the tuner
// cache once per node per run; leases all return to the pool; fields
// stream through chunk sinks in declaration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "engine/engine_cluster.hpp"
#include "engine/stencil_engine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/faults.hpp"
#include "grid/grid_compare.hpp"
#include "program/program_executor.hpp"
#include "program/program_reference.hpp"
#include "program/program_spec.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

AcceleratorConfig base_config(int dims, int radius) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = 2;
  cfg.partime = 1;
  cfg.bsize_x = 32;
  cfg.bsize_y = dims == 3 ? 32 : 1;
  cfg.validate();
  return cfg;
}

TapSet taps_2d(std::initializer_list<Tap> taps, int radius = 1) {
  return TapSet(2, radius, taps);
}

/// The 2D FDTD-style E/H update from the flagship campaign, shrunk to
/// test size: three coupled fields, four nodes, explicit `after` edges
/// ordering the two ez writers and the reads of the freshly-written hy.
ProgramSpec make_fdtd_program(std::int64_t nx, std::int64_t ny, int steps) {
  ProgramSpec p;
  Grid2D<float> ez(nx, ny);
  ez.fill_random(11, -1.0f, 1.0f);
  Grid2D<float> hx(nx, ny);
  hx.fill_random(12, -0.5f, 0.5f);
  Grid2D<float> hy(nx, ny);
  hy.fill_random(13, -0.5f, 0.5f);
  p.fields = {
      FieldSpec{"ez", std::move(ez), BoundaryCondition::dirichlet(0.0f)},
      FieldSpec{"hx", std::move(hx), BoundaryCondition::clamp()},
      FieldSpec{"hy", std::move(hy), BoundaryCondition::clamp()},
  };
  const AcceleratorConfig cfg = base_config(2, 1);
  p.nodes = {
      KernelNode{"hx_up",
                 taps_2d({Tap{0, 0, 0, -0.5f}, Tap{0, 1, 0, 0.5f}}), cfg,
                 "ez", "hx", CombineOp::add, 1, {}},
      KernelNode{"hy_up",
                 taps_2d({Tap{0, 0, 0, 0.5f}, Tap{1, 0, 0, -0.5f}}), cfg,
                 "ez", "hy", CombineOp::add, 1, {}},
      // ez reads the H fields *written this step*: both curl halves
      // depend on their writer, and the two ez writers are ordered.
      KernelNode{"ez_x",
                 taps_2d({Tap{0, 0, 0, 0.5f}, Tap{-1, 0, 0, -0.5f}}), cfg,
                 "hy", "ez", CombineOp::add, 1, {"hy_up"}},
      KernelNode{"ez_y",
                 taps_2d({Tap{0, 0, 0, -0.5f}, Tap{0, -1, 0, 0.5f}}), cfg,
                 "hx", "ez", CombineOp::add, 1, {"hx_up", "ez_x"}},
  };
  p.steps = steps;
  return p;
}

void expect_fields_identical(
    const std::vector<std::pair<std::string, GridVariant>>& got,
    const std::vector<std::pair<std::string, GridVariant>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    if (std::holds_alternative<Grid2D<float>>(want[i].second)) {
      EXPECT_TRUE(compare_exact(std::get<Grid2D<float>>(got[i].second),
                                std::get<Grid2D<float>>(want[i].second))
                      .identical())
          << "field " << want[i].first;
    } else {
      EXPECT_TRUE(compare_exact(std::get<Grid3D<float>>(got[i].second),
                                std::get<Grid3D<float>>(want[i].second))
                      .identical())
          << "field " << want[i].first;
    }
  }
}

/// Bitwise equality of every field (NaN matches any NaN): stricter than
/// compare_exact, which takes -0.0 for 0.0.
void expect_fields_bitwise(
    const std::vector<std::pair<std::string, GridVariant>>& got,
    const std::vector<std::pair<std::string, GridVariant>>& want,
    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t f = 0; f < got.size(); ++f) {
    const std::int64_t n = grid_variant_cells(want[f].second);
    ASSERT_EQ(grid_variant_cells(got[f].second), n) << label;
    const float* a = grid_variant_data(got[f].second);
    const float* b = grid_variant_data(want[f].second);
    std::int64_t bad = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const bool both_nan = std::isnan(a[i]) && std::isnan(b[i]);
      if (!both_nan && std::bit_cast<std::uint32_t>(a[i]) !=
                           std::bit_cast<std::uint32_t>(b[i])) {
        ++bad;
      }
    }
    EXPECT_EQ(bad, 0) << label << ": field " << want[f].first;
  }
}

/// Runs `p` through the engine on sync_sim and on block_parallel with 2
/// and 3 workers; every run must be bitwise the golden model's result
/// and return every lease.
void expect_every_executor_matches_reference(const ProgramSpec& p,
                                             const std::string& label) {
  const auto want = reference_run_program(p);
  const auto program = std::make_shared<const ProgramSpec>(p);
  struct Run {
    Backend backend;
    int workers;
  };
  for (const Run run : {Run{Backend::sync_sim, 1},
                        Run{Backend::block_parallel, 2},
                        Run{Backend::block_parallel, 3}}) {
    StencilEngine engine({.workers = 1});
    JobSpec spec(program);
    spec.backend = run.backend;
    spec.workers = run.workers;
    JobResult r = engine.run(std::move(spec));
    expect_fields_bitwise(r.fields, want,
                          label + " on " + backend_name(run.backend) + " x" +
                              std::to_string(run.workers));
    EXPECT_EQ(engine.buffer_pool().outstanding(), 0) << label;
  }
}

// ---------------------------------------------------------------------------
// Validation

TEST(ProgramValidate, RejectsDependencyCycle) {
  ProgramSpec p = make_fdtd_program(16, 12, 1);
  p.nodes[0].after = {"ez_y"};  // hx_up -> ez_y -> hx_up
  EXPECT_THROW(p.validate(), ConfigError);
  EXPECT_THROW(p.schedule(), ConfigError);
}

TEST(ProgramValidate, RejectsUnknownFieldAndNodeReferences) {
  {
    ProgramSpec p = make_fdtd_program(16, 12, 1);
    p.nodes[0].reads = "nope";
    EXPECT_THROW(p.validate(), ConfigError);
  }
  {
    ProgramSpec p = make_fdtd_program(16, 12, 1);
    p.nodes[0].writes = "nope";
    EXPECT_THROW(p.validate(), ConfigError);
  }
  {
    ProgramSpec p = make_fdtd_program(16, 12, 1);
    p.nodes[0].after = {"no_such_node"};
    EXPECT_THROW(p.validate(), ConfigError);
  }
}

TEST(ProgramValidate, RejectsWorkFieldReadBeforeWrite) {
  // A work field has no meaningful front state: reading it in a node that
  // does not depend on this step's writer is a use of stale scratch.
  ProgramSpec p;
  p.fields = {
      FieldSpec{"u", Grid2D<float>(16, 12), BoundaryCondition::clamp()},
      FieldSpec{"scratch", Grid2D<float>(16, 12), BoundaryCondition::clamp(),
                /*work=*/true},
  };
  const AcceleratorConfig cfg = base_config(2, 1);
  const TapSet id = taps_2d({Tap{0, 0, 0, 1.0f}});
  p.nodes = {
      KernelNode{"fill", id, cfg, "u", "scratch", CombineOp::assign, 1, {}},
      KernelNode{"use", id, cfg, "scratch", "u", CombineOp::assign, 1, {}},
  };
  EXPECT_THROW(p.validate(), ConfigError);
  p.nodes[1].after = {"fill"};  // ordered after the writer: legal
  EXPECT_NO_THROW(p.validate());
}

TEST(ProgramValidate, RejectsTieBreakDependentWriters) {
  // Two writers of one field with no ordering between them: the result
  // would depend on which the scheduler happens to run first.
  ProgramSpec p;
  p.fields = {FieldSpec{"u", Grid2D<float>(16, 12), BoundaryCondition::clamp()}};
  const AcceleratorConfig cfg = base_config(2, 1);
  const TapSet id = taps_2d({Tap{0, 0, 0, 1.0f}});
  p.nodes = {
      KernelNode{"a", id, cfg, "u", "u", CombineOp::assign, 1, {}},
      KernelNode{"b", id, cfg, "u", "u", CombineOp::add, 1, {}},
  };
  EXPECT_THROW(p.validate(), ConfigError);
  p.nodes[1].after = {"a"};  // assign first, add ordered after: legal
  EXPECT_NO_THROW(p.validate());
  // assign *after* an add clobbers the earlier writer's contribution.
  p.nodes[0].combine = CombineOp::add;
  p.nodes[1].combine = CombineOp::assign;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(ProgramValidate, ScheduleIsDeterministicTopologicalOrder) {
  const ProgramSpec p = make_fdtd_program(16, 12, 1);
  EXPECT_NO_THROW(p.validate());
  const std::vector<std::size_t> order = p.schedule();
  // Declaration-index tie-break: hx_up and hy_up are both ready first.
  const std::vector<std::size_t> want = {0, 1, 2, 3};
  EXPECT_EQ(order, want);
}

// ---------------------------------------------------------------------------
// Identity

TEST(ProgramFingerprint, ExcludesStepsAndValuesIncludesStructure) {
  const ProgramSpec a = make_fdtd_program(16, 12, 3);
  ProgramSpec b = make_fdtd_program(16, 12, 7);  // more steps, same DAG
  std::get<Grid2D<float>>(b.fields[0].data).fill_random(99);  // other values
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  ProgramSpec c = make_fdtd_program(16, 12, 3);
  c.fields[0].boundary = BoundaryCondition::reflective();
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  ProgramSpec d = make_fdtd_program(16, 12, 3);
  d.nodes[2].taps = taps_2d({Tap{0, 0, 0, 0.5f}, Tap{-1, 0, 0, -0.25f}});
  EXPECT_NE(a.fingerprint(), d.fingerprint());

  ProgramSpec e = make_fdtd_program(20, 12, 3);  // other extents
  EXPECT_NE(a.fingerprint(), e.fingerprint());
}

TEST(ProgramFingerprint, StampedTapsCarryTheReadFieldBoundary) {
  ProgramSpec p = make_fdtd_program(16, 12, 1);
  // Node 0 reads ez, which is dirichlet(0): the planned taps carry it.
  EXPECT_EQ(p.stamped_taps(0).boundary(), BoundaryCondition::dirichlet(0.0f));
  // Node 2 reads hy (clamp).
  EXPECT_TRUE(p.stamped_taps(2).boundary().is_clamp());
}

// ---------------------------------------------------------------------------
// Execution through the engine front door

TEST(ProgramExecution, FdtdMatchesGoldenModelBitExact) {
  auto program = std::make_shared<const ProgramSpec>(make_fdtd_program(33, 21, 4));
  const auto want = reference_run_program(*program);

  StencilEngine engine({.workers = 2});
  JobResult r = engine.run(JobSpec(program));
  EXPECT_EQ(r.program_nodes_executed, 4 * 4);
  EXPECT_EQ(r.program_steps, 4);
  expect_fields_identical(r.fields, want);
  // Named accessor finds fields; unknown names throw.
  EXPECT_EQ(&r.field("ez"), &r.fields[0].second);
  EXPECT_THROW(r.field("nope"), std::out_of_range);
  // Every front/back/work lease went back to the pool.
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
}

TEST(ProgramExecution, DampedWave3DWithMixedBoundaries) {
  // The 3D damped-wave shape from the flagship campaign: u_next is a work
  // field assembled by two ordered writers, then rotated into u/u_prev by
  // identity copy nodes -- and the two live fields carry different
  // boundary conditions.
  const float kC = 0.0625f, kGamma = 0.0625f;
  ProgramSpec p;
  Grid3D<float> u(13, 11, 7);
  u.fill_random(21, -1.0f, 1.0f);
  Grid3D<float> u_prev = u;
  p.fields = {
      FieldSpec{"u_prev", std::move(u_prev), BoundaryCondition::clamp()},
      FieldSpec{"u", std::move(u), BoundaryCondition::reflective()},
      FieldSpec{"u_next", Grid3D<float>(13, 11, 7), BoundaryCondition::clamp(),
                /*work=*/true},
  };
  const AcceleratorConfig cfg = base_config(3, 1);
  const TapSet wave(3, 1,
                    {Tap{0, 0, 0, 2.0f - kGamma - 6.0f * kC},
                     Tap{-1, 0, 0, kC}, Tap{1, 0, 0, kC}, Tap{0, -1, 0, kC},
                     Tap{0, 1, 0, kC}, Tap{0, 0, -1, kC}, Tap{0, 0, 1, kC}});
  const TapSet center(3, 1, {Tap{0, 0, 0, -(1.0f - kGamma)}});
  const TapSet id3(3, 1, {Tap{0, 0, 0, 1.0f}});
  p.nodes = {
      KernelNode{"laplace", wave, cfg, "u", "u_next", CombineOp::assign, 1, {}},
      KernelNode{"damp", center, cfg, "u_prev", "u_next", CombineOp::add, 1,
                 {"laplace"}},
      KernelNode{"rot_prev", id3, cfg, "u", "u_prev", CombineOp::assign, 1, {}},
      KernelNode{"rot_u", id3, cfg, "u_next", "u", CombineOp::assign, 1,
                 {"damp"}},
  };
  p.steps = 3;
  p.validate();

  const auto want = reference_run_program(p);
  StencilEngine engine({.workers = 1});
  JobResult r = engine.run(JobSpec(std::make_shared<const ProgramSpec>(p)));
  expect_fields_identical(r.fields, want);
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
}

TEST(ProgramExecution, FusedAndIdentityNodesOnKernelsStayExact) {
  // Envelope parvec, so every node runs on the specialized kernels: a
  // node fusing 3 iterations over partime 2 (the first pass streams from
  // the field's buffer, the tail pass ping-pongs over scratch), and a
  // 0-iteration node (a copy), on sync and block-parallel.
  for (const Backend backend : {Backend::sync_sim, Backend::block_parallel}) {
    ProgramSpec p = make_fdtd_program(37, 23, 3);
    Telemetry hook;
    for (KernelNode& node : p.nodes) {
      node.config.parvec = 4;
      node.config.partime = 2;
      node.config.telemetry = &hook;
    }
    p.nodes[0].iterations = 3;
    p.nodes[1].iterations = 0;
    p.validate();
    const auto want = reference_run_program(p);
    StencilEngine engine({.workers = 1});
    JobSpec spec(std::make_shared<const ProgramSpec>(std::move(p)));
    spec.backend = backend;
    spec.workers = 2;
    JobResult r = engine.run(std::move(spec));
    expect_fields_identical(r.fields, want);
    EXPECT_GT(hook.metrics().counter("kernels.dispatch_specialized").value(),
              0);
    EXPECT_EQ(hook.metrics().counter("kernels.dispatch_fallback").value(), 0);
    EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
  }
}

TEST(ProgramExecution, ReportsTheBackendItRanOn) {
  auto program =
      std::make_shared<const ProgramSpec>(make_fdtd_program(70, 23, 2));
  StencilEngine engine({.workers = 1});
  JobSpec automatic(program);
  automatic.workers = 1;
  EXPECT_EQ(engine.run(std::move(automatic)).backend, Backend::sync_sim);
  JobSpec forced(program);
  forced.backend = Backend::block_parallel;
  forced.workers = 2;
  EXPECT_EQ(engine.run(std::move(forced)).backend, Backend::block_parallel);
}

TEST(ProgramExecution, NodesTakeNoPerNodeLease) {
  // Every node stores straight into its destination's back buffer: a run
  // leases a front and a back buffer per field, and nothing per node.
  const ProgramSpec p = make_fdtd_program(37, 23, 5);
  PlanCache plans;
  BufferPool pool;
  Telemetry tel;
  ProgramExecutor::Services services;
  services.plans = &plans;
  services.pool = &pool;
  services.telemetry = &tel;
  services.workers = 1;
  ProgramExecutor exec(services);
  const ProgramOutcome out = exec.run(p, nullptr, 0);
  EXPECT_EQ(out.nodes_executed, 4 * 5);
  EXPECT_EQ(pool.acquires(), 2 * std::int64_t(p.fields.size()));
  EXPECT_EQ(pool.outstanding(), 0);
  expect_fields_identical(out.fields, reference_run_program(p));
}

/// A 2D program over fields `u` (clamp), `v` (reflective) and `w`
/// (periodic) on kernel-envelope geometry (parvec 4, partime 2, 3+
/// blocks across x), so windowed nodes run on the specialized kernels --
/// except those reading the periodic field, which take the interpreter.
ProgramSpec store_path_program(std::vector<KernelNode> nodes) {
  ProgramSpec p;
  Grid2D<float> u(75, 23), v(75, 23), w(75, 23);
  u.fill_random(41, -1.0f, 1.0f);
  v.fill_random(42, -1.0f, 1.0f);
  w.fill_random(43, -1.0f, 1.0f);
  p.fields = {
      FieldSpec{"u", std::move(u), BoundaryCondition::clamp()},
      FieldSpec{"v", std::move(v), BoundaryCondition::reflective()},
      FieldSpec{"w", std::move(w), BoundaryCondition::periodic()},
  };
  p.nodes = std::move(nodes);
  p.steps = 3;
  p.validate();
  return p;
}

AcceleratorConfig store_path_config() {
  AcceleratorConfig cfg = base_config(2, 1);
  cfg.parvec = 4;
  cfg.partime = 2;
  return cfg;
}

TEST(ProgramStore, AliasingNodeCopiesItsInputFirst) {
  // `smooth` reads v after `seed_v` wrote it this step and adds into v
  // itself: its input buffer is its destination's back buffer.
  const AcceleratorConfig cfg = store_path_config();
  const TapSet star = StarStencil::make_benchmark(2, 1, 5).to_taps();
  const ProgramSpec p = store_path_program({
      KernelNode{"seed_v", star, cfg, "u", "v", CombineOp::assign, 1, {}},
      KernelNode{"smooth", star, cfg, "v", "v", CombineOp::add, 1,
                 {"seed_v"}},
  });
  expect_every_executor_matches_reference(p, "aliasing add");
}

TEST(ProgramStore, MultiPassAddOntoAFieldWrittenThisStep) {
  // `deep` fuses 3 iterations over partime 2 (a full pass over spare
  // scratch, then a short last pass) and adds onto v, which `seed_v`
  // already wrote this step: prev is the destination buffer itself.
  const AcceleratorConfig cfg = store_path_config();
  const TapSet star = StarStencil::make_benchmark(2, 1, 6).to_taps();
  const TapSet pair = taps_2d({Tap{0, 0, 0, 0.5f}, Tap{1, 0, 0, -0.25f}});
  const ProgramSpec p = store_path_program({
      KernelNode{"seed_v", pair, cfg, "v", "v", CombineOp::assign, 1, {}},
      KernelNode{"deep", star, cfg, "u", "v", CombineOp::add, 3,
                 {"seed_v"}},
  });
  expect_every_executor_matches_reference(p, "multi-pass add");
}

TEST(ProgramStore, PeriodicReadStoresThroughTheInterpreter) {
  const AcceleratorConfig cfg = store_path_config();
  const TapSet star = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const ProgramSpec p = store_path_program({
      KernelNode{"wrap_u", star, cfg, "w", "u", CombineOp::add, 2, {}},
      KernelNode{"wrap_w", star, cfg, "w", "w", CombineOp::assign, 1, {}},
      KernelNode{"more_w", star, cfg, "u", "w", CombineOp::add, 1,
                 {"wrap_u", "wrap_w"}},
  });
  expect_every_executor_matches_reference(p, "periodic read");
}

TEST(ProgramStore, PointwiseNodesAreExactMaps) {
  // One center tap (or no iteration at all) on every store op, boundary
  // and fused depth, over values that stress the arithmetic: signed
  // zeros, subnormals, infinities (inf - inf makes NaNs downstream).
  const AcceleratorConfig cfg = store_path_config();
  const float sub = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {-0.0f, 0.0f, sub, -sub, 3 * sub, inf, -inf,
                            1e-38f, -2.5f};
  for (const int iterations : {0, 1, 3}) {
    for (const CombineOp op : {CombineOp::assign, CombineOp::add}) {
      for (const BoundaryCondition& bc :
           {BoundaryCondition::clamp(), BoundaryCondition::periodic()}) {
        // `again` reads and adds onto the buffer `scale` just assigned
        // (input, prev and destination all one buffer); `probe` stores
        // onto w's front with the op under test.
        ProgramSpec p = store_path_program({
            KernelNode{"scale", taps_2d({Tap{0, 0, 0, -0.5f}}), cfg, "u",
                       "v", CombineOp::assign, iterations, {}},
            KernelNode{"again", taps_2d({Tap{0, 0, 0, 0.75f}}), cfg, "v",
                       "v", CombineOp::add, iterations, {"scale"}},
            KernelNode{"probe", taps_2d({Tap{0, 0, 0, 2.0f}}), cfg, "u",
                       "w", op, iterations, {}},
        });
        for (FieldSpec& f : p.fields) {
          f.boundary = bc;
          auto& g = std::get<Grid2D<float>>(f.data);
          for (std::size_t i = 0; i < std::size(specials); ++i) {
            g.data()[i * 7] = specials[i];
          }
        }
        expect_every_executor_matches_reference(
            p, "pointwise x" + std::to_string(iterations) + " " +
                   (op == CombineOp::add ? "add " : "assign ") +
                   bc.describe());
      }
    }
  }
}

TEST(ProgramExecution, DeadlineMidRunLeavesLeasesBalanced) {
  StencilEngine engine({.workers = 1});
  JobSpec spec(
      std::make_shared<const ProgramSpec>(make_fdtd_program(256, 192, 5000)));
  spec.deadline = std::chrono::milliseconds(30);
  JobHandle h = engine.submit(std::move(spec));
  ASSERT_TRUE(h.wait_for(std::chrono::milliseconds(5000)));
  EXPECT_EQ(h.status(), JobStatus::deadline_exceeded);
  engine.wait_idle();
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
}

TEST(ProgramExecution, SingleStencilAdapterMatchesDirectRunBitExact) {
  const TapSet taps = StarStencil::make_benchmark(2, 2, 7).to_taps();
  const AcceleratorConfig cfg = base_config(2, 2);
  Grid2D<float> input(48, 30);
  input.fill_random(31, -1.0f, 1.0f);
  const int iters = 5;

  StencilEngine engine({.workers = 1});
  JobResult direct =
      engine.run(JobSpec(taps, cfg, Grid2D<float>(input), iters));

  auto program = std::make_shared<const ProgramSpec>(
      single_stencil_program(taps, cfg, Grid2D<float>(input), iters));
  JobResult via_program = engine.run(JobSpec(program));
  EXPECT_TRUE(compare_exact(std::get<Grid2D<float>>(via_program.field("u")),
                            direct.grid2d())
                  .identical());
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
}

TEST(ProgramExecution, ProgramThroughClusterBitExactAndZeroLeakedLeases) {
  auto program =
      std::make_shared<const ProgramSpec>(make_fdtd_program(25, 17, 3));
  const auto want = reference_run_program(*program);

  EngineCluster cluster({.shards = 2});
  // Repeated submissions of one program route to one shard (fingerprint
  // affinity) and all match the golden model.
  const int shard0 = cluster.route_shard(JobSpec(program));
  for (int i = 0; i < 3; ++i) {
    JobSpec spec(program);
    spec.tenant = "prog";
    EXPECT_EQ(cluster.route_shard(spec), shard0);
    JobHandle h = cluster.submit(std::move(spec));
    JobResult& r = h.wait();
    expect_fields_identical(r.fields, want);
  }
  cluster.wait_idle();
  for (int k = 0; k < cluster.shards(); ++k) {
    EXPECT_EQ(cluster.shard(k).buffer_pool().outstanding(), 0)
        << "shard " << k << " leaked leases";
  }
}

TEST(ProgramExecution, ChunkedDeliveryStreamsFieldsInDeclarationOrder) {
  auto program =
      std::make_shared<const ProgramSpec>(make_fdtd_program(19, 9, 2));
  const auto want = reference_run_program(*program);

  struct Seen {
    std::string field;
    std::int64_t start, count, index;
    bool last;
  };
  std::vector<Seen> chunks;
  JobSpec spec(program);
  spec.chunk_values = 19 * 3;  // 3 rows per band: several bands per field
  spec.sink_only = true;
  spec.sink = [&](const ResultChunk& c) {
    chunks.push_back({c.field, c.start, c.count, c.index, c.last});
  };
  StencilEngine engine({.workers = 1});
  JobResult r = engine.run(std::move(spec));
  EXPECT_TRUE(r.fields.empty());  // sink_only drops the payload

  ASSERT_FALSE(chunks.empty());
  EXPECT_EQ(r.chunks_delivered, std::int64_t(chunks.size()));
  // Fields arrive in declaration order, bands cover each exactly once,
  // the index is continuous across fields, and only the final band of
  // the final field is marked last.
  std::vector<std::string> field_order;
  std::int64_t next_row = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const Seen& c = chunks[i];
    EXPECT_EQ(c.index, std::int64_t(i));
    if (field_order.empty() || field_order.back() != c.field) {
      field_order.push_back(c.field);
      next_row = 0;
    }
    EXPECT_EQ(c.start, next_row);
    next_row += c.count;
    EXPECT_EQ(c.last, i + 1 == chunks.size());
  }
  const std::vector<std::string> want_order = {"ez", "hx", "hy"};
  EXPECT_EQ(field_order, want_order);
  EXPECT_EQ(next_row, 9);  // the last field was fully covered
}

// ---------------------------------------------------------------------------
// Field ownership and the breaker: every job path runs through one executor

/// One clamp field `u` and one node advancing it with assign over two
/// fused iterations at partime 1 (two passes): the node owns `u`.
ProgramSpec owner_program(int steps) {
  ProgramSpec p;
  Grid2D<float> u(140, 23);
  u.fill_random(51, -1.0f, 1.0f);
  p.fields = {FieldSpec{"u", std::move(u), BoundaryCondition::clamp()}};
  p.nodes = {KernelNode{"smooth",
                        StarStencil::make_benchmark(2, 1, 8).to_taps(),
                        base_config(2, 1), "u", "u", CombineOp::assign, 2,
                        {}}};
  p.steps = steps;
  p.validate();
  return p;
}

TEST(ProgramOwnership, OwningNodeRunsInPlaceWithoutChainSpares) {
  // In place, the two passes ping-pong between the field's front and back
  // buffers; in -> out they would lease a chain spare per node run.
  const ProgramSpec p = owner_program(3);
  const auto want = reference_run_program(p);
  struct Run {
    Backend backend;
    int workers;
  };
  for (const Run run :
       {Run{Backend::sync_sim, 1}, Run{Backend::block_parallel, 2}}) {
    PlanCache plans;
    BufferPool pool;
    Telemetry tel;
    ProgramExecutor::Services services;
    services.plans = &plans;
    services.pool = &pool;
    services.telemetry = &tel;
    services.backend = run.backend;
    services.workers = run.workers;
    ProgramExecutor exec(services);
    const ProgramOutcome out = exec.run(p, nullptr, 0);
    const std::string label = backend_name(run.backend);
    expect_fields_bitwise(out.fields, want, label);
    EXPECT_EQ(out.backend, run.backend) << label;
    // The front and back leases, plus one lane lease per block-parallel
    // worker per step (the 140-wide field has 5 blocks).
    const std::int64_t lanes =
        run.backend == Backend::block_parallel ? run.workers * p.steps : 0;
    EXPECT_EQ(pool.acquires(), 2 + lanes) << label;
    EXPECT_EQ(pool.outstanding(), 0) << label;
  }
}

TEST(ProgramOwnership, AnotherReaderKeepsTheNodeOffItsFieldsFront) {
  // `peek`, declared after `smooth` and without an `after` edge, reads
  // u's step-start value: `smooth` must not advance u's front in place.
  ProgramSpec p = owner_program(3);
  p.fields.push_back(
      FieldSpec{"v", Grid2D<float>(140, 23), BoundaryCondition::clamp()});
  p.nodes.push_back(KernelNode{"peek",
                               StarStencil::make_benchmark(2, 1, 9).to_taps(),
                               base_config(2, 1), "u", "v",
                               CombineOp::assign, 1, {}});
  p.validate();
  expect_every_executor_matches_reference(p, "reader of an owner's field");
}

/// An engine whose block_parallel breaker trips after two consecutive
/// failures and cools down for 50 ms.
EngineOptions breaker_engine_options() {
  return {.workers = 1,
          .breaker_threshold = 2,
          .breaker_cooldown = std::chrono::milliseconds(50)};
}

/// Trips `engine`'s block_parallel breaker with two consecutive failures:
/// explicit backend, a hang that never ends, a watchdog to unwind it.
void trip_block_parallel(StencilEngine& engine) {
  const TapSet star = StarStencil::make_benchmark(2, 1, 5).to_taps();
  for (int i = 0; i < 2; ++i) {
    FaultInjector fi(FaultPlan::parse("seed=" + std::to_string(i + 1) +
                                      ",kernel_hang:p=1:n=inf"));
    Grid2D<float> g(96, 16);
    g.fill_random(5);
    JobSpec spec(star, base_config(2, 1), std::move(g), 2);
    spec.backend = Backend::block_parallel;
    spec.workers = 2;
    spec.injector = &fi;
    spec.watchdog_deadline = std::chrono::milliseconds(40);
    JobHandle h = engine.submit(std::move(spec));
    EXPECT_THROW((void)h.wait(), PassAbortedError);
    engine.wait_idle();  // the injector must outlive the execution
  }
}

TEST(ProgramBreaker, ProgramNodesRerouteWhileOpenAndAProgramClosesIt) {
  StencilEngine engine(breaker_engine_options());
  trip_block_parallel(engine);
  ASSERT_EQ(engine.breaker_state(Backend::block_parallel), BreakerState::open);

  // An FDTD job whose nodes route to block_parallel (2 workers, 5 blocks
  // per field) runs every node on the sync_sim fallback, bit-exact.
  const auto program =
      std::make_shared<const ProgramSpec>(make_fdtd_program(140, 23, 3));
  const auto want = reference_run_program(*program);
  JobSpec rerouted(program);
  rerouted.workers = 2;
  const JobResult r = engine.run(std::move(rerouted));
  EXPECT_TRUE(r.rerouted);
  EXPECT_EQ(r.backend, Backend::sync_sim);
  expect_fields_bitwise(r.fields, want, "rerouted fdtd");
  EXPECT_EQ(engine.stats().breaker_reroutes, 4);  // one per windowed node

  // After the cooldown a program job is the half-open probe: its first
  // node runs on block_parallel, and its success closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  JobSpec probe(program);
  probe.workers = 2;
  const JobResult pr = engine.run(std::move(probe));
  EXPECT_EQ(pr.backend, Backend::block_parallel);
  expect_fields_bitwise(pr.fields, want, "probe fdtd");
  EXPECT_EQ(engine.breaker_state(Backend::block_parallel),
            BreakerState::closed);
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
}

TEST(ProgramBreaker, CancelledProbeHandsBackItsSlot) {
  StencilEngine engine(breaker_engine_options());
  trip_block_parallel(engine);
  ASSERT_EQ(engine.breaker_state(Backend::block_parallel), BreakerState::open);

  // After the cooldown a long FDTD job is the half-open probe. Once the
  // breaker shows the probe handed out, the job is running its nodes:
  // cancel it there. A cancellation charges no health either way.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  JobSpec long_probe(
      std::make_shared<const ProgramSpec>(make_fdtd_program(512, 512, 2000)));
  long_probe.workers = 2;
  JobHandle h = engine.submit(std::move(long_probe));
  while (engine.breaker_state(Backend::block_parallel) !=
             BreakerState::half_open &&
         !h.finished()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  h.cancel();
  ASSERT_EQ(h.wait_or_cancel(std::chrono::milliseconds(0)),
            JobStatus::cancelled);
  EXPECT_EQ(engine.breaker_state(Backend::block_parallel),
            BreakerState::half_open);

  // The slot came back: the next job, one node on block_parallel (5
  // blocks, 2 workers), is the probe. It runs there without rerouting and
  // closes the breaker.
  const auto program = std::make_shared<const ProgramSpec>(owner_program(3));
  JobSpec next(program);
  next.workers = 2;
  const JobResult r = engine.run(std::move(next));
  EXPECT_FALSE(r.rerouted);
  EXPECT_EQ(r.backend, Backend::block_parallel);
  expect_fields_bitwise(r.fields, reference_run_program(*program),
                        "probe after a cancelled probe");
  EXPECT_EQ(engine.breaker_state(Backend::block_parallel),
            BreakerState::closed);
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
}

// ---------------------------------------------------------------------------
// Tuner integration (satellite: per-node tuning reuse)

TEST(ProgramTuning, OneTunerCacheHitPerNodeAfterFirstRun) {
  EngineOptions eo;
  eo.workers = 1;
  eo.autotune = AutotuneMode::search;
  eo.tuning_cache_path = "";  // in-memory only
  eo.autotune_probe_cells = 4 * 1024;
  StencilEngine engine(eo);

  // Four nodes with four distinct tap sets: four distinct plans, so the
  // first run probes each once and every later run hits the tuner cache
  // exactly once per node -- independent of the step count, because the
  // executor resolves plans once per run, not once per step.
  auto program =
      std::make_shared<const ProgramSpec>(make_fdtd_program(33, 21, 5));
  const auto want = reference_run_program(*program);

  JobResult first = engine.run(JobSpec(program));
  expect_fields_identical(first.fields, want);
  const EngineStats after_first = engine.stats();
  EXPECT_EQ(after_first.tuner_cache_misses, 4);  // one probe per node
  EXPECT_EQ(after_first.tuner_search_runs, 4);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(first.plan_tuned);

  JobResult second = engine.run(JobSpec(program));
  expect_fields_identical(second.fields, want);
  const EngineStats after_second = engine.stats();
  EXPECT_EQ(after_second.tuner_cache_misses, 4);  // no new probes
  EXPECT_EQ(after_second.tuner_cache_hits - after_first.tuner_cache_hits, 4);
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
}

// ---------------------------------------------------------------------------
// Observability

TEST(ProgramMetrics, NodeAndStepCountersTick) {
  StencilEngine engine({.workers = 1});
  auto program =
      std::make_shared<const ProgramSpec>(make_fdtd_program(19, 9, 3));
  JobResult r = engine.run(JobSpec(program));
  MetricsRegistry& m = engine.telemetry().metrics();
  EXPECT_EQ(m.counter("engine.program.nodes_scheduled").value(), 4 * 3);
  EXPECT_EQ(m.counter("engine.program.steps").value(), 3);
  // Node and job spans are recorded for hooked programs only.
  EXPECT_EQ(engine.telemetry().tracer().event_count(), 0u);
  Telemetry hook;
  ProgramSpec traced = make_fdtd_program(19, 9, 3);
  for (KernelNode& node : traced.nodes) node.config.telemetry = &hook;
  (void)engine.run(
      JobSpec(std::make_shared<const ProgramSpec>(std::move(traced))));
  engine.wait_idle();  // the job span closes after the result is delivered
  const std::vector<std::string> names =
      engine.telemetry().tracer().event_names();
  EXPECT_EQ(std::count(names.begin(), names.end(),
                       "engine.program.node:" + program->nodes[0].name),
            3);
  EXPECT_EQ(std::count(names.begin(), names.end(), "engine.job"), 1);
}

// ---------------------------------------------------------------------------
// Front-door validation of program jobs

TEST(ProgramJobSpec, RejectsUnsupportedKnobs) {
  auto program =
      std::make_shared<const ProgramSpec>(make_fdtd_program(16, 12, 1));
  {
    JobSpec spec(program);
    spec.backend = ExecutionBackend::concurrent;
    EXPECT_THROW(validate_job_spec(spec), ConfigError);
  }
  {
    JobSpec spec(program);
    spec.boards = 2;
    EXPECT_THROW(validate_job_spec(spec), ConfigError);
  }
  {
    // Invalid programs are rejected at submission, not at execution.
    ProgramSpec bad = make_fdtd_program(16, 12, 1);
    bad.nodes[0].after = {"ez_y"};
    JobSpec spec(std::make_shared<const ProgramSpec>(std::move(bad)));
    EXPECT_THROW(validate_job_spec(spec), ConfigError);
  }
}

}  // namespace
}  // namespace fpga_stencil
