// The three workloads, generated from the seed: inputs, cluster shape,
// and the golden results every job is compared against. README.md records
// why each workload exists and which metric each layer should move.
#include <cstring>
#include <stdexcept>
#include <variant>

#include "bench.hpp"
#include "common/rng.hpp"
#include "program/program_reference.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"
#include "stencil/star_stencil.hpp"

namespace perfbench {
namespace {

GridVariant reference_result(const TapSet& taps, GridVariant grid,
                             int iterations) {
  std::visit([&](auto& g) { reference_run(taps, g, iterations); }, grid);
  return grid;
}

ClusterOptions two_by_two() {
  ClusterOptions c;
  c.shards = 2;
  c.engine.workers = 2;
  return c;
}

JobKind single_kind(std::string name, TapSet taps, AcceleratorConfig cfg,
                    GridVariant input, int iterations, bool golden) {
  JobKind k;
  k.name = std::move(name);
  k.taps = std::move(taps);
  k.config = cfg;
  k.iterations = iterations;
  k.cell_updates = double(grid_variant_cells(input)) * iterations;
  if (golden) {
    k.expected = reference_result(k.taps, input, iterations);
    k.has_expected = true;
  }
  k.input = std::move(input);
  return k;
}

// ---- paper3d -------------------------------------------------------------

/// The paper's headline case (PR 7/9 acceptance config): 3D star, radius
/// 4, parvec 16, partime 4, 144x144 blocks, one pass of 4 time steps.
AcceleratorConfig paper3d_config() {
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = 4;
  cfg.bsize_x = 144;
  cfg.bsize_y = 144;
  cfg.parvec = 16;
  cfg.partime = 4;
  cfg.validate();
  return cfg;
}

Workload make_paper3d(const Options& opt) {
  Workload w;
  w.name = "paper3d";
  w.cluster = two_by_two();
  w.warmup_rounds = 0;  // the set-up job already warms the pool and pages
  w.ladder_reps = 1;
  const TapSet taps = StarStencil::make_benchmark(3, 4, opt.seed).to_taps();
  const std::int64_t n = opt.smoke ? 64 : 512;
  Grid3D<float> grid(n, opt.smoke ? 48 : n, opt.smoke ? 40 : n);
  // Coefficients sum to 1, so values stay in [1, 2): no denormals however
  // many jobs run.
  grid.fill_random(opt.seed ^ 0x3d, 1.0f, 2.0f);
  w.kinds.push_back(single_kind("paper3d", taps, paper3d_config(),
                                std::move(grid), 4, opt.smoke));
  if (opt.smoke) {
    w.exactness_mode = "every job vs reference_run (smoke grid)";
    return w;
  }
  // The naive model costs tens of seconds at 512^3: every epoch checks a
  // reduced-extent job that still takes the block-parallel path (3x3
  // blocks, ragged tails), and the traced run checks the full grid.
  Grid3D<float> small(320, 300, 24);
  small.fill_random(opt.seed ^ 0x5a, 1.0f, 2.0f);
  w.check_kinds.push_back(single_kind("paper3d_reduced_320x300x24", taps,
                                      paper3d_config(), std::move(small), 4,
                                      true));
  w.exactness_mode =
      "every job vs the first warm-up result; a 320x300x24 job vs "
      "reference_run every epoch; the full grid vs reference_run in the "
      "traced run";
  return w;
}

// ---- program -------------------------------------------------------------

/// 2D FDTD-style E/H update: ez has dirichlet(0) walls, hx/hy clamp; the
/// ez halves read the H fields written earlier in the same step.
ProgramSpec fdtd2d(std::int64_t nx, std::int64_t ny, int steps,
                   std::uint64_t seed) {
  ProgramSpec p;
  Grid2D<float> ez(nx, ny), hx(nx, ny), hy(nx, ny);
  ez.fill_random(seed + 1, -1.0f, 1.0f);
  hx.fill_random(seed + 2, -0.5f, 0.5f);
  hy.fill_random(seed + 3, -0.5f, 0.5f);
  p.fields = {
      FieldSpec{"ez", std::move(ez), BoundaryCondition::dirichlet(0.0f)},
      FieldSpec{"hx", std::move(hx), BoundaryCondition::clamp()},
      FieldSpec{"hy", std::move(hy), BoundaryCondition::clamp()},
  };
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = 1;
  cfg.parvec = 4;
  cfg.partime = 1;
  cfg.bsize_x = 64;
  const auto pair = [](Tap a, Tap b) { return TapSet(2, 1, {a, b}); };
  p.nodes = {
      KernelNode{"hx_up", pair({0, 0, 0, -0.5f}, {0, 1, 0, 0.5f}), cfg, "ez",
                 "hx", CombineOp::add, 1, {}},
      KernelNode{"hy_up", pair({0, 0, 0, 0.5f}, {1, 0, 0, -0.5f}), cfg, "ez",
                 "hy", CombineOp::add, 1, {}},
      KernelNode{"ez_x", pair({0, 0, 0, 0.5f}, {-1, 0, 0, -0.5f}), cfg, "hy",
                 "ez", CombineOp::add, 1, {"hy_up"}},
      KernelNode{"ez_y", pair({0, 0, 0, -0.5f}, {0, -1, 0, 0.5f}), cfg, "hx",
                 "ez", CombineOp::add, 1, {"hx_up", "ez_x"}},
  };
  p.steps = steps;
  p.validate();
  return p;
}

/// 3D damped wave equation on reflective walls, leapfrogged through a
/// work field assembled by two ordered writers.
ProgramSpec wave3d(std::int64_t nx, std::int64_t ny, std::int64_t nz,
                   int steps, std::uint64_t seed) {
  const float c = 0.0625f, gamma = 0.0625f;
  ProgramSpec p;
  Grid3D<float> u(nx, ny, nz);
  u.fill_random(seed + 4, -1.0f, 1.0f);
  Grid3D<float> u_prev = u;
  p.fields = {
      FieldSpec{"u_prev", std::move(u_prev), BoundaryCondition::clamp()},
      FieldSpec{"u", std::move(u), BoundaryCondition::reflective()},
      FieldSpec{"u_next", Grid3D<float>(nx, ny, nz),
                BoundaryCondition::clamp(), /*work=*/true},
  };
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = 1;
  cfg.parvec = 4;
  cfg.partime = 1;
  cfg.bsize_x = 32;
  cfg.bsize_y = 32;
  const TapSet lap(3, 1,
                   {Tap{0, 0, 0, 2.0f - gamma - 6.0f * c}, Tap{-1, 0, 0, c},
                    Tap{1, 0, 0, c}, Tap{0, -1, 0, c}, Tap{0, 1, 0, c},
                    Tap{0, 0, -1, c}, Tap{0, 0, 1, c}});
  const TapSet damp(3, 1, {Tap{0, 0, 0, -(1.0f - gamma)}});
  const TapSet identity(3, 1, {Tap{0, 0, 0, 1.0f}});
  p.nodes = {
      KernelNode{"laplace", lap, cfg, "u", "u_next", CombineOp::assign, 1, {}},
      KernelNode{"damp", damp, cfg, "u_prev", "u_next", CombineOp::add, 1,
                 {"laplace"}},
      KernelNode{"rot_prev", identity, cfg, "u", "u_prev", CombineOp::assign,
                 1, {}},
      KernelNode{"rot_u", identity, cfg, "u_next", "u", CombineOp::assign, 1,
                 {"damp"}},
  };
  p.steps = steps;
  p.validate();
  return p;
}

JobKind program_kind(std::string name, ProgramSpec spec, Telemetry* hook,
                     int group) {
  JobKind k;
  k.name = std::move(name);
  k.latency_group = group;
  for (const KernelNode& node : spec.nodes) {
    const FieldSpec* in = spec.find_field(node.reads);
    k.cell_updates += double(grid_variant_cells(in->data)) * node.iterations;
  }
  k.cell_updates *= spec.steps;
  k.expected_fields = reference_run_program(spec);
  k.has_expected = true;
  ProgramSpec traced = spec;
  for (KernelNode& node : traced.nodes) node.config.telemetry = hook;
  k.program = std::make_shared<const ProgramSpec>(std::move(spec));
  k.traced_program = std::make_shared<const ProgramSpec>(std::move(traced));
  return k;
}

Workload make_program(const Options& opt, Telemetry* hook) {
  Workload w;
  w.name = "program";
  w.cluster = two_by_two();
  w.pick = Workload::Pick::alternate;
  // One thread per job: each node's block-parallel pass would spawn and
  // barrier-sync a fresh pool 192 times per program pair, and on a shared
  // 4-vCPU host the stolen time at those barriers swung throughput by
  // +-35% between identical runs. Nodes then route to sync_sim.
  w.block_workers = 1;
  w.epochs = 2;
  w.ladder_reps = 1;
  const bool s = opt.smoke;
  w.kinds.push_back(program_kind(
      "fdtd2d", fdtd2d(s ? 96 : 1024, s ? 72 : 768, s ? 4 : 32, opt.seed),
      hook, 0));
  w.kinds.push_back(program_kind(
      "wave3d", wave3d(s ? 24 : 96, s ? 24 : 96, s ? 12 : 48, s ? 4 : 16,
                       opt.seed),
      hook, 1));
  w.exactness_mode = "every job, every field vs reference_run_program";
  return w;
}

// ---- serve ---------------------------------------------------------------

/// 16 stencil kinds (star/box x 2D/3D x radius 1-2 x clamp/periodic) x
/// partime {1, 2} x 3 coefficient draws = 96 distinct plans: ~48 per
/// shard against a 32-entry PlanCache, so plan builds stay a steady share.
Workload make_serve(const Options& opt) {
  Workload w;
  w.name = "serve";
  w.cluster = two_by_two();
  w.clients = 4;
  w.pick = Workload::Pick::uniform;
  w.epochs = 15;
  w.ladder_reps = 5;
  SplitMix64 rng(opt.seed);
  for (const bool box : {false, true}) {
    for (const int dims : {2, 3}) {
      for (const int radius : {1, 2}) {
        for (const bool periodic : {false, true}) {
          for (const int partime : {1, 2}) {
            for (int draw = 0; draw < 3; ++draw) {
              const std::uint64_t cseed = rng.next_u64();
              TapSet taps =
                  box ? make_box_stencil(dims, radius, cseed)
                      : StarStencil::make_benchmark(dims, radius, cseed)
                            .to_taps();
              if (periodic) taps = taps.with_boundary(BoundaryCondition::periodic());
              AcceleratorConfig cfg;
              cfg.dims = dims;
              cfg.radius = radius;
              cfg.parvec = 4;
              cfg.partime = partime;
              cfg.bsize_x = dims == 2 ? 64 : 24;  // 3D: one block
              cfg.bsize_y = dims == 2 ? 1 : 24;
              cfg.validate();
              GridVariant grid = Grid2D<float>(64, 48);
              if (dims == 3) grid = Grid3D<float>(16, 16, 12);
              std::visit([&](auto& g) { g.fill_random(rng.next_u64(), 0.0f, 1.0f); },
                         grid);
              const std::string name =
                  std::string(box ? "box" : "star") + std::to_string(dims) +
                  "d_r" + std::to_string(radius) +
                  (periodic ? "_periodic" : "_clamp") + "_t" +
                  std::to_string(partime) + "_c" + std::to_string(draw);
              w.kinds.push_back(
                  single_kind(name, taps, cfg, std::move(grid), 1, true));
            }
          }
        }
      }
    }
  }
  w.exactness_mode = "every job vs reference_run";
  return w;
}

}  // namespace

Workload make_workload(const Options& opt, Telemetry* hook) {
  Workload w;
  if (opt.workload == "paper3d") {
    w = make_paper3d(opt);
  } else if (opt.workload == "program") {
    w = make_program(opt, hook);
  } else if (opt.workload == "serve") {
    w = make_serve(opt);
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
  w.seed = opt.seed;
  return w;
}

bool full_golden_matches(const JobKind& kind, const GridVariant& result) {
  return grids_equal(reference_result(kind.taps, kind.input, kind.iterations),
                     result);
}

JobSpec make_spec(const JobKind& kind, const Workload& w, Telemetry* hook) {
  if (kind.is_program()) {
    JobSpec spec(hook ? kind.traced_program : kind.program);
    spec.workers = w.block_workers;
    spec.label = kind.name;
    return spec;
  }
  AcceleratorConfig cfg = kind.config;
  cfg.telemetry = hook;
  GridVariant grid = kind.input;
  JobSpec spec = std::holds_alternative<Grid3D<float>>(grid)
                     ? JobSpec(kind.taps, cfg,
                               std::move(std::get<Grid3D<float>>(grid)),
                               kind.iterations)
                     : JobSpec(kind.taps, cfg,
                               std::move(std::get<Grid2D<float>>(grid)),
                               kind.iterations);
  spec.workers = w.block_workers;
  spec.label = kind.name;
  return spec;
}

bool grids_equal(const GridVariant& a, const GridVariant& b) {
  if (a.index() != b.index() || grid_variant_nx(a) != grid_variant_nx(b) ||
      grid_variant_ny(a) != grid_variant_ny(b) ||
      grid_variant_nz(a) != grid_variant_nz(b)) {
    return false;
  }
  return std::memcmp(grid_variant_data(a), grid_variant_data(b),
                     std::size_t(grid_variant_cells(a)) * sizeof(float)) == 0;
}

bool result_matches(const JobKind& kind, const JobResult& r) {
  if (!kind.has_expected) return false;
  if (!kind.is_program()) return grids_equal(r.grid, kind.expected);
  if (r.fields.size() != kind.expected_fields.size()) return false;
  for (std::size_t i = 0; i < r.fields.size(); ++i) {
    if (r.fields[i].first != kind.expected_fields[i].first ||
        !grids_equal(r.fields[i].second, kind.expected_fields[i].second)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
