// Single-thread throughput of the specialized kernel library vs the
// scalar interpreter, per envelope point, plus the PR 7 acceptance
// workload (3D star, radius 4, partime 4), a block-parallel scaling
// rerun on top of the specialized kernels, and two narrow-block passes
// (an FDTD and a wave3d program node's geometry) handed to the kernel as
// one call per block and as one run of every block.
//
// Every measured pair is also an exactness check: the specialized run
// must match the interpreter bit-for-bit (and the block-parallel runs
// must match the sync run, the run call the one-block calls), so the
// benchmark doubles as a self-test and exits nonzero on any mismatch or
// missing dispatch; speeds are printed, not gated. Default sizes are
// CI-small; --full selects the acceptance sizes (512^3). Host throughput
// is recorded by perfbench (BENCHMARK.json), not here.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid_compare.hpp"
#include "kernels/kernel_registry.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

using namespace fpga_stencil;

namespace {

struct Options {
  std::int64_t n2d = 64;       // envelope 2D grid: n2d x (n2d * 5 / 8)
  std::int64_t n3d = 28;       // envelope 3D grid: n3d x (n3d-4) x (n3d/2)
  std::int64_t accept_n = 64;  // acceptance grid: accept_n^3
  int iters = 2;               // envelope iterations (partime 2)
  std::vector<int> workers = {1, 2, 4};
};

struct PointResult {
  std::string name;
  int dims = 2;
  std::int64_t nx = 0, ny = 0, nz = 1;
  double generic_mcells = 0.0;
  double specialized_mcells = 0.0;
  bool exact = false;
  bool dispatched = false;
  [[nodiscard]] double speedup() const {
    return generic_mcells > 0.0 ? specialized_mcells / generic_mcells : 0.0;
  }
};

TapSet envelope_taps(StencilShape shape, int dims, int radius) {
  if (shape == StencilShape::kStar) {
    return StarStencil::make_benchmark(dims, radius, 99).to_taps();
  }
  return make_box_stencil(dims, radius, 99);
}

AcceleratorConfig envelope_config(int dims, int radius, int parvec,
                                  int partime = 2) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = parvec;
  cfg.partime = partime;
  cfg.bsize_x = 32;
  cfg.bsize_y = dims == 3 ? 2 * partime * radius + 5 : 1;
  return cfg;
}

/// The PR 7 acceptance workload: 3D star, radius 4, partime 4, parvec 16
/// (paper-sized knobs; bsize 144 is the smallest multiple of 16 that
/// leaves a healthy csize at halo 16).
AcceleratorConfig acceptance_config() {
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = 4;
  cfg.parvec = 16;
  cfg.partime = 4;
  cfg.bsize_x = 144;
  cfg.bsize_y = 144;
  return cfg;
}

template <typename GridT>
double time_run(const TapSet& taps, AcceleratorConfig cfg, GridT& grid,
                int iters, bool specialized) {
  cfg.use_specialized_kernels = specialized;
  StencilAccelerator accel(taps, cfg);
  const Stopwatch clock;
  (void)accel.run(grid, iters);
  return double(clock.nanoseconds()) / 1e9;
}

double mcells_per_s(std::int64_t cells, int iters, double seconds) {
  return seconds > 0.0 ? double(cells) * iters / seconds / 1e6 : 0.0;
}

template <typename GridT>
PointResult measure_point(StencilShape shape, int radius, int parvec,
                          GridT& work, const GridT& init, int iters) {
  constexpr int dims = std::is_same_v<GridT, Grid3D<float>> ? 3 : 2;
  const TapSet taps = envelope_taps(shape, dims, radius);
  const AcceleratorConfig cfg = envelope_config(dims, radius, parvec);

  PointResult r;
  r.dims = dims;
  r.nx = init.nx();
  r.ny = init.ny();
  if constexpr (dims == 3) r.nz = init.nz();
  const SpecializedKernel* k = KernelRegistry::instance().find(taps, cfg);
  r.dispatched = k != nullptr;
  r.name = k ? k->name
             : std::string(stencil_shape_name(shape)) + "_" +
                   std::to_string(dims) + "d_r" + std::to_string(radius) +
                   "_v" + std::to_string(parvec);

  const std::int64_t cells = init.nx() * init.ny() * r.nz;
  work = init;
  const double t_gen = time_run(taps, cfg, work, iters, /*specialized=*/false);
  GridT reference = std::move(work);
  work = init;
  const double t_spec = time_run(taps, cfg, work, iters, /*specialized=*/true);
  r.generic_mcells = mcells_per_s(cells, iters, t_gen);
  r.specialized_mcells = mcells_per_s(cells, iters, t_spec);
  r.exact = compare_exact(work, reference).identical();
  return r;
}

/// One pass of `taps` (one step) from `in` on `requested`'s plan, as one
/// kernel call per block into `by_block` and as one run call over every
/// block into `by_run`, alternating in this process. Prints the best of
/// 15 each for `what`; returns false unless both outputs are
/// bit-identical.
template <typename GridT>
bool measure_run_vs_blocks(const std::string& what, const TapSet& taps,
                           const AcceleratorConfig& requested,
                           const GridT& in, const StoreOp& store) {
  constexpr bool k3d = std::is_same_v<GridT, Grid3D<float>>;
  const AcceleratorConfig cfg = resolve_stage_lag(taps, requested);
  BlockingPlan plan;
  std::ostringstream grid;
  grid << in.nx() << "x" << in.ny();
  if constexpr (k3d) {
    plan = make_blocking_plan(cfg, in.nx(), in.ny(), in.nz());
    grid << "x" << in.nz();
  } else {
    plan = make_blocking_plan(cfg, in.nx(), in.ny());
  }
  const SpecializedKernel* k = KernelRegistry::instance().find(taps, cfg);
  if (k == nullptr) return false;
  std::vector<float> coeffs;
  for (const Tap& t : taps.taps()) coeffs.push_back(t.coeff);
  GridT by_block = in, by_run = in;
  RunStats stats;
  const auto call = [&](std::int64_t first, std::int64_t count, GridT& out) {
    if constexpr (k3d) {
      k->run_3d(plan, first, count, in, out, 1, coeffs.data(), stats, nullptr,
                taps.boundary(), store);
    } else {
      k->run_2d(plan, first, count, in, out, 1, coeffs.data(), stats, nullptr,
                taps.boundary(), store);
    }
  };

  const auto cells = std::int64_t(in.size());
  double best_block = 0.0, best_run = 0.0;
  for (int rep = 0; rep < 15; ++rep) {
    const Stopwatch block_clock;
    for (std::int64_t b = 0; b < plan.total_blocks(); ++b) call(b, 1, by_block);
    const double t_block = double(block_clock.nanoseconds()) / 1e9;
    const Stopwatch run_clock;
    call(0, plan.total_blocks(), by_run);
    const double t_run = double(run_clock.nanoseconds()) / 1e9;
    best_block = std::max(best_block, mcells_per_s(cells, 1, t_block));
    best_run = std::max(best_run, mcells_per_s(cells, 1, t_run));
  }
  const bool exact = compare_exact(by_run, by_block).identical();
  std::cout << what << " (" << grid.str() << ", " << k->name << ", "
            << taps.boundary().describe() << ", "
            << (store.is_add() ? "add" : "assign") << ", "
            << plan.total_blocks() << " blocks, best of 15): one-block calls "
            << best_block << " Mcell/s, one run " << best_run << " Mcell/s, x"
            << (best_block > 0.0 ? best_run / best_block : 0.0) << ", exact "
            << (exact ? "yes" : "NO") << "\n";
  return exact;
}

/// Two sync passes of the `program` campaigns, each one run of narrow
/// blocks that the kernel computes as one merged tile: an FDTD node
/// (hx += 0.5*(ez(x, y+1) - ez(x, y)): a 2-tap table, dirichlet(0), an
/// add store, bsize_x 64, 17 blocks on 1024x768), whose one-block calls
/// read 256-byte row segments 4 KiB apart, and wave3d's laplace node (the
/// 7-tap star, reflective, 32x32 blocks, 16 blocks on 96x96x48), whose
/// one-block calls reload 32x32 tiles to retire 30x30.
bool measure_narrow_blocks() {
  std::cout << "\n";
  AcceleratorConfig fdtd;
  fdtd.dims = 2;
  fdtd.radius = 1;
  fdtd.parvec = 4;
  fdtd.partime = 1;
  fdtd.bsize_x = 64;
  Grid2D<float> ez(1024, 768), hx(1024, 768);
  ez.fill_random(24, -1.0f, 1.0f);
  hx.fill_random(25, -1.0f, 1.0f);
  const bool fdtd_exact = measure_run_vs_blocks(
      "FDTD node",
      TapSet(2, 1, {Tap{0, 0, 0, -0.5f}, Tap{0, 1, 0, 0.5f}},
             BoundaryCondition::dirichlet(0.0f)),
      fdtd, ez, StoreOp::add(hx.data()));

  AcceleratorConfig wave = fdtd;
  wave.dims = 3;
  wave.bsize_x = 32;
  wave.bsize_y = 32;
  Grid3D<float> u(96, 96, 48);
  u.fill_random(26, -1.0f, 1.0f);
  const bool wave_exact = measure_run_vs_blocks(
      "wave3d laplace node",
      StarStencil::make_benchmark(3, 1, 26).to_taps().with_boundary(
          BoundaryCondition::reflective()),
      wave, u, StoreOp::assign());
  return fdtd_exact && wave_exact;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--full") {
      opt.n2d = 512;
      opt.n3d = 96;
      opt.accept_n = 512;
      opt.iters = 4;
      opt.workers = {1, 2, 4, 8};
    } else if (a == "--n2d") {
      const char* v = next();
      if (!v) return false;
      opt.n2d = std::atoll(v);
    } else if (a == "--n3d") {
      const char* v = next();
      if (!v) return false;
      opt.n3d = std::atoll(v);
    } else if (a == "--accept-n") {
      const char* v = next();
      if (!v) return false;
      opt.accept_n = std::atoll(v);
    } else if (a == "--iters") {
      const char* v = next();
      if (!v) return false;
      opt.iters = std::atoi(v);
    } else if (a == "--workers") {
      const char* v = next();
      if (!v) return false;
      opt.workers.clear();
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        opt.workers.push_back(std::atoi(tok.c_str()));
      }
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: microbench_kernel_dispatch [--full]\n"
              << "         [--n2d N] [--n3d N] [--accept-n N] [--iters I]\n"
              << "         [--workers 1,2,4]\n";
    return 2;
  }

  bool ok = true;

  // ---- envelope sweep: generic vs specialized per registry entry ----
  Grid2D<float> init2(opt.n2d, opt.n2d * 5 / 8);
  init2.fill_random(21, -1.0f, 1.0f);
  Grid2D<float> work2(init2.nx(), init2.ny());
  Grid3D<float> init3(opt.n3d, opt.n3d - 4, std::max<std::int64_t>(
                                                opt.n3d / 2, 8));
  init3.fill_random(22, -1.0f, 1.0f);
  Grid3D<float> work3(init3.nx(), init3.ny(), init3.nz());

  std::vector<double> speedups;
  std::cout << "kernel            grid            generic   specialized  "
               "speedup  exact\n";
  for (StencilShape shape : {StencilShape::kStar, StencilShape::kBox}) {
    for (int dims : {2, 3}) {
      for (int rad = 1; rad <= 4; ++rad) {
        for (int pv : {1, 4, 8, 16}) {
          const PointResult r =
              dims == 2 ? measure_point(shape, rad, pv, work2, init2,
                                        opt.iters)
                        : measure_point(shape, rad, pv, work3, init3,
                                        opt.iters);
          ok = ok && r.exact && r.dispatched;
          std::ostringstream grid;
          grid << r.nx << "x" << r.ny;
          if (r.dims == 3) grid << "x" << r.nz;
          std::cout << r.name << std::string(18 - std::min<std::size_t>(
                                                 17, r.name.size()), ' ')
                    << grid.str() << "\t" << r.generic_mcells << "\t"
                    << r.specialized_mcells << "\tx" << r.speedup() << "\t"
                    << (r.exact ? "yes" : "NO") << "\n";
          speedups.push_back(r.speedup());
        }
      }
    }
  }

  // ---- acceptance point: 3D star r4 partime 4, telemetry-audited ----
  const AcceleratorConfig acfg = acceptance_config();
  const TapSet ataps = envelope_taps(StencilShape::kStar, 3, 4);
  Grid3D<float> ainit(opt.accept_n, opt.accept_n, opt.accept_n);
  ainit.fill_random(23, -1.0f, 1.0f);
  const int aiters = acfg.partime;
  const std::int64_t acells = ainit.nx() * ainit.ny() * ainit.nz();

  Telemetry atel;
  AcceleratorConfig acfg_tel = acfg;
  acfg_tel.telemetry = &atel;
  Grid3D<float> awork = ainit;
  const double at_gen = time_run(ataps, acfg, awork, aiters, false);
  Grid3D<float> areference = std::move(awork);
  awork = ainit;
  const double at_spec = time_run(ataps, acfg_tel, awork, aiters, true);
  const bool accept_exact = compare_exact(awork, areference).identical();
  const bool accept_dispatched =
      atel.metrics().counter("kernels.dispatch_specialized").value() > 0 &&
      atel.metrics().counter("kernels.dispatch_fallback").value() == 0;
  ok = ok && accept_exact && accept_dispatched;
  const double accept_gen_mc = mcells_per_s(acells, aiters, at_gen);
  const double accept_spec_mc = mcells_per_s(acells, aiters, at_spec);
  const double accept_speedup =
      accept_gen_mc > 0.0 ? accept_spec_mc / accept_gen_mc : 0.0;
  std::cout << "\nacceptance " << acfg.describe() << " grid " << opt.accept_n
            << "^3: generic " << accept_gen_mc << " Mcell/s, specialized "
            << accept_spec_mc << " Mcell/s, speedup x" << accept_speedup
            << ", exact " << (accept_exact ? "yes" : "NO") << "\n";

  // ---- block-parallel rerun on the specialized kernels ----
  const double sync_mc = accept_spec_mc;  // sync specialized baseline
  for (int wkr : opt.workers) {
    RunOptions ropt;
    ropt.workers = wkr;
    Grid3D<float> pwork = ainit;
    const Stopwatch clock;
    (void)run_block_parallel(ataps, acfg, pwork, aiters, ropt);
    const double mcells =
        mcells_per_s(acells, aiters, double(clock.nanoseconds()) / 1e9);
    const bool exact = compare_exact(pwork, areference).identical();
    ok = ok && exact;
    std::cout << "blockpar workers=" << wkr << ": " << mcells
              << " Mcell/s, x" << (sync_mc > 0.0 ? mcells / sync_mc : 0.0)
              << " vs sync, exact " << (exact ? "yes" : "NO") << "\n";
  }

  ok = measure_narrow_blocks() && ok;

  std::sort(speedups.begin(), speedups.end());
  std::cout << "\nenvelope speedups: min x" << speedups.front()
            << ", median x" << speedups[speedups.size() / 2] << ", max x"
            << speedups.back() << "\n";

  if (!ok) {
    std::cerr << "SELF-CHECK FAILED: a specialized run diverged from the "
                 "interpreter or failed to dispatch\n";
    return 1;
  }
  return 0;
}
