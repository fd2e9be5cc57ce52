#include "engine/run.hpp"

#include <chrono>
#include <type_traits>

#include "common/expect.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/concurrent_accelerator.hpp"
#include "tune/host_autotuner.hpp"

namespace fpga_stencil {

ExecutionBackend automatic_backend(int boards, bool injected, int workers,
                                   const BlockingPlan& plan) {
  if (boards > 1) return ExecutionBackend::cluster;
  if (injected) return ExecutionBackend::resilient;
  return single_board_backend(workers, plan);
}

ExecutionBackend resolve_backend(const TapSet& taps,
                                 const AcceleratorConfig& cfg,
                                 std::int64_t nx, std::int64_t ny,
                                 std::int64_t nz, const RunOptions& options) {
  if (options.backend != ExecutionBackend::automatic) return options.backend;
  const AcceleratorConfig resolved = resolve_stage_lag(taps, cfg);
  return automatic_backend(1, options.injector != nullptr, options.workers,
                           make_blocking_plan(resolved, nx, ny, nz));
}

template <typename GridT>
RunStats run_backend(ExecutionBackend backend, const TapSet& taps,
                     const AcceleratorConfig& cfg, GridT& grid,
                     int iterations, const ResilienceOptions& options) {
  const RunOptions& base = options.base;
  switch (backend) {
    case ExecutionBackend::sync_sim: {
      AcceleratorConfig scfg = cfg;
      if (base.telemetry) scfg.telemetry = base.telemetry;
      return StencilAccelerator(taps, scfg)
          .run(grid, iterations, base.scratch,
               base.cancel.valid() ? &base.cancel : nullptr);
    }
    case ExecutionBackend::concurrent:
      return run_concurrent(taps, cfg, grid, iterations, base);
    case ExecutionBackend::block_parallel:
      return run_block_parallel(taps, cfg, grid, iterations, base);
    case ExecutionBackend::resilient:
      return run_resilient(taps, cfg, grid, iterations, options);
    case ExecutionBackend::cluster:
      throw ConfigError(
          "cluster backend is engine-only: submit a JobSpec with boards > 1 "
          "to a StencilEngine");
    case ExecutionBackend::automatic:
      break;
  }
  throw ConfigError("run_backend needs a resolved backend");
}

template <typename GridT>
RunStats run(const TapSet& taps, const AcceleratorConfig& cfg, GridT& grid,
             int iterations, const RunOptions& options) {
  constexpr bool is_3d = std::is_same_v<GridT, Grid3D<float>>;
  const std::int64_t nz = [&] {
    if constexpr (is_3d) {
      return grid.nz();
    } else {
      return std::int64_t{1};
    }
  }();
  // Autotune first so backend resolution and every executor below see the
  // tuned geometry. The free-run path has no plan cache, so cached_only is
  // the sensible steady-state mode here (a TuningCache hit is a map
  // lookup); `search` probes on every call unless a cache file absorbs it.
  AcceleratorConfig tuned_cfg = cfg;
  if (options.autotune != AutotuneMode::off) {
    HostAutotuner& tuner = options.tuner != nullptr
                               ? *options.tuner
                               : HostAutotuner::process_default();
    if (const std::optional<AutotuneOutcome> outcome = tuner.resolve(
            taps, cfg, grid.nx(), grid.ny(), nz, options.autotune,
            options.cancel.valid() ? &options.cancel : nullptr)) {
      tuned_cfg = outcome->config;
      tuned_cfg.telemetry = cfg.telemetry;
    }
  }
  const ExecutionBackend backend =
      resolve_backend(taps, tuned_cfg, grid.nx(), grid.ny(), nz, options);
  ResilienceOptions ropts;
  ropts.base = options;
  if (backend == ExecutionBackend::resilient &&
      ropts.base.watchdog_deadline.count() == 0) {
    // Default resilience policy: a run without a deadline could never
    // unwind a stalled pass.
    ropts.base.watchdog_deadline = std::chrono::milliseconds(500);
  }
  return run_backend(backend, taps, tuned_cfg, grid, iterations, ropts);
}

template RunStats run_backend<Grid2D<float>>(ExecutionBackend, const TapSet&,
                                             const AcceleratorConfig&,
                                             Grid2D<float>&, int,
                                             const ResilienceOptions&);
template RunStats run_backend<Grid3D<float>>(ExecutionBackend, const TapSet&,
                                             const AcceleratorConfig&,
                                             Grid3D<float>&, int,
                                             const ResilienceOptions&);
template RunStats run<Grid2D<float>>(const TapSet&, const AcceleratorConfig&,
                                     Grid2D<float>&, int, const RunOptions&);
template RunStats run<Grid3D<float>>(const TapSet&, const AcceleratorConfig&,
                                     Grid3D<float>&, int, const RunOptions&);

}  // namespace fpga_stencil
