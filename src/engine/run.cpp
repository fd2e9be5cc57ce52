#include "engine/run.hpp"

#include <chrono>
#include <type_traits>

#include "common/expect.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/concurrent_accelerator.hpp"
#include "fault/resilient_runner.hpp"
#include "tune/host_autotuner.hpp"

namespace fpga_stencil {

ExecutionBackend resolve_backend(const TapSet& taps,
                                 const AcceleratorConfig& cfg,
                                 std::int64_t nx, std::int64_t ny,
                                 std::int64_t nz, const RunOptions& options) {
  if (options.backend != ExecutionBackend::automatic) return options.backend;
  // An injector routes to the resilient runner, never the bare pipeline:
  // an injected stall without a watchdog would deadlock the pass.
  if (options.injector != nullptr) return ExecutionBackend::resilient;
  const AcceleratorConfig resolved = resolve_stage_lag(taps, cfg);
  return single_board_backend(options.workers,
                              make_blocking_plan(resolved, nx, ny, nz));
}

namespace {

template <typename GridT>
RunStats run_impl(const TapSet& taps, const AcceleratorConfig& cfg,
                  GridT& grid, int iterations, const RunOptions& options) {
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
  const AcceleratorConfig& rcfg = tuned_cfg;
  const ExecutionBackend backend =
      resolve_backend(taps, rcfg, grid.nx(), grid.ny(), nz, options);
  switch (backend) {
    case ExecutionBackend::automatic:
      break;  // resolved above; unreachable
    case ExecutionBackend::sync_sim: {
      AcceleratorConfig scfg = rcfg;
      if (options.telemetry) scfg.telemetry = options.telemetry;
      StencilAccelerator accel(taps, scfg);
      return accel.run(grid, iterations, options.scratch,
                       options.cancel.valid() ? &options.cancel : nullptr);
    }
    case ExecutionBackend::concurrent:
      return run_concurrent(taps, rcfg, grid, iterations, options);
    case ExecutionBackend::block_parallel:
      return run_block_parallel(taps, rcfg, grid, iterations, options);
    case ExecutionBackend::resilient: {
      ResilienceOptions ropts;
      ropts.base = options;
      if (ropts.base.watchdog_deadline.count() == 0) {
        // Default resilience policy: a run without a deadline could never
        // unwind a stalled pass.
        ropts.base.watchdog_deadline = std::chrono::milliseconds(500);
      }
      return run_resilient(taps, rcfg, grid, iterations, ropts);
    }
    case ExecutionBackend::cluster:
      throw ConfigError(
          "cluster backend is engine-only: submit a JobSpec with boards > 1 "
          "to a StencilEngine");
  }
  throw ConfigError("unknown execution backend");
}

}  // namespace

template <typename GridT>
RunStats run(const TapSet& taps, const AcceleratorConfig& cfg, GridT& grid,
             int iterations, const RunOptions& options) {
  return run_impl(taps, cfg, grid, iterations, options);
}

template RunStats run<Grid2D<float>>(const TapSet&, const AcceleratorConfig&,
                                     Grid2D<float>&, int, const RunOptions&);
template RunStats run<Grid3D<float>>(const TapSet&, const AcceleratorConfig&,
                                     Grid3D<float>&, int, const RunOptions&);

}  // namespace fpga_stencil
