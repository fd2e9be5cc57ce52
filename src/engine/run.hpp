// The one entry point over the single-board execution paths, and the
// routing rule and backend switch every job path shares.
//
// Callers describe WHAT to run (taps, config, grid, iterations) and HOW
// in a single RunOptions; run() routes to the matching backend instead of
// every CLI and bench hand-picking accelerator classes:
//
//   options.backend          routed to
//   -----------------------  ------------------------------------------
//   sync_sim                 StencilAccelerator::run
//   concurrent               run_concurrent
//   block_parallel           run_block_parallel
//   resilient                run_resilient (options become .base; the
//                            500 ms watchdog default is restored when
//                            options left the deadline at 0, since a
//                            resilient run without a deadline could
//                            never unwind a stalled pass)
//   cluster                  engine-only; throws ConfigError here --
//                            multi-board jobs need the StencilEngine's
//                            boards/device/link vocabulary
//   automatic                automatic_backend() below
//
// The engine's ProgramExecutor routes every job node by the same rule and
// switch (automatic_backend, run_backend), so the two cannot drift. Every
// route is bit-exact with every other (pinned by tests), so the
// choice is purely a performance/resilience decision. For queueing,
// plan caching, and buffer pooling across many jobs, use StencilEngine;
// run() is the direct, call-site-blocking form of the same routing.
#pragma once

#include "core/run_options.hpp"
#include "core/stencil_accelerator.hpp"
#include "fault/resilient_runner.hpp"

namespace fpga_stencil {

/// The automatic routing rule: cluster when the job spans more than one
/// board, resilient when it carries a fault injector (injecting a stall
/// into the bare concurrent pipeline without a watchdog would deadlock),
/// else single_board_backend() (core/block_parallel_accelerator.hpp).
[[nodiscard]] ExecutionBackend automatic_backend(int boards, bool injected,
                                                 int workers,
                                                 const BlockingPlan& plan);

/// The routing decision run() would take, exposed so callers (stencilctl)
/// can report which backend a RunOptions resolves to: options.backend,
/// or automatic_backend() for one board.
ExecutionBackend resolve_backend(const TapSet& taps,
                                 const AcceleratorConfig& cfg,
                                 std::int64_t nx, std::int64_t ny,
                                 std::int64_t nz, const RunOptions& options);

/// Advances `grid` by `iterations` time steps in place on `backend`:
/// sync_sim, block_parallel, concurrent or resilient (else ConfigError).
/// Each reads its knobs from `options.base`; resilient also the policy.
/// Instantiated for Grid2D<float> and Grid3D<float> in run.cpp.
template <typename GridT>
RunStats run_backend(ExecutionBackend backend, const TapSet& taps,
                     const AcceleratorConfig& cfg, GridT& grid,
                     int iterations, const ResilienceOptions& options);

/// Advances `grid` by `iterations` time steps in place on the backend
/// `options` selects. Instantiated for Grid2D<float> and Grid3D<float>.
template <typename GridT>
RunStats run(const TapSet& taps, const AcceleratorConfig& cfg, GridT& grid,
             int iterations, const RunOptions& options = {});

extern template RunStats run<Grid2D<float>>(const TapSet&,
                                            const AcceleratorConfig&,
                                            Grid2D<float>&, int,
                                            const RunOptions&);
extern template RunStats run<Grid3D<float>>(const TapSet&,
                                            const AcceleratorConfig&,
                                            Grid3D<float>&, int,
                                            const RunOptions&);

}  // namespace fpga_stencil
