// ProgramExecutor: runs a validated ProgramSpec through the engine's
// machinery -- PlanCache, BufferPool, HostAutotuner, Telemetry -- inside
// the worker thread that dispatched the program job (docs/PROGRAMS.md).
//
// The executor is also the *shared node runner*: resolve_plan (plan-cache
// lookup with the full tuner metric accounting) and run_planned (the
// sync_sim / block_parallel execution arms over pooled scratch) are the
// single implementation both the classic single-stencil job path in
// StencilEngine::execute and every program node run through. Collapsing
// the two paths is what makes "a single-stencil job is a one-node
// program" true at the machinery level, not just the API level.
//
// Execution model: all windowed node plans are resolved once up front
// (one plan-cache lookup -- and hence at most one tuner probe and exactly
// one tuner.cache_hit/miss tick -- per node per program run, regardless
// of `steps`), then the per-timestep schedule loops: each node advances
// its resolved input buffer straight into the output field's back
// buffer, its last pass storing with the node's combine op (assign, or
// add onto front for the step's first writer and onto back after that).
// A node whose input is its own destination buffer copies the input into
// a pooled lease first; a pointwise node (one center tap, or 0 iterations)
// runs as a streaming map on this thread (kernels/pointwise.hpp).
// Written fields swap at the end of the step. Every buffer is a
// BufferPool lease, so a program job leaks nothing even when a node
// throws mid-step.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "core/run_options.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/plan_cache.hpp"
#include "program/program_spec.hpp"

namespace fpga_stencil {

class Telemetry;
class HostAutotuner;
class CancellationToken;
class FaultInjector;

/// What running a whole program yields.
struct ProgramOutcome {
  /// Componentwise sum of every node run's RunStats (a pointwise node's
  /// are run_pointwise's: no passes or block passes).
  RunStats stats;
  /// The path the nodes took: block_parallel when any node fanned out
  /// over the worker pool, else sync_sim (pointwise maps count as
  /// sync_sim: they run on the calling thread).
  ExecutionBackend backend = ExecutionBackend::sync_sim;
  /// Final state of every field, in declaration order.
  std::vector<std::pair<std::string, GridVariant>> fields;
  std::int64_t nodes_executed = 0;  ///< node runs = nodes * steps
  std::int64_t steps_executed = 0;
  bool all_plans_cached = true;  ///< every node's plan lookup was a hit
  bool any_plan_tuned = false;   ///< some node adopted a tuned geometry
  std::uint64_t fingerprint = 0;  ///< ProgramSpec::fingerprint()
};

/// Per-run knobs of the shared node runner that only the single-stencil
/// path uses (program nodes pass the defaults).
struct NodeRunOptions {
  FaultInjector* injector = nullptr;
  std::chrono::milliseconds watchdog_deadline{0};
};

class ProgramExecutor {
 public:
  /// Engine services the executor borrows; all pointees must outlive it.
  /// StencilEngine builds one per program job from its own members.
  struct Services {
    PlanCache* plans = nullptr;
    BufferPool* pool = nullptr;
    HostAutotuner* tuner = nullptr;           ///< null when autotune == off
    AutotuneMode autotune = AutotuneMode::off;
    Telemetry* telemetry = nullptr;           ///< required
    std::string metrics_prefix = "engine";
    /// Requested backend: automatic (route per node by the engine's
    /// 2-blocks-per-worker policy), sync_sim, or block_parallel. Program
    /// jobs never run on the concurrent/resilient/cluster backends
    /// (validate_job_spec rejects them at the front door).
    ExecutionBackend backend = ExecutionBackend::automatic;
    /// Block-parallel worker threads (JobSpec::workers passthrough).
    int workers = 0;
  };

  explicit ProgramExecutor(Services services);

  /// Plan-cache lookup with the engine's full metric accounting:
  /// <prefix>.plan_cache_{hit,miss}, and -- for tuned plans --
  /// <prefix>.tuner.cache_{hit,miss} (one tick per lookup: exactly one
  /// per node per program run), tuner.search_* on probing builds, and the
  /// tuner.gain_milli gauge.
  std::shared_ptr<const CachedPlan> resolve_plan(
      const TapSet& taps, const AcceleratorConfig& cfg, std::int64_t nx,
      std::int64_t ny, std::int64_t nz, const CancellationToken* token,
      bool* hit);

  /// Resolves Services::backend against a concrete plan: `automatic`
  /// takes single_board_backend (core/block_parallel_accelerator.hpp).
  [[nodiscard]] ExecutionBackend route(const CachedPlan& plan) const;

  /// Runs one planned stencil in place on `grid` over pooled scratch.
  /// `backend` must be sync_sim or block_parallel. `cfg` is the plan's
  /// resolved config with the caller's telemetry hook restored.
  RunStats run_planned(const TapSet& taps, const AcceleratorConfig& cfg,
                       ExecutionBackend backend, Grid2D<float>& grid,
                       int iterations, const CancellationToken* token,
                       const NodeRunOptions& opts = NodeRunOptions());
  RunStats run_planned(const TapSet& taps, const AcceleratorConfig& cfg,
                       ExecutionBackend backend, Grid3D<float>& grid,
                       int iterations, const CancellationToken* token,
                       const NodeRunOptions& opts = NodeRunOptions());

  /// Runs the whole program: validate, resolve every node plan once,
  /// execute `steps` timesteps in DAG order. Emits
  /// <prefix>.program.nodes_scheduled / <prefix>.program.steps counters
  /// and, for nodes whose config carries a telemetry hook, a
  /// "<prefix>.program.node:<name>" span per node run
  /// (docs/OBSERVABILITY.md). Throws ConfigError / CancelledError /
  /// DeadlineExceededError like any job body.
  ProgramOutcome run(const ProgramSpec& program,
                     const CancellationToken* token, int worker_id);

 private:
  [[nodiscard]] std::string m(const char* suffix) const;

  Services services_;
};

}  // namespace fpga_stencil
