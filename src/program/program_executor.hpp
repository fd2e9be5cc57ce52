// ProgramExecutor: the engine's one job runner, and the one place that
// knows backends. It runs a validated ProgramSpec through the engine's
// machinery -- PlanCache, BufferPool, HostAutotuner, CircuitBreaker,
// Telemetry -- inside the worker thread that dispatched the job
// (docs/PROGRAMS.md). A single-stencil job is single_stencil_program()'s
// one-node program, so StencilEngine runs every job through run().
//
// Execution model: every windowed node plan is resolved and routed once
// up front (one plan-cache lookup, at most one tuner probe, and exactly
// one tuner.cache_hit/miss tick per node per run, whatever `steps`); the
// breaker has the last word per node. Then the per-timestep schedule
// loops. A node that owns its field (reads and writes it with assign, and
// no other node touches it) advances the field's front buffer in place,
// the back buffer's storage as scratch, on any backend. Every other
// windowed node streams its input into its destination's back buffer on
// sync_sim or block_parallel, its last pass storing with the node's
// combine op (a node reading its own destination buffer copies it into a
// pooled lease first); a pointwise node (one center tap, or 0 iterations)
// is a streaming map on this thread (kernels/pointwise.hpp). Written
// fields swap at the end of the step. Back buffers are BufferPool leases,
// and so are front buffers unless the caller hands its grids over by
// rvalue, so a job leaks nothing even when a node throws mid-step.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/multi_fpga.hpp"
#include "common/buffer_pool.hpp"
#include "core/run_options.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/plan_cache.hpp"
#include "fault/resilient_runner.hpp"
#include "program/program_spec.hpp"

namespace fpga_stencil {

class Telemetry;
class HostAutotuner;
class CancellationToken;
class CircuitBreaker;
class FaultInjector;

/// What running a whole program yields.
struct ProgramOutcome {
  /// Componentwise sum of every node run's RunStats (a pointwise node's
  /// are run_pointwise's: no passes or block passes).
  RunStats stats;
  /// The path the nodes took: the non-sync_sim backend a windowed node ran
  /// on, else sync_sim (pointwise maps count as sync_sim: they run on the
  /// calling thread).
  ExecutionBackend backend = ExecutionBackend::sync_sim;
  /// True when the circuit breaker sent some windowed node to the
  /// sync_sim fallback instead of its routed backend.
  bool rerouted = false;
  /// The cluster arm's modeled timing; default unless a node ran there.
  ClusterStats cluster;
  /// Final state of every field, in declaration order.
  std::vector<std::pair<std::string, GridVariant>> fields;
  std::int64_t nodes_executed = 0;  ///< node runs = nodes * steps
  std::int64_t steps_executed = 0;
  bool all_plans_cached = true;  ///< every node's plan lookup was a hit
  bool any_plan_tuned = false;   ///< some node adopted a tuned geometry
  std::uint64_t fingerprint = 0;  ///< ProgramSpec::fingerprint()
};

class ProgramExecutor {
 public:
  /// Engine services and per-job knobs; all pointees must outlive the
  /// executor. StencilEngine builds one per job from its members and the
  /// JobSpec; the knobs default to a fault-free single-board run.
  struct Services {
    PlanCache* plans = nullptr;
    BufferPool* pool = nullptr;
    HostAutotuner* tuner = nullptr;           ///< null when autotune == off
    AutotuneMode autotune = AutotuneMode::off;
    Telemetry* telemetry = nullptr;           ///< required
    std::string metrics_prefix = "engine";
    /// Requested backend: automatic (route() below) or one for every
    /// windowed node; only an owning node runs concurrent, resilient or
    /// cluster. The JobSpec knobs below pass through unchanged
    /// (engine/job.hpp); a watchdog of 0 keeps the backend's default.
    ExecutionBackend backend = ExecutionBackend::automatic;
    int workers = 0;
    FaultInjector* injector = nullptr;
    std::chrono::milliseconds watchdog_deadline{0};
    std::size_t channel_depth = 64;
    ResilienceOptions resilience;
    int boards = 1;
    DeviceSpec device;  ///< name empty = arria10_gx1150()
    LinkSpec link;
    CircuitBreaker* breaker = nullptr;  ///< null runs without one
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
  /// takes automatic_backend (engine/run.hpp) over the job's boards,
  /// injector and workers. The breaker is not consulted here.
  [[nodiscard]] ExecutionBackend route(const CachedPlan& plan) const;

  /// Runs one planned stencil in place on `grid` over a pooled scratch:
  /// the owning-node arm, on any backend route() can return. `cfg` is the
  /// plan's resolved config with the caller's telemetry hook restored.
  /// Instantiated for Grid2D<float> and Grid3D<float>.
  template <typename GridT>
  RunStats run_planned(const TapSet& taps, const AcceleratorConfig& cfg,
                       ExecutionBackend backend, GridT& grid, int iterations,
                       const CancellationToken* token);

  /// Runs the whole program: validate, resolve and route every node plan
  /// once, execute `steps` timesteps in DAG order, then charge the breaker
  /// (docs/LIFECYCLE.md). Emits <prefix>.program.nodes_scheduled /
  /// <prefix>.program.steps counters, <prefix>.breaker_rerouted per
  /// rerouted node and, for nodes whose config carries a telemetry hook, a
  /// "<prefix>.program.node:<name>" span per node run
  /// (docs/OBSERVABILITY.md). Throws ConfigError / CancelledError /
  /// DeadlineExceededError like any job body. The const overload copies
  /// each initial field into a pooled front buffer; the rvalue overload
  /// adopts each field's initial grid as its front buffer.
  ProgramOutcome run(const ProgramSpec& program,
                     const CancellationToken* token, int worker_id);
  ProgramOutcome run(ProgramSpec&& program, const CancellationToken* token,
                     int worker_id);

 private:
  ProgramOutcome run_program(const ProgramSpec& program, ProgramSpec* adopt,
                             const CancellationToken* token, int worker_id);
  [[nodiscard]] std::string m(const char* suffix) const;

  Services services_;
};

}  // namespace fpga_stencil
