// The single options struct and backend vocabulary shared by every
// single-board execution path.
//
// PR 3 left three overlapping knob bundles (RunOptions, ConcurrentOptions,
// ResilienceOptions duplicating half of RunOptions); this header collapses
// them: RunOptions is the one struct, ResilienceOptions embeds it as
// `base` (fault/resilient_runner.hpp), and ExecutionBackend names the
// paths the unified `run()` entry point (engine/run.hpp) and the
// StencilEngine route between. Fields a given backend does not use are
// simply ignored, so one struct can describe any routing outcome.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "common/cancellation.hpp"

namespace fpga_stencil {

class BufferPool;     // common/buffer_pool.hpp; pointer-only here
class FaultInjector;  // fault/fault_injector.hpp; pointer-only here
class HostAutotuner;  // tune/host_autotuner.hpp; pointer-only here
class Telemetry;      // telemetry/telemetry.hpp; pointer-only here

/// Empirical plan-autotuning policy (docs/TUNING.md). Tuning only swaps
/// the block geometry / temporal depth among plans the executors already
/// run bit-exactly; it never changes what is computed.
enum class AutotuneMode {
  off,          ///< run the requested geometry as-is (the default)
  cached_only,  ///< adopt a tuned plan when the TuningCache already has
                ///< one for this (stencil, extents-class, host); never
                ///< probe -- a miss keeps the requested geometry
  search,       ///< probe-search candidates on first use, persist the
                ///< winner, then behave like cached_only
};

[[nodiscard]] constexpr const char* autotune_mode_name(AutotuneMode m) {
  switch (m) {
    case AutotuneMode::off: return "off";
    case AutotuneMode::cached_only: return "cached_only";
    case AutotuneMode::search: return "search";
  }
  return "?";
}

/// Execution paths a stencil job can be routed to. The StencilEngine
/// aliases this as `Backend` (engine/job.hpp).
enum class ExecutionBackend {
  automatic,       ///< router picks; see resolve_backend (engine/run.hpp)
                   ///< and docs/PARALLEL.md for the policy
  sync_sim,        ///< StencilAccelerator: single-threaded reference sweep
  concurrent,      ///< run_concurrent: one thread per pipeline stage
  block_parallel,  ///< run_block_parallel: worker pool over overlapped blocks
  resilient,       ///< run_resilient: watchdog/checksum/checkpoint
  cluster,         ///< MultiFpgaCluster; StencilEngine jobs only
};

[[nodiscard]] constexpr const char* backend_name(ExecutionBackend b) {
  switch (b) {
    case ExecutionBackend::automatic: return "automatic";
    case ExecutionBackend::sync_sim: return "sync_sim";
    case ExecutionBackend::concurrent: return "concurrent";
    case ExecutionBackend::block_parallel: return "block_parallel";
    case ExecutionBackend::resilient: return "resilient";
    case ExecutionBackend::cluster: return "cluster";
  }
  return "?";
}

/// Knobs of the single-board execution paths. Every backend reads the
/// subset it understands and ignores the rest.
struct RunOptions {
  /// Which path executes the job; `automatic` lets the router decide
  /// (resilient when an injector is set, else single_board_backend() in
  /// core/block_parallel_accelerator.hpp).
  ExecutionBackend backend = ExecutionBackend::automatic;
  /// Per-channel vector capacity (the OpenCL `depth` attribute);
  /// concurrent/resilient backends.
  std::size_t channel_depth = 64;
  /// Block-parallel worker threads; 0 means std::thread::hardware_concurrency.
  /// The pool never spawns more workers than the plan has blocks.
  int workers = 0;
  /// Fault sites are armed only when an injector is supplied.
  FaultInjector* injector = nullptr;
  /// No-progress deadline at the write kernel; 0 disables the watchdog.
  std::chrono::milliseconds watchdog_deadline{0};
  /// Observability hook; falls back to AcceleratorConfig::telemetry when
  /// null. With a hook attached every pass records kernel spans (one trace
  /// lane per pipeline stage or worker), channel depth high-water marks
  /// and blocked-time counters, and per-pass cell throughput.
  Telemetry* telemetry = nullptr;
  /// Reusable backing store for the internal ping-pong scratch grid: when
  /// non-null its storage is adopted for the run and returned on normal
  /// completion (the engine's buffer pool threads through here). An
  /// aborted pass drops the storage; the vector is left empty.
  std::vector<float>* scratch = nullptr;
  /// Lease source for per-worker lane scratch (block-parallel backend);
  /// null keeps the allocate-per-worker behavior.
  BufferPool* pool = nullptr;
  /// Cooperative cancellation/deadline token. Every backend checks it at
  /// block (or finer) granularity and unwinds with CancelledError /
  /// DeadlineExceededError; a default (null) token never cancels. See
  /// docs/LIFECYCLE.md for the exact check points and guarantees.
  CancellationToken cancel{};
  /// Plan autotuning: when not `off`, the run swaps the requested block
  /// geometry / partime for the measured-best plan of this host before
  /// executing (docs/TUNING.md). Results are bit-exact either way.
  AutotuneMode autotune = AutotuneMode::off;
  /// Autotuner to resolve tuned plans through; null with autotune != off
  /// uses a process-wide default (HostAutotuner::process_default()). The
  /// StencilEngine always passes its own.
  HostAutotuner* tuner = nullptr;
};

}  // namespace fpga_stencil
