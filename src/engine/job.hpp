// Job vocabulary of the StencilEngine: what a caller submits (JobSpec),
// what comes back (JobResult), and the future-style handle between them.
//
// A job is one complete stencil computation -- tap set + configuration +
// input grid + iteration count (run as its one-node program) -- plus
// routing and QoS hints. The engine owns the grid for the duration (the
// spec *moves* in) and hands it back through the result, so concurrent
// jobs never alias storage.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <variant>

#include "cluster/multi_fpga.hpp"
#include "common/expect.hpp"
#include "core/run_options.hpp"
#include "core/stencil_accelerator.hpp"
#include "fault/resilient_runner.hpp"
#include "fpga/device_spec.hpp"
#include "grid/grid.hpp"
#include "program/program_spec.hpp"
#include "stencil/accel_config.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

/// Execution paths the engine can route a job to: the engine-level name
/// of the shared backend vocabulary (core/run_options.hpp). Under
/// `automatic` every job node takes automatic_backend() (engine/run.hpp).
using Backend = ExecutionBackend;

// GridVariant (either grid dimensionality, by value) lives in
// program/program_spec.hpp now that jobs and program fields share it.

/// QoS service classes for the weighted admission queue (docs/SERVING.md).
/// Lower value = more favored; the queue serves classes by weighted
/// round-robin so batch floods cannot starve interactive work while
/// batch still drains at its guaranteed share.
enum class QosClass : int {
  interactive = 0,  ///< latency-sensitive, highest scheduling weight
  standard = 1,     ///< the default
  batch = 2,        ///< throughput work, lowest weight (never starved)
};

inline constexpr int kQosClassCount = 3;

[[nodiscard]] constexpr const char* qos_class_name(QosClass c) {
  switch (c) {
    case QosClass::interactive: return "interactive";
    case QosClass::standard: return "standard";
    case QosClass::batch: return "batch";
  }
  return "?";
}

/// One contiguous band of a finished grid, streamed to JobSpec::sink:
/// whole rows for 2D (start/count index y), whole z-planes for 3D
/// (start/count index z) -- both are contiguous in the row-major layouts.
/// `data` points into the result grid and is valid only during the
/// callback; copy out anything you keep.
struct ResultChunk {
  int dims = 2;
  std::int64_t nx = 0, ny = 0, nz = 1;
  /// Field the band belongs to: "u" for single-stencil jobs; the field
  /// name for program jobs, which stream every non-work field in
  /// declaration order (`index` stays continuous across fields and `last`
  /// marks the final band of the final field).
  std::string field;
  std::int64_t index = 0;  ///< chunk ordinal, 0-based
  std::int64_t start = 0;  ///< first row (2D) / plane (3D) of the band
  std::int64_t count = 0;  ///< rows / planes in the band
  const float* data = nullptr;
  std::size_t values = 0;  ///< floats at `data` (count * row/plane stride)
  bool last = false;       ///< no further chunks follow
};

/// Receives result bands in order on the worker thread, after the job's
/// computation finished and before the handle turns terminal.
using ChunkSink = std::function<void(const ResultChunk&)>;

enum class JobStatus;  // defined below (terminal-state vocabulary)

/// One unit of work. Construct with the required fields, then adjust the
/// public knobs before submitting. The grid moves into the spec and the
/// spec moves into the engine.
struct JobSpec {
  JobSpec(TapSet taps_, AcceleratorConfig config_, Grid2D<float> grid_,
          int iterations_)
      : taps(std::move(taps_)),
        config(config_),
        grid(std::move(grid_)),
        iterations(iterations_) {}
  JobSpec(TapSet taps_, AcceleratorConfig config_, Grid3D<float> grid_,
          int iterations_)
      : taps(std::move(taps_)),
        config(config_),
        grid(std::move(grid_)),
        iterations(iterations_) {}
  /// Program job: submits a whole multi-field stencil program through the
  /// same front door (docs/PROGRAMS.md). The single-stencil members are
  /// inert placeholders for these jobs.
  explicit JobSpec(std::shared_ptr<const ProgramSpec> program_)
      : taps(2, 1, {Tap{0, 0, 0, 1.0f}}),
        config(),
        grid(Grid2D<float>(1, 1)),
        iterations(0) {
    program = std::move(program_);
  }

  TapSet taps;
  AcceleratorConfig config;
  GridVariant grid;
  int iterations = 0;

  /// Multi-field stencil program (docs/PROGRAMS.md). When set, the engine
  /// ignores taps/config/grid/iterations above and runs this program
  /// instead of their one-node adapter; the result carries the final
  /// state of every field in JobResult::fields, and a sink receives each
  /// non-work field as its own chunk run (ResultChunk::field). Held by
  /// shared_ptr so large initial fields are never copied through the
  /// admission queue.
  std::shared_ptr<const ProgramSpec> program;

  Backend backend = Backend::automatic;
  /// Dataflow knobs (concurrent / resilient backends).
  std::size_t channel_depth = 64;
  /// Block-parallel worker threads; 0 = hardware_concurrency. Under
  /// Backend::automatic this count feeds single_board_backend().
  int workers = 0;
  /// Per-job fault source. Routing note: under Backend::automatic an
  /// injector routes to the resilient backend -- injecting a stall into
  /// the bare concurrent pipeline without a watchdog would deadlock.
  FaultInjector* injector = nullptr;
  std::chrono::milliseconds watchdog_deadline{0};
  /// Per-job deadline measured from submit(); 0 = none. Enforced
  /// cooperatively by whichever worker/backend runs the job (the job's
  /// CancellationToken trips itself past the deadline), so a job that
  /// overruns -- or never leaves the queue in time -- lands in
  /// JobStatus::deadline_exceeded. Independent of watchdog_deadline,
  /// which bounds *progress stalls*, not total latency.
  std::chrono::milliseconds deadline{0};
  /// Resilient-backend policy (attempts, checkpoints, checksums). Its
  /// injector/telemetry/scratch fields are overridden by the engine.
  ResilienceOptions resilience;
  /// Cluster-backend shape; boards > 1 routes automatic jobs there.
  int boards = 1;
  DeviceSpec device;  ///< cluster only; name empty = arria10_gx1150()
  LinkSpec link;      ///< cluster only
  /// Free-form tag echoed in the result (demo campaigns, debugging).
  std::string label;

  // ---- Serving-tier identity and delivery (docs/SERVING.md). These are
  // plain JobSpec fields so the single submit() path carries everything:
  // EngineCluster enforces tenant quotas from them, a bare StencilEngine
  // uses qos/priority for scheduling and ignores tenancy.

  /// Billing / quota identity. EngineCluster applies this tenant's
  /// inflight and rate caps at admission; empty means "default".
  std::string tenant = "default";
  /// Service class for the weighted admission queue.
  QosClass qos = QosClass::standard;
  /// Tie-breaker within the class: higher runs first, FIFO among equals.
  int priority = 0;
  /// Chunked result delivery for huge grids: when set, the finished grid
  /// is streamed through this sink in contiguous bands (ResultChunk)
  /// before the handle turns terminal.
  ChunkSink sink;
  /// With a sink: drop the result grid after delivery (the JobResult
  /// carries a 1x1 placeholder). The server never holds client-sized
  /// output longer than the stream takes.
  bool sink_only = false;
  /// Target floats per chunk; bands round up to whole rows/planes.
  std::int64_t chunk_values = 1 << 16;
  /// Invoked exactly once on the worker thread when the job reaches a
  /// terminal state -- after the state is recorded, before handle waiters
  /// are notified. EngineCluster chains its quota release through this;
  /// user callbacks must not block or throw.
  std::function<void(JobStatus)> on_terminal;

  [[nodiscard]] bool is_3d() const {
    return std::holds_alternative<Grid3D<float>>(grid);
  }
};

/// The one validated admission path: every submit surface --
/// StencilEngine::submit and EngineCluster::submit -- funnels specs
/// through here, so a spec that clears one front door clears them all.
/// Cheap shape checks only (throwing ConfigError at the call site); full
/// plan validation still happens in the worker and surfaces through the
/// handle.
inline void validate_job_spec(const JobSpec& spec) {
  FPGASTENCIL_EXPECT(spec.iterations >= 0, "iterations must be non-negative");
  FPGASTENCIL_EXPECT(spec.boards >= 1, "boards must be >= 1");
  FPGASTENCIL_EXPECT(int(spec.qos) >= 0 && int(spec.qos) < kQosClassCount,
                     "qos class out of range");
  FPGASTENCIL_EXPECT(spec.chunk_values > 0, "chunk_values must be positive");
  FPGASTENCIL_EXPECT(!spec.sink_only || spec.sink,
                     "sink_only requires a chunk sink");
  // Non-clamp boundary conditions and programs run on the in-process
  // single-board backends only: the concurrent pipeline's geometry reader
  // returns zeros outside the grid (clamp semantics are patched in the
  // PEs), and the multi-FPGA cluster is a timing model that never touches
  // cell data -- neither can honor periodic/reflective/dirichlet wraps.
  const bool single_board_only =
      spec.program != nullptr || !spec.taps.boundary().is_clamp();
  if (single_board_only) {
    FPGASTENCIL_EXPECT(
        spec.backend == Backend::automatic ||
            spec.backend == Backend::sync_sim ||
            spec.backend == Backend::block_parallel,
        "programs and non-clamp boundaries support only the automatic, "
        "sync_sim and block_parallel backends");
    FPGASTENCIL_EXPECT(
        spec.injector == nullptr,
        "programs and non-clamp boundaries do not take a fault injector");
    FPGASTENCIL_EXPECT(spec.boards == 1,
                       "programs and non-clamp boundaries are single-board");
  }
  if (spec.program) {
    spec.program->validate();  // full DAG/shape validation at the front door
  } else {
    FPGASTENCIL_EXPECT(spec.config.dims == (spec.is_3d() ? 3 : 2),
                       "grid dimensionality does not match the configuration");
  }
}

/// What a finished job hands back.
struct JobResult {
  GridVariant grid;  ///< the advanced grid (moved back out of the engine)
  RunStats stats;
  ClusterStats cluster;      ///< cluster backend only; default otherwise
  Backend backend = Backend::sync_sim;  ///< path actually taken
  /// True when the circuit breaker overrode a node's backend (it ran on
  /// the sync_sim fallback; `backend` reflects the override).
  bool rerouted = false;
  bool plan_cache_hit = false;
  /// True when the plan's geometry came from the host autotuner
  /// (EngineOptions::autotune != off and the tuner resolved a winner).
  bool plan_tuned = false;
  std::uint64_t kernel_fingerprint = 0;  ///< ProgramSpec::fingerprint()
  std::int64_t queue_ns = 0;  ///< admission to dispatch
  std::int64_t run_ns = 0;    ///< dispatch to completion
  std::string label;
  std::string tenant;  ///< echoed from the spec
  QosClass qos = QosClass::standard;
  /// Engine-wide dispatch order (0-based): the position at which a
  /// worker picked this job off the admission queue. Scheduling tests
  /// pin priority/QoS ordering on it.
  std::int64_t dispatch_seq = -1;
  /// Chunks streamed through JobSpec::sink (0 when no sink was set).
  std::int64_t chunks_delivered = 0;

  // ---- Program view (docs/PROGRAMS.md; a single-stencil job is its one-
  // node, one-step adapter). `grid` holds a 1x1 placeholder for programs.

  /// Final state of every program field (work fields included), in
  /// declaration order. Empty for single-stencil jobs.
  std::vector<std::pair<std::string, GridVariant>> fields;
  std::int64_t program_nodes_executed = 0;  ///< node runs = nodes * steps
  std::int64_t program_steps = 0;           ///< timesteps advanced

  /// Program-field accessors (throws std::out_of_range on a bad name).
  [[nodiscard]] const GridVariant& field(std::string_view name) const {
    for (const auto& f : fields) {
      if (f.first == name) return f.second;
    }
    throw std::out_of_range("no such program field: " + std::string(name));
  }

  JobResult() : grid(Grid2D<float>(1, 1)) {}

  [[nodiscard]] Grid2D<float>& grid2d() {
    return std::get<Grid2D<float>>(grid);
  }
  [[nodiscard]] const Grid2D<float>& grid2d() const {
    return std::get<Grid2D<float>>(grid);
  }
  [[nodiscard]] Grid3D<float>& grid3d() {
    return std::get<Grid3D<float>>(grid);
  }
  [[nodiscard]] const Grid3D<float>& grid3d() const {
    return std::get<Grid3D<float>>(grid);
  }
};

/// The job lifecycle state machine (docs/LIFECYCLE.md):
///
///   queued --> running --> done | failed | cancelled | deadline_exceeded
///   queued ---------------------> cancelled | deadline_exceeded
///
/// done/failed/cancelled/deadline_exceeded are terminal; a handle's wait()
/// rethrows the job's error for every terminal state except done.
enum class JobStatus {
  queued,
  running,
  done,
  failed,
  cancelled,           ///< JobHandle::cancel() (or engine shutdown) tripped it
  deadline_exceeded,   ///< JobSpec::deadline expired before completion
};

[[nodiscard]] constexpr bool job_status_terminal(JobStatus s) {
  return s == JobStatus::done || s == JobStatus::failed ||
         s == JobStatus::cancelled || s == JobStatus::deadline_exceeded;
}

[[nodiscard]] constexpr const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::queued: return "queued";
    case JobStatus::running: return "running";
    case JobStatus::done: return "done";
    case JobStatus::failed: return "failed";
    case JobStatus::cancelled: return "cancelled";
    case JobStatus::deadline_exceeded: return "deadline_exceeded";
  }
  return "?";
}

/// Submission rejected by a full admission queue under
/// EngineOptions::Admission::reject.
class EngineOverloadedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Submission rejected because the engine left the running state
/// (drain(), shutdown(), or destruction in progress).
class EngineStoppedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

/// Shared between the engine's worker and every JobHandle copy.
struct JobState {
  explicit JobState(JobSpec s) : spec(std::move(s)) {}

  std::mutex mu;
  std::condition_variable cv;
  JobStatus status = JobStatus::queued;
  JobSpec spec;               ///< consumed by the worker at dispatch
  JobResult result;           ///< valid once status == done
  /// Set for every non-done terminal state; wait() rethrows it.
  std::exception_ptr error;
  std::chrono::steady_clock::time_point enqueue_time;
  /// Created at submit (deadline-armed when spec.deadline > 0); shared
  /// with the executing backend, tripped by JobHandle::cancel().
  CancellationToken token;
  /// Engine-wide dispatch order, stamped when a worker dequeues the job.
  std::int64_t dispatch_seq = -1;
  /// When a worker dequeued the job (the end of its queue wait).
  std::chrono::steady_clock::time_point dispatch_time;
};

}  // namespace detail

/// Future-style handle to a submitted job. Copyable; all copies observe
/// the same job. wait() blocks until the job finishes and either returns
/// the result or rethrows the job's exception -- a failed job never
/// silently yields a grid.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  [[nodiscard]] JobStatus status() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->status;
  }

  [[nodiscard]] bool finished() const {
    return job_status_terminal(status());
  }

  /// Requests cooperative cancellation. Non-blocking and idempotent: the
  /// job unwinds at block granularity (docs/LIFECYCLE.md) and lands in
  /// JobStatus::cancelled -- or keeps its terminal state if it already
  /// finished; cancelling a done job does not un-finish it. Use
  /// wait()/wait_or_cancel() to observe the outcome.
  void cancel() { state_->token.request_cancel(); }

  /// Blocks until the job reaches a terminal state. Returns the result
  /// for a done job; rethrows the job's error otherwise (failure,
  /// CancelledError, DeadlineExceededError) -- a job that did not finish
  /// never silently yields a grid. The reference stays valid while any
  /// handle copy lives -- lvalue-qualified so `submit(...).wait()` cannot
  /// compile: the temporary handle may be the last owner of the state the
  /// reference points into.
  JobResult& wait() & {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return job_status_terminal(state_->status); });
    if (state_->status != JobStatus::done) {
      std::rethrow_exception(state_->error);
    }
    return state_->result;
  }

  /// wait() with a timeout; false if the job is not terminal when it
  /// expires. An expired wait_for does NOT stop the job -- it keeps
  /// running (and still holds its queue slot and buffers); compose with
  /// cancel() or use wait_or_cancel() to bound the job itself.
  bool wait_for(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(state_->mu);
    return state_->cv.wait_for(lock, timeout, [&] {
      return job_status_terminal(state_->status);
    });
  }

  /// wait_for composed with cancel-on-timeout: waits up to `timeout`; if
  /// the job is still live, requests cancellation and blocks until the
  /// cooperative unwind completes (bounded by one block's streaming
  /// time). Never throws; returns the terminal status -- done when the
  /// job beat the timeout (or finished during the race), cancelled /
  /// deadline_exceeded / failed otherwise.
  JobStatus wait_or_cancel(std::chrono::milliseconds timeout) {
    if (!wait_for(timeout)) cancel();
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return job_status_terminal(state_->status); });
    return state_->status;
  }

 private:
  friend class StencilEngine;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

}  // namespace fpga_stencil
