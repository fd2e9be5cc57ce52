// StencilEngine: one session object serving many stencil jobs.
//
// Before this subsystem every entry point was a free function that paid
// full setup per call -- validate the configuration, resolve the stage
// lag, build the blocking plan, allocate a scratch grid -- and callers
// wanting concurrency had to thread their own pool. The engine is the
// session API over the same executors:
//
//   StencilEngine engine;                         // owns a worker pool
//   JobHandle h = engine.submit(std::move(spec)); // bounded admission
//   JobResult& r = h.wait();                      // future-style
//
// Internally: an LRU PlanCache keyed by (tap-set fingerprint, config,
// grid extents) front-loads validation/planning once per distinct spec; a
// BufferPool recycles scratch storage across jobs (zero allocation growth
// after warm-up). Every job runs as a program on the worker that dequeued
// it: a single-stencil spec becomes single_stencil_program()'s one-node
// program, and ProgramExecutor (src/program) routes each node -- to the
// synchronous simulator, the block-parallel pool, the concurrent dataflow
// pipeline, the resilient runner, or the multi-FPGA cluster -- through
// the engine's circuit breaker. The engine itself keeps queueing,
// lifecycle, result assembly and chunk delivery.
//
// Observability: the engine tallies <prefix>.jobs_{submitted,completed,
// failed,rejected}, <prefix>.plan_cache_{hit,miss}, a <prefix>.queue_depth
// gauge (plus high-water), and per-job latency histograms -- into the
// attached Telemetry when EngineOptions::telemetry is set, else into an
// engine-local registry that stats() snapshots either way. The prefix
// defaults to "engine"; engines sharing one registry (EngineCluster
// shards) each get their own so counters never collide. Per-job fault
// injectors pass straight through to the executors, preserving the
// fault-injection semantics of the underlying runtimes.
//
// Failure isolation: a job that throws (ConfigError, exhausted resilient
// attempts, ...) marks only its own handle failed; workers, cache, and
// pool keep serving subsequent jobs.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/class_queue.hpp"
#include "engine/circuit_breaker.hpp"
#include "engine/job.hpp"
#include "engine/plan_cache.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {

struct EngineOptions {
  /// Worker threads executing jobs (min 1).
  int workers = 4;
  /// Bounded admission queue: jobs accepted but not yet dispatched.
  std::size_t queue_capacity = 64;
  /// What submit() does when the queue is full.
  enum class Admission {
    block,   ///< wait for space (backpressure propagates to the caller)
    reject,  ///< throw EngineOverloadedError immediately
  };
  Admission admission = Admission::block;
  /// Distinct (taps, config, extents) plans kept hot.
  std::size_t plan_cache_capacity = 32;
  /// Idle scratch buffers retained for reuse.
  std::size_t pool_max_retained = 64;
  /// Engine-level observability hook; null uses an engine-local registry.
  /// Either way stats() reads the same counters. Must outlive the engine.
  Telemetry* telemetry = nullptr;
  /// Start with workers parked: submissions queue but nothing dispatches
  /// until resume(). Deterministic backpressure tests rely on this.
  bool start_paused = false;
  /// Consecutive backend failures that open that backend's circuit
  /// breaker (jobs reroute to sync_sim until a half-open probe succeeds);
  /// 0 disables the breaker. Cancellations, deadline expiries, and
  /// ConfigErrors never count (they say nothing about backend health).
  int breaker_threshold = 3;
  /// Open -> half-open cooldown before a probe job is admitted.
  std::chrono::milliseconds breaker_cooldown{250};
  /// Prefix for every metric/span this engine records ("<prefix>.jobs_
  /// submitted", ...). Give each engine sharing one MetricsRegistry a
  /// distinct prefix or their counters collide -- EngineCluster sets
  /// "engine.shard<k>" per shard; a standalone engine keeps "engine".
  std::string metrics_prefix = "engine";
  /// Weighted round-robin shares of the admission queue per QosClass
  /// (interactive, standard, batch). See common/class_queue.hpp.
  std::array<int, kQosClassCount> class_weights{8, 4, 1};
  /// Empirical autotuning of plan geometry (docs/TUNING.md). `off` keeps
  /// the requested geometry; `cached_only` adopts a TuningCache winner
  /// when present but never probes; `search` probes once per cached plan
  /// (in the submitting worker, outside the admission lock) and persists
  /// the winner. Resolution happens during plan-cache builds only --
  /// cache-hit submissions never pay anything.
  AutotuneMode autotune = AutotuneMode::off;
  /// TuningCache file for the engine-owned tuner: "auto" resolves
  /// $FPGASTENCIL_TUNING_CACHE (unset -> in-memory), "" forces in-memory,
  /// anything else is a literal path. Ignored when autotune == off.
  std::string tuning_cache_path = "auto";
  /// Probe-slab budget override for the engine-owned tuner; 0 keeps the
  /// HostAutotuner default (see HostAutotunerOptions::probe_cells).
  std::int64_t autotune_probe_cells = 0;
};

/// Engine lifecycle (docs/LIFECYCLE.md). `paused` is orthogonal: a paused
/// engine is still running (accepting submissions), just not dispatching.
///
///   running --drain()/shutdown()--> draining --(idle)--> stopped
///
/// draining and stopped both reject submit() with EngineStoppedError;
/// the transition is one-way (no restart -- construct a new engine).
enum class EngineState { running, draining, stopped };

[[nodiscard]] constexpr const char* engine_state_name(EngineState s) {
  switch (s) {
    case EngineState::running: return "running";
    case EngineState::draining: return "draining";
    case EngineState::stopped: return "stopped";
  }
  return "?";
}

/// Point-in-time engine counters (monotonic over the engine's lifetime).
struct EngineStats {
  std::int64_t jobs_submitted = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_failed = 0;
  std::int64_t jobs_rejected = 0;
  std::int64_t jobs_cancelled = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t breaker_trips = 0;
  std::int64_t breaker_reroutes = 0;
  std::int64_t plan_cache_hits = 0;
  std::int64_t plan_cache_misses = 0;
  std::int64_t pool_acquires = 0;
  std::int64_t pool_allocations = 0;
  std::int64_t pool_reuses = 0;
  std::int64_t queue_high_water = 0;
  /// Autotuner activity (all zero when EngineOptions::autotune == off).
  /// tuner_cache_hits counts jobs served by an already-tuned plan -- from
  /// the plan cache or the TuningCache -- so after warm-up every job
  /// lands here; tuner_cache_misses counts plan builds that had to probe.
  std::int64_t tuner_cache_hits = 0;
  std::int64_t tuner_cache_misses = 0;
  std::int64_t tuner_search_runs = 0;
  std::int64_t tuner_search_candidates = 0;
  std::int64_t tuner_search_ns = 0;

  [[nodiscard]] double cache_hit_rate() const {
    const std::int64_t lookups = plan_cache_hits + plan_cache_misses;
    return lookups > 0 ? double(plan_cache_hits) / double(lookups) : 0.0;
  }
};

class StencilEngine {
 public:
  explicit StencilEngine(EngineOptions options = {});

  /// Finishes every accepted job (resuming paused workers), then joins
  /// the pool. Jobs already submitted are never dropped. Equivalent to
  /// drain() when the engine is still running.
  ~StencilEngine();

  StencilEngine(const StencilEngine&) = delete;
  StencilEngine& operator=(const StencilEngine&) = delete;

  /// Queues one job through the shared validated path (validate_job_spec;
  /// cheap spec errors throw ConfigError here, plan validation errors
  /// surface through the handle). The job is scheduled by its QosClass
  /// weight and priority. A full queue blocks or throws
  /// EngineOverloadedError per EngineOptions::admission.
  JobHandle submit(JobSpec spec);

  /// Synchronous convenience: submit + wait. Rethrows the job's error.
  JobResult run(JobSpec spec);

  /// Parks the workers after their current job; queued jobs stay queued.
  void pause();
  /// Unparks the workers.
  void resume();

  /// Blocks until no job is queued or running. Workers must not be
  /// paused (a paused engine never drains).
  void wait_idle();

  /// Graceful stop: rejects new submissions (EngineStoppedError), unparks
  /// the workers, and blocks until every accepted job reaches a terminal
  /// state. Idempotent; the engine ends in EngineState::stopped.
  void drain();

  /// drain() with a patience bound: waits up to `deadline` for accepted
  /// jobs to finish on their own, then requests cancellation on every job
  /// still queued or running and waits for the cooperative unwind (bounded
  /// by one block's streaming time per running job). Returns true when the
  /// engine drained gracefully, false when it had to cancel stragglers.
  bool shutdown(std::chrono::milliseconds deadline);

  [[nodiscard]] EngineState state() const;
  /// Breaker state for one backend (BreakerState::closed for unbreakable
  /// backends or when the breaker is disabled).
  [[nodiscard]] BreakerState breaker_state(Backend b) const {
    return breaker_.state(b);
  }

  /// Drops cached plans and pooled buffers (cold-start benchmarking).
  void clear_caches();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const PlanCache& plan_cache() const { return plans_; }
  [[nodiscard]] const BufferPool& buffer_pool() const { return pool_; }
  /// The engine-owned autotuner, or null when autotune == off.
  [[nodiscard]] HostAutotuner* autotuner() { return tuner_.get(); }
  /// The registry/tracer the engine records into (attached or local).
  [[nodiscard]] Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

 private:
  friend class EngineCluster;

  /// The admission seam shared with EngineCluster: the spec is already
  /// materialized (token armed) so a shard that turned out to be stopped
  /// throws EngineStoppedError *without consuming the state* and the
  /// cluster re-routes the same job to another shard -- drain loses
  /// nothing. submit() is make_job_state + admit.
  static std::shared_ptr<detail::JobState> make_job_state(JobSpec spec);
  JobHandle admit(std::shared_ptr<detail::JobState> state);

  void worker_loop(int worker_id);
  void execute(detail::JobState& job, int worker_id);
  void finish(detail::JobState& job, JobResult result);
  void fail(detail::JobState& job, std::exception_ptr error);
  /// Finalizes a cancelled / deadline-exceeded job: stores the error,
  /// bumps the counters, observes cancel latency (trip -> terminal).
  void finish_cancelled(detail::JobState& job, bool deadline);
  /// Runs the spec's on_terminal hook (exactly once per job, after the
  /// terminal state is recorded).
  void notify_terminal(detail::JobState& job);
  void begin_drain();
  void export_breaker_gauges();
  /// "<metrics_prefix>.<suffix>".
  [[nodiscard]] std::string m(const char* suffix) const;

  EngineOptions options_;
  Telemetry own_telemetry_;
  Telemetry* telemetry_;  ///< options_.telemetry or &own_telemetry_

  PlanCache plans_;
  BufferPool pool_;
  CircuitBreaker breaker_;
  /// Created in the constructor when options_.autotune != off; shared by
  /// every worker (HostAutotuner is thread-safe). Never touched on the
  /// plan-cache-hit path.
  std::unique_ptr<HostAutotuner> tuner_;

  mutable std::mutex mu_;
  std::condition_variable dispatch_cv_;  ///< workers: work available / stop
  std::condition_variable space_cv_;     ///< submitters: queue has room
  std::condition_variable idle_cv_;      ///< wait_idle: drained
  /// QoS-aware admission queue: weighted round-robin across classes,
  /// priority-then-FIFO within one (common/class_queue.hpp).
  WeightedClassQueue<std::shared_ptr<detail::JobState>> queue_;
  /// Jobs currently executing; shutdown() cancels through these.
  std::vector<std::shared_ptr<detail::JobState>> running_;
  int active_ = 0;  ///< jobs currently executing (== running_.size())
  bool paused_ = false;
  EngineState state_ = EngineState::running;
  bool stopping_ = false;  ///< destructor: workers exit when queue empty
  std::int64_t queue_high_water_ = 0;
  std::int64_t dispatch_seq_ = 0;  ///< next JobResult::dispatch_seq

  std::vector<std::thread> workers_;
};

}  // namespace fpga_stencil
