#include "engine/stencil_engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/stopwatch.hpp"
#include "program/program_executor.hpp"
#include "tune/host_autotuner.hpp"

namespace fpga_stencil {
namespace {

/// Whether a job opted into per-job telemetry: a hook on any node of its
/// program -- the opt-in that also gates the sync_pass and
/// block_parallel.worker spans.
bool carries_telemetry_hook(const ProgramSpec& program) {
  return std::any_of(
      program.nodes.begin(), program.nodes.end(),
      [](const KernelNode& n) { return n.config.telemetry != nullptr; });
}

/// Cancel-latency buckets: trip -> terminal is bounded by one block's
/// streaming time, so the interesting range is microseconds to tens of
/// milliseconds -- much finer than the decade-per-bucket job latencies.
std::vector<std::int64_t> cancel_latency_bounds_ns() {
  return {1'000,      10'000,      50'000,      100'000,      500'000,
          1'000'000,  5'000'000,   10'000'000,  50'000'000,   100'000'000,
          500'000'000, 1'000'000'000, 10'000'000'000};
}

/// Streams one grid through spec.sink in contiguous bands -- whole rows
/// (2D) or whole z-planes (3D), both contiguous in the row-major layouts,
/// so each chunk is one pointer + length into the grid with no staging
/// copies. `chunk` carries the field identity and the running ordinal
/// across calls; `final_grid` marks the stream's overall last band.
void stream_grid_bands(const GridVariant& grid, const JobSpec& spec,
                       ResultChunk& chunk, bool final_grid) {
  std::int64_t stride = 0, total = 0;
  const float* base = nullptr;
  if (grid.index() == 0) {
    const Grid2D<float>& g = std::get<Grid2D<float>>(grid);
    chunk.dims = 2;
    chunk.nx = g.nx();
    chunk.ny = g.ny();
    chunk.nz = 1;
    stride = g.nx();
    total = g.ny();
    base = g.data();
  } else {
    const Grid3D<float>& g = std::get<Grid3D<float>>(grid);
    chunk.dims = 3;
    chunk.nx = g.nx();
    chunk.ny = g.ny();
    chunk.nz = g.nz();
    stride = g.nx() * g.ny();
    total = g.nz();
    base = g.data();
  }
  const std::int64_t per_chunk =
      std::max<std::int64_t>(1, spec.chunk_values / std::max<std::int64_t>(
                                                        stride, 1));
  for (std::int64_t start = 0; start < total; start += per_chunk) {
    chunk.start = start;
    chunk.count = std::min(per_chunk, total - start);
    chunk.data = base + start * stride;
    chunk.values = std::size_t(chunk.count * stride);
    chunk.last = final_grid && start + chunk.count >= total;
    spec.sink(chunk);
    ++chunk.index;
  }
}

/// Result delivery: every non-work field of the job's program streams in
/// declaration order as its own chunk run (ResultChunk::field names it;
/// a single-stencil job's one field is "u"); the ordinal stays continuous
/// across fields and `last` marks the final band of the final deliverable
/// field.
void deliver_chunks(const ProgramSpec& program, const JobSpec& spec,
                    JobResult& result) {
  std::size_t last_deliverable = program.fields.size();
  for (std::size_t i = 0; i < program.fields.size(); ++i) {
    if (!program.fields[i].work) last_deliverable = i;
  }
  ResultChunk chunk;
  for (std::size_t i = 0; i < result.fields.size(); ++i) {
    if (program.fields[i].work) continue;
    chunk.field = result.fields[i].first;
    stream_grid_bands(result.fields[i].second, spec, chunk,
                      i == last_deliverable);
  }
  result.chunks_delivered = chunk.index;
  if (spec.sink_only) {
    // The stream was the delivery; free the server-side field copies now.
    result.fields.clear();
  }
}

}  // namespace

StencilEngine::StencilEngine(EngineOptions options)
    : options_(std::move(options)),
      telemetry_(options_.telemetry ? options_.telemetry : &own_telemetry_),
      plans_(options_.plan_cache_capacity),
      pool_(options_.pool_max_retained),
      breaker_(options_.breaker_threshold, options_.breaker_cooldown),
      queue_(std::vector<int>(options_.class_weights.begin(),
                              options_.class_weights.end())),
      paused_(options_.start_paused) {
  if (options_.metrics_prefix.empty()) options_.metrics_prefix = "engine";
  if (options_.autotune != AutotuneMode::off) {
    HostAutotunerOptions topts;
    topts.cache_path = options_.tuning_cache_path;
    topts.probe_cells = options_.autotune_probe_cells;
    tuner_ = std::make_unique<HostAutotuner>(std::move(topts));
  }
  const int workers = std::max(1, options_.workers);
  workers_.reserve(std::size_t(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

StencilEngine::~StencilEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == EngineState::running) state_ = EngineState::draining;
    stopping_ = true;
    paused_ = false;  // a parked pool must still drain accepted jobs
  }
  dispatch_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = EngineState::stopped;
  }
}

std::string StencilEngine::m(const char* suffix) const {
  return options_.metrics_prefix + "." + suffix;
}

std::shared_ptr<detail::JobState> StencilEngine::make_job_state(JobSpec spec) {
  // Cheap shape checks fail fast at the call site; full plan validation
  // happens in the worker and surfaces through the handle.
  validate_job_spec(spec);
  auto state = std::make_shared<detail::JobState>(std::move(spec));
  // The token is born at submit so a per-job deadline covers queue time:
  // a job that never leaves the queue in time still expires.
  state->token = state->spec.deadline.count() > 0
                     ? CancellationToken::with_timeout(state->spec.deadline)
                     : CancellationToken::make();
  return state;
}

JobHandle StencilEngine::admit(std::shared_ptr<detail::JobState> state) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (options_.admission == EngineOptions::Admission::reject) {
      if (queue_.size() >= options_.queue_capacity &&
          state_ == EngineState::running) {
        telemetry_->metrics().counter(m("jobs_rejected")).add(1);
        throw EngineOverloadedError(
            "engine admission queue is full (" +
            std::to_string(options_.queue_capacity) + " jobs)");
      }
    } else {
      space_cv_.wait(lock, [&] {
        return queue_.size() < options_.queue_capacity ||
               state_ != EngineState::running;
      });
    }
    if (state_ != EngineState::running) {
      telemetry_->metrics().counter(m("jobs_rejected")).add(1);
      throw EngineStoppedError(std::string("engine is ") +
                               engine_state_name(state_) +
                               "; submissions are closed");
    }
    state->enqueue_time = std::chrono::steady_clock::now();
    queue_.push(std::size_t(state->spec.qos), state->spec.priority, state);
    queue_high_water_ =
        std::max(queue_high_water_, std::int64_t(queue_.size()));
    telemetry_->metrics().counter(m("jobs_submitted")).add(1);
    telemetry_->metrics().gauge(m("queue_depth"))
        .set(std::int64_t(queue_.size()));
  }
  dispatch_cv_.notify_one();
  return JobHandle(std::move(state));
}

JobHandle StencilEngine::submit(JobSpec spec) {
  return admit(make_job_state(std::move(spec)));
}

JobResult StencilEngine::run(JobSpec spec) {
  JobHandle handle = submit(std::move(spec));
  return std::move(handle.wait());
}

void StencilEngine::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void StencilEngine::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  dispatch_cv_.notify_all();
}

void StencilEngine::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void StencilEngine::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == EngineState::running) state_ = EngineState::draining;
    paused_ = false;  // a parked pool must still drain accepted jobs
  }
  dispatch_cv_.notify_all();
  space_cv_.notify_all();  // blocked submitters wake and see the state
}

void StencilEngine::drain() {
  begin_drain();
  wait_idle();
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == EngineState::draining) state_ = EngineState::stopped;
}

bool StencilEngine::shutdown(std::chrono::milliseconds deadline) {
  begin_drain();
  bool graceful = true;
  {
    std::unique_lock<std::mutex> lock(mu_);
    graceful = idle_cv_.wait_for(
        lock, deadline, [&] { return queue_.empty() && active_ == 0; });
    if (!graceful) {
      // Patience exhausted: cancel everything still in flight. Queued
      // jobs finalize as cancelled at dispatch; running jobs unwind
      // cooperatively at block granularity.
      queue_.for_each([](std::shared_ptr<detail::JobState>& job) {
        job->token.request_cancel();
      });
      for (const auto& job : running_) job->token.request_cancel();
    }
  }
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == EngineState::draining) state_ = EngineState::stopped;
  }
  return graceful;
}

EngineState StencilEngine::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void StencilEngine::clear_caches() {
  plans_.clear();
  pool_.clear();
}

EngineStats StencilEngine::stats() const {
  EngineStats s;
  const MetricsSnapshot snap = telemetry_->metrics().snapshot();
  s.jobs_submitted = snap.value_or(m("jobs_submitted"), 0);
  s.jobs_completed = snap.value_or(m("jobs_completed"), 0);
  s.jobs_failed = snap.value_or(m("jobs_failed"), 0);
  s.jobs_rejected = snap.value_or(m("jobs_rejected"), 0);
  s.plan_cache_hits = plans_.hits();
  s.plan_cache_misses = plans_.misses();
  s.jobs_cancelled = snap.value_or(m("jobs_cancelled"), 0);
  s.deadline_exceeded = snap.value_or(m("deadline_exceeded"), 0);
  s.breaker_trips = breaker_.trips();
  s.breaker_reroutes = breaker_.reroutes();
  s.pool_acquires = pool_.acquires();
  s.pool_allocations = pool_.allocations();
  s.pool_reuses = pool_.reuses();
  s.tuner_cache_hits = snap.value_or(m("tuner.cache_hit"), 0);
  s.tuner_cache_misses = snap.value_or(m("tuner.cache_miss"), 0);
  s.tuner_search_runs = snap.value_or(m("tuner.search_runs"), 0);
  s.tuner_search_candidates = snap.value_or(m("tuner.search_candidates"), 0);
  s.tuner_search_ns = snap.value_or(m("tuner.search_ns"), 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_high_water = queue_high_water_;
  }
  return s;
}

void StencilEngine::worker_loop(int worker_id) {
  for (;;) {
    std::shared_ptr<detail::JobState> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      dispatch_cv_.wait(lock,
                        [&] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;  // woken by pause()/resume() races; re-wait
      }
      job = queue_.pop();
      job->dispatch_seq = dispatch_seq_++;
      job->dispatch_time = std::chrono::steady_clock::now();
      ++active_;
      running_.push_back(job);
      telemetry_->metrics().gauge(m("queue_depth"))
          .set(std::int64_t(queue_.size()));
    }
    space_cv_.notify_one();

    // A job whose token tripped while queued (cancel() on a queued
    // handle, deadline expiring in the queue, forced shutdown) never
    // starts executing: finalize it straight from the queue.
    if (job->token.cancel_requested()) {
      finish_cancelled(*job, job->token.cause() == CancelCause::deadline);
    } else {
      {
        std::lock_guard<std::mutex> job_lock(job->mu);
        job->status = JobStatus::running;
      }
      execute(*job, worker_id);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), job));
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void StencilEngine::execute(detail::JobState& job, int worker_id) {
  JobSpec& spec = job.spec;
  const std::int64_t queue_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - job.enqueue_time)
          .count();
  Tracer::Span span;
  const Stopwatch run_clock;
  try {
    // Every job is a program: a program job shares its spec, a
    // single-stencil job becomes the one-node adapter with its grid moved
    // in (the executor adopts it as the field's front buffer).
    std::optional<ProgramSpec> adapted;
    if (!spec.program) {
      adapted.emplace(single_stencil_program(spec.taps, spec.config,
                                             std::move(spec.grid),
                                             spec.iterations));
    }
    const ProgramSpec& program = adapted ? *adapted : *spec.program;
    // The tracer keeps every event for the engine's lifetime, so only
    // hooked jobs record a span: an untraced serving process stays flat.
    if (carries_telemetry_hook(program)) {
      span = telemetry_->tracer().span(
          m("job") + (spec.label.empty() ? "" : ":" + spec.label), worker_id,
          options_.metrics_prefix);
    }

    // One executor per job: the engine's plan cache, pool, tuner, breaker
    // and telemetry plus the job's knobs (src/program). It routes every
    // node and is the one place that knows backends.
    ProgramExecutor exec({.plans = &plans_, .pool = &pool_,
                          .tuner = tuner_.get(), .autotune = options_.autotune,
                          .telemetry = telemetry_,
                          .metrics_prefix = options_.metrics_prefix,
                          .backend = spec.backend, .workers = spec.workers,
                          .injector = spec.injector,
                          .watchdog_deadline = spec.watchdog_deadline,
                          .channel_depth = spec.channel_depth,
                          .resilience = spec.resilience, .boards = spec.boards,
                          .device = spec.device, .link = spec.link,
                          .breaker = &breaker_});
    ProgramOutcome outcome =
        adapted ? exec.run(std::move(*adapted), &job.token, worker_id)
                : exec.run(program, &job.token, worker_id);

    JobResult result;
    result.backend = outcome.backend;
    result.rerouted = outcome.rerouted;
    result.cluster = outcome.cluster;
    result.plan_cache_hit = outcome.all_plans_cached;
    result.plan_tuned = outcome.any_plan_tuned;
    result.kernel_fingerprint = outcome.fingerprint;
    result.label = spec.label;
    result.tenant = spec.tenant;
    result.qos = spec.qos;
    result.dispatch_seq = job.dispatch_seq;
    result.queue_ns = queue_ns;
    result.stats = outcome.stats;
    result.fields = std::move(outcome.fields);
    result.program_nodes_executed = outcome.nodes_executed;
    result.program_steps = outcome.steps_executed;
    if (spec.sink) deliver_chunks(program, spec, result);
    if (adapted && !result.fields.empty()) {
      // A single-stencil job hands its one field back as `grid`.
      result.grid = std::move(result.fields.front().second);
      result.fields.clear();
    }
    result.run_ns = run_clock.nanoseconds();
    record_job_metrics(*telemetry_, options_.metrics_prefix, queue_ns,
                       result.run_ns, result.stats.cells_written);
    telemetry_->metrics().counter(m("jobs_completed")).add(1);
    export_breaker_gauges();
    finish(job, std::move(result));
  } catch (const DeadlineExceededError&) {
    export_breaker_gauges();
    finish_cancelled(job, /*deadline=*/true);
  } catch (const CancelledError&) {
    export_breaker_gauges();
    finish_cancelled(job, /*deadline=*/false);
  } catch (...) {
    // The executor already charged the breaker for a backend failure.
    telemetry_->metrics().counter(m("jobs_failed")).add(1);
    telemetry_->tracer().instant(m("job_failed"), worker_id,
                                 options_.metrics_prefix);
    export_breaker_gauges();
    fail(job, std::current_exception());
  }
}

void StencilEngine::finish_cancelled(detail::JobState& job, bool deadline) {
  // Cancel latency: the later of token trip and dispatch -> job terminal.
  // For a running job it is the cooperative unwind (bounded by one
  // block's streaming time). A job cancelled while queued counts from its
  // dispatch: the wait before that is queue wait, which queue_wait_ns
  // measures, not the time a cancel takes to land.
  const std::int64_t latency_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() -
          std::max(job.token.cancelled_at(), job.dispatch_time))
          .count();
  telemetry_->metrics()
      .histogram(m("cancel_latency_ns"), cancel_latency_bounds_ns())
      .observe(std::max<std::int64_t>(latency_ns, 0));
  telemetry_->metrics()
      .counter(deadline ? m("deadline_exceeded") : m("jobs_cancelled"))
      .add(1);
  std::exception_ptr error =
      deadline ? std::make_exception_ptr(
                     DeadlineExceededError("job deadline exceeded"))
               : std::make_exception_ptr(CancelledError("job cancelled"));
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.error = std::move(error);
    job.status =
        deadline ? JobStatus::deadline_exceeded : JobStatus::cancelled;
  }
  notify_terminal(job);
  job.cv.notify_all();
}

void StencilEngine::export_breaker_gauges() {
  // 0 = closed, 1 = open, 2 = half_open (docs/OBSERVABILITY.md).
  for (const Backend b : CircuitBreaker::breakable_backends()) {
    telemetry_->metrics()
        .gauge(m("breaker_state.") + backend_name(b))
        .set(std::int64_t(breaker_.state(b)));
  }
}

void StencilEngine::notify_terminal(detail::JobState& job) {
  // Runs after the terminal state is recorded and before waiters are
  // released (spurious wakeups aside), so "wait() returned" implies the
  // hook already ran -- EngineCluster's quota release depends on that.
  if (!job.spec.on_terminal) return;
  JobStatus status;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    status = job.status;
  }
  job.spec.on_terminal(status);
}

void StencilEngine::finish(detail::JobState& job, JobResult result) {
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.result = std::move(result);
    job.status = JobStatus::done;
  }
  notify_terminal(job);
  job.cv.notify_all();
}

void StencilEngine::fail(detail::JobState& job, std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.error = std::move(error);
    job.status = JobStatus::failed;
  }
  notify_terminal(job);
  job.cv.notify_all();
}

}  // namespace fpga_stencil
