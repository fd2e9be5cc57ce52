// Tests for the StencilEngine session API: plan-cache accounting, buffer
// pool reuse across jobs, concurrent submission bit-exactness, admission
// backpressure, routing, and failure isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "engine/circuit_breaker.hpp"
#include "engine/stencil_engine.hpp"
#include "fault/fault_injector.hpp"
#include "grid/grid_compare.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

AcceleratorConfig cfg2d() {
  AcceleratorConfig c;
  c.dims = 2;
  c.radius = 1;
  c.bsize_x = 32;
  c.parvec = 4;
  c.partime = 2;
  return c;
}

AcceleratorConfig cfg3d() {
  AcceleratorConfig c;
  c.dims = 3;
  c.radius = 1;
  c.bsize_x = 16;
  c.bsize_y = 8;
  c.parvec = 4;
  c.partime = 2;
  return c;
}

Grid2D<float> grid2d(unsigned seed = 3) {
  Grid2D<float> g(48, 20);
  g.fill_random(seed);
  return g;
}

Grid3D<float> grid3d(unsigned seed = 4) {
  Grid3D<float> g(20, 14, 10);
  g.fill_random(seed);
  return g;
}

TEST(Engine, SingleJobMatchesReference) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  Grid2D<float> want = grid2d();
  reference_run(taps, want, 4);

  StencilEngine engine;
  JobResult result = engine.run(JobSpec(taps, cfg2d(), grid2d(), 4));
  EXPECT_TRUE(compare_exact(result.grid2d(), want).identical());
  EXPECT_EQ(result.backend, Backend::sync_sim);
  EXPECT_EQ(result.stats.time_steps, 4);
  EXPECT_NE(result.kernel_fingerprint, 0u);
  EXPECT_GE(result.run_ns, 0);
  EXPECT_GE(result.queue_ns, 0);
}

TEST(Engine, PlanCacheHitMissAccounting) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1});

  JobResult first = engine.run(JobSpec(taps, cfg2d(), grid2d(), 2));
  EXPECT_FALSE(first.plan_cache_hit);
  JobResult second = engine.run(JobSpec(taps, cfg2d(), grid2d(), 2));
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(first.kernel_fingerprint, second.kernel_fingerprint);
  // A different grid shape is a different plan.
  Grid2D<float> other(64, 20);
  other.fill_random(3);
  JobResult third = engine.run(JobSpec(taps, cfg2d(), std::move(other), 2));
  EXPECT_FALSE(third.plan_cache_hit);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.plan_cache_hits, 1);
  EXPECT_EQ(stats.plan_cache_misses, 2);
  EXPECT_EQ(stats.jobs_submitted, 3);
  EXPECT_EQ(stats.jobs_completed, 3);
  EXPECT_EQ(stats.jobs_failed, 0);
  // The engine-local telemetry carries the same counters.
  const MetricsSnapshot snap = engine.telemetry().metrics().snapshot();
  EXPECT_EQ(snap.value_or("engine.plan_cache_hit", -1), 1);
  EXPECT_EQ(snap.value_or("engine.plan_cache_miss", -1), 2);
  EXPECT_EQ(snap.value_or("engine.jobs_completed", -1), 3);
}

TEST(Engine, BufferPoolStopsAllocatingAfterWarmup) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1});

  (void)engine.run(JobSpec(taps, cfg2d(), grid2d(), 3));
  const std::int64_t warm_allocations = engine.stats().pool_allocations;
  for (int i = 0; i < 8; ++i) {
    (void)engine.run(JobSpec(taps, cfg2d(), grid2d(unsigned(i)), 3));
  }
  const EngineStats stats = engine.stats();
  // Zero buffer growth after warm-up: every later job reuses the first
  // job's scratch storage.
  EXPECT_EQ(stats.pool_allocations, warm_allocations);
  EXPECT_GE(stats.pool_reuses, 8);
  EXPECT_EQ(stats.pool_acquires, 9);
}

TEST(Engine, ConcurrentStress64JobsBitExact) {
  const TapSet star2 = StarStencil::make_benchmark(2, 1, 5).to_taps();
  const TapSet box2 = make_box_stencil(2, 1, 21);
  const TapSet star3 = StarStencil::make_benchmark(3, 1, 9).to_taps();
  const int iters = 3;

  // Expected outputs, one per distinct spec, via the naive reference.
  Grid2D<float> want_star2 = grid2d();
  reference_run(star2, want_star2, iters);
  Grid2D<float> want_box2 = grid2d();
  reference_run(box2, want_box2, iters);
  Grid3D<float> want_star3 = grid3d();
  reference_run(star3, want_star3, iters);

  StencilEngine engine({.workers = 4, .queue_capacity = 128});
  // Warm the cache so the stress-phase hit rate is deterministic (>0.9
  // requires the misses to be bounded by the distinct spec count).
  (void)engine.run(JobSpec(star2, cfg2d(), grid2d(), iters));
  (void)engine.run(JobSpec(box2, cfg2d(), grid2d(), iters));
  (void)engine.run(JobSpec(star3, cfg3d(), grid3d(), iters));

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 16;
  std::vector<std::vector<JobHandle>> handles(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        const int kind = (t + i) % 4;
        JobSpec spec = [&]() -> JobSpec {
          switch (kind) {
            case 0: return {star2, cfg2d(), grid2d(), iters};
            case 1: return {box2, cfg2d(), grid2d(), iters};
            case 2: return {star3, cfg3d(), grid3d(), iters};
            default: {
              JobSpec s(star2, cfg2d(), grid2d(), iters);
              s.backend = Backend::concurrent;
              return s;
            }
          }
        }();
        handles[std::size_t(t)].push_back(engine.submit(std::move(spec)));
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  int verified = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kJobsPerThread; ++i) {
      JobResult& r = handles[std::size_t(t)][std::size_t(i)].wait();
      switch ((t + i) % 4) {
        case 2:
          EXPECT_TRUE(compare_exact(r.grid3d(), want_star3).identical());
          break;
        case 1:
          EXPECT_TRUE(compare_exact(r.grid2d(), want_box2).identical());
          break;
        default:
          EXPECT_TRUE(compare_exact(r.grid2d(), want_star2).identical());
          break;
      }
      ++verified;
    }
  }
  EXPECT_EQ(verified, kThreads * kJobsPerThread);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_submitted, 3 + 64);
  EXPECT_EQ(stats.jobs_completed, 3 + 64);
  EXPECT_EQ(stats.jobs_failed, 0);
  EXPECT_GT(stats.cache_hit_rate(), 0.9);
}

TEST(Engine, RejectAdmissionThrowsWhenQueueIsFull) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1,
                        .queue_capacity = 2,
                        .admission = EngineOptions::Admission::reject,
                        .start_paused = true});
  JobHandle a = engine.submit(JobSpec(taps, cfg2d(), grid2d(), 2));
  JobHandle b = engine.submit(JobSpec(taps, cfg2d(), grid2d(), 2));
  EXPECT_THROW((void)engine.submit(JobSpec(taps, cfg2d(), grid2d(), 2)),
               EngineOverloadedError);
  EXPECT_EQ(engine.stats().jobs_rejected, 1);

  engine.resume();
  (void)a.wait();
  (void)b.wait();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_completed, 2);
  EXPECT_EQ(stats.queue_high_water, 2);
}

TEST(Engine, BlockAdmissionBoundsTheQueue) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  std::vector<JobHandle> handles;
  {
    StencilEngine engine({.workers = 1,
                          .queue_capacity = 1,
                          .admission = EngineOptions::Admission::block,
                          .start_paused = true});
    std::thread submitter([&] {
      for (int i = 0; i < 4; ++i) {
        handles.push_back(engine.submit(JobSpec(taps, cfg2d(), grid2d(), 2)));
      }
    });
    // The submitter blocks on the full queue until workers drain it.
    engine.resume();
    submitter.join();
    // Backpressure held the queue at its capacity the whole time.
    EXPECT_LE(engine.stats().queue_high_water, 1);
  }  // engine destructor drains every accepted job
  for (JobHandle& h : handles) {
    EXPECT_NO_THROW((void)h.wait());
  }
}

TEST(Engine, FailedJobDoesNotPoisonSubsequentJobs) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1});

  AcceleratorConfig bad = cfg2d();
  bad.bsize_x = 4;  // halo eats the block: plan validation fails
  JobHandle failing = engine.submit(JobSpec(taps, bad, grid2d(), 2));
  EXPECT_THROW((void)failing.wait(), ConfigError);
  EXPECT_EQ(failing.status(), JobStatus::failed);

  Grid2D<float> want = grid2d();
  reference_run(taps, want, 4);
  JobResult ok = engine.run(JobSpec(taps, cfg2d(), grid2d(), 4));
  EXPECT_TRUE(compare_exact(ok.grid2d(), want).identical());

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_failed, 1);
  EXPECT_EQ(stats.jobs_completed, 1);
}

TEST(Engine, FaultInjectedJobIsServedResilientlyAndIsolated) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  Grid2D<float> want = grid2d();
  reference_run(taps, want, 4);

  FaultInjector injector(FaultPlan::parse("seed=3,kernel_hang:n=1"));
  StencilEngine engine({.workers = 1});

  JobSpec faulty(taps, cfg2d(), grid2d(), 4);
  faulty.injector = &injector;  // automatic routing -> resilient runner
  JobResult r = engine.run(std::move(faulty));
  EXPECT_EQ(r.backend, Backend::resilient);
  EXPECT_TRUE(compare_exact(r.grid2d(), want).identical());
  EXPECT_GE(r.stats.watchdog_trips + r.stats.checksum_failures +
                r.stats.faults_injected,
            1);

  // The next (clean) job sees a healthy engine.
  JobResult clean = engine.run(JobSpec(taps, cfg2d(), grid2d(), 4));
  EXPECT_EQ(clean.backend, Backend::sync_sim);
  EXPECT_TRUE(compare_exact(clean.grid2d(), want).identical());
  EXPECT_EQ(engine.stats().jobs_failed, 0);
}

TEST(Engine, RoutesClusterJobsAndStaysBitExact) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  Grid2D<float> want = grid2d();
  reference_run(taps, want, 4);

  StencilEngine engine;
  JobSpec spec(taps, cfg2d(), grid2d(), 4);
  spec.boards = 3;  // automatic routing -> cluster
  JobResult r = engine.run(std::move(spec));
  EXPECT_EQ(r.backend, Backend::cluster);
  EXPECT_EQ(r.cluster.boards, 3);
  EXPECT_GT(r.cluster.total_seconds, 0.0);
  EXPECT_TRUE(compare_exact(r.grid2d(), want).identical());
}

TEST(Engine, PerSpecSubmitPreservesOrderAndCompletes) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 2});
  std::vector<JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    JobSpec s(taps, cfg2d(), grid2d(), 2);
    s.label = "batch-" + std::to_string(i);
    handles.push_back(engine.submit(std::move(s)));
  }
  ASSERT_EQ(handles.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(handles[std::size_t(i)].wait().label,
              "batch-" + std::to_string(i));
  }
  engine.wait_idle();
  EXPECT_EQ(engine.stats().jobs_completed, 8);
}

TEST(Engine, SubmitRejectsMismatchedDimsEagerly) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine;
  // 2D config, 3D grid: caught at submit, not in the worker.
  EXPECT_THROW((void)engine.submit(JobSpec(taps, cfg2d(), grid3d(), 2)),
               ConfigError);
  JobSpec negative(taps, cfg2d(), grid2d(), -1);
  EXPECT_THROW((void)engine.submit(std::move(negative)), ConfigError);
}

// -------------------------------------------------------------------------
// Cancellation, deadlines, lifecycle, and the circuit breaker (PR 6).

/// A spec big enough that the job is still running when a cancel lands.
JobSpec slow_spec(const TapSet& taps) {
  Grid2D<float> g(256, 192);
  g.fill_random(9);
  return JobSpec(taps, cfg2d(), std::move(g), 5000);
}

TEST(EngineCancel, RunningBlockParallelJobCancelsWithinOneBlockTime) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 2});
  JobSpec spec = slow_spec(taps);
  spec.backend = Backend::block_parallel;
  spec.workers = 4;
  JobHandle h = engine.submit(std::move(spec));
  // Let it get properly underway before cancelling.
  while (h.status() == JobStatus::queued) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto cancel_at = std::chrono::steady_clock::now();
  h.cancel();
  // Acceptance bound: terminal within one block's streaming time; 2 s is
  // orders of magnitude above that for this spec, immune to CI jitter.
  ASSERT_TRUE(h.wait_for(std::chrono::milliseconds(2000)));
  const auto latency = std::chrono::steady_clock::now() - cancel_at;
  EXPECT_LT(latency, std::chrono::milliseconds(2000));
  EXPECT_EQ(h.status(), JobStatus::cancelled);
  EXPECT_THROW((void)h.wait(), CancelledError);
  engine.wait_idle();
  // Cooperative unwind returned every lease (scratch + worker lanes).
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
  EXPECT_EQ(engine.stats().jobs_cancelled, 1);
  EXPECT_EQ(engine.stats().jobs_failed, 0);
}

TEST(EngineCancel, QueuedJobNeverRunsAndSiblingsAreUnaffected) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  Grid2D<float> want = grid2d();
  reference_run(taps, want, 4);

  StencilEngine engine({.workers = 1, .start_paused = true});
  JobHandle keep = engine.submit(JobSpec(taps, cfg2d(), grid2d(), 4));
  JobHandle drop = engine.submit(JobSpec(taps, cfg2d(), grid2d(), 4));
  drop.cancel();  // still parked in the queue
  engine.resume();
  JobResult& r = keep.wait();
  EXPECT_TRUE(compare_exact(r.grid2d(), want).identical());
  EXPECT_THROW((void)drop.wait(), CancelledError);
  EXPECT_EQ(drop.status(), JobStatus::cancelled);
  engine.wait_idle();
  // The cancelled job never executed: exactly one job's worth of work.
  EXPECT_EQ(engine.stats().jobs_completed, 1);
  EXPECT_EQ(engine.stats().jobs_cancelled, 1);
}

TEST(EngineCancel, DeadlineExpiresInQueue) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1, .start_paused = true});
  JobSpec spec(taps, cfg2d(), grid2d(), 4);
  spec.deadline = std::chrono::milliseconds(10);
  JobHandle h = engine.submit(std::move(spec));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  engine.resume();
  EXPECT_THROW((void)h.wait(), DeadlineExceededError);
  EXPECT_EQ(h.status(), JobStatus::deadline_exceeded);
  EXPECT_EQ(engine.stats().deadline_exceeded, 1);
  EXPECT_EQ(engine.stats().jobs_cancelled, 0);
}

TEST(EngineCancel, DeadlineExpiresMidRun) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1});
  JobSpec spec = slow_spec(taps);
  spec.deadline = std::chrono::milliseconds(30);
  JobHandle h = engine.submit(std::move(spec));
  ASSERT_TRUE(h.wait_for(std::chrono::milliseconds(5000)));
  EXPECT_EQ(h.status(), JobStatus::deadline_exceeded);
  EXPECT_THROW((void)h.wait(), DeadlineExceededError);
  engine.wait_idle();
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
}

TEST(EngineCancel, WaitOrCancelComposesWaitAndCancel) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 2});
  // A fast job beats the timeout: done, nothing cancelled.
  JobHandle fast = engine.submit(JobSpec(taps, cfg2d(), grid2d(), 2));
  EXPECT_EQ(fast.wait_or_cancel(std::chrono::milliseconds(10000)),
            JobStatus::done);
  // A slow job does not: wait_or_cancel cancels it and reports so,
  // without throwing.
  JobHandle slow = engine.submit(slow_spec(taps));
  EXPECT_EQ(slow.wait_or_cancel(std::chrono::milliseconds(20)),
            JobStatus::cancelled);
  engine.wait_idle();
  EXPECT_EQ(engine.stats().jobs_cancelled, 1);
}

TEST(EngineLifecycle, DrainFinishesAcceptedAndRejectsNew) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  Grid2D<float> want = grid2d();
  reference_run(taps, want, 4);

  StencilEngine engine({.workers = 2, .start_paused = true});
  EXPECT_EQ(engine.state(), EngineState::running);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(engine.submit(JobSpec(taps, cfg2d(), grid2d(), 4)));
  }
  engine.drain();  // unparks the pool, runs everything accepted
  EXPECT_EQ(engine.state(), EngineState::stopped);
  for (JobHandle& h : handles) {
    EXPECT_TRUE(compare_exact(h.wait().grid2d(), want).identical());
  }
  EXPECT_THROW((void)engine.submit(JobSpec(taps, cfg2d(), grid2d(), 2)),
               EngineStoppedError);
  EXPECT_EQ(engine.stats().jobs_completed, 4);
}

TEST(EngineLifecycle, ShutdownDeadlineCancelsStragglers) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1});
  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i) handles.push_back(engine.submit(slow_spec(taps)));
  // Far too little patience for three slow jobs on one worker: the
  // engine must cancel the stragglers and still come down cleanly.
  EXPECT_FALSE(engine.shutdown(std::chrono::milliseconds(30)));
  EXPECT_EQ(engine.state(), EngineState::stopped);
  int cancelled = 0;
  for (JobHandle& h : handles) {
    ASSERT_TRUE(h.finished());
    if (h.status() == JobStatus::cancelled) ++cancelled;
  }
  EXPECT_GE(cancelled, 1);
  EXPECT_EQ(engine.buffer_pool().outstanding(), 0);
  EXPECT_THROW((void)engine.submit(JobSpec(taps, cfg2d(), grid2d(), 2)),
               EngineStoppedError);
}

TEST(EngineLifecycle, ShutdownIsGracefulWhenJobsFinishInTime) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 2});
  JobHandle h = engine.submit(JobSpec(taps, cfg2d(), grid2d(), 4));
  EXPECT_TRUE(engine.shutdown(std::chrono::milliseconds(10000)));
  EXPECT_EQ(h.status(), JobStatus::done);
  EXPECT_EQ(engine.stats().jobs_cancelled, 0);
}

TEST(EngineBreaker, TripsReroutesAndRecovers) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  Grid2D<float> want = grid2d();
  reference_run(taps, want, 4);

  StencilEngine engine({.workers = 1,
                        .breaker_threshold = 2,
                        .breaker_cooldown = std::chrono::milliseconds(50)});
  // Two consecutive fault-injected failures on the concurrent backend.
  // Per-job injectors: each hang is private to its job.
  for (int i = 0; i < 2; ++i) {
    FaultInjector fi(FaultPlan::parse("seed=" + std::to_string(i + 1) +
                                      ",kernel_hang:p=1:n=inf"));
    JobSpec spec(taps, cfg2d(), grid2d(), 4);
    spec.backend = Backend::concurrent;  // explicit: no resilient rescue
    spec.injector = &fi;
    spec.watchdog_deadline = std::chrono::milliseconds(40);
    JobHandle h = engine.submit(std::move(spec));
    EXPECT_THROW((void)h.wait(), PassAbortedError);
    engine.wait_idle();  // the injector must outlive the execution
  }
  EXPECT_EQ(engine.breaker_state(Backend::concurrent), BreakerState::open);
  EXPECT_GE(engine.stats().breaker_trips, 1);

  // While open, concurrent jobs reroute to the sync fallback -- and
  // still produce the bit-exact answer.
  JobSpec rerouted(taps, cfg2d(), grid2d(), 4);
  rerouted.backend = Backend::concurrent;
  JobResult r = engine.run(std::move(rerouted));
  EXPECT_TRUE(r.rerouted);
  EXPECT_EQ(r.backend, Backend::sync_sim);
  EXPECT_TRUE(compare_exact(r.grid2d(), want).identical());
  EXPECT_GE(engine.stats().breaker_reroutes, 1);

  // After the cooldown a clean probe closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  JobSpec probe(taps, cfg2d(), grid2d(), 4);
  probe.backend = Backend::concurrent;
  JobResult pr = engine.run(std::move(probe));
  EXPECT_FALSE(pr.rerouted);
  EXPECT_EQ(pr.backend, Backend::concurrent);
  EXPECT_TRUE(compare_exact(pr.grid2d(), want).identical());
  EXPECT_EQ(engine.breaker_state(Backend::concurrent), BreakerState::closed);
  // Other backends were never charged.
  EXPECT_EQ(engine.breaker_state(Backend::block_parallel),
            BreakerState::closed);
}

TEST(EngineBreaker, ConfigErrorsDoNotCharge) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1, .breaker_threshold = 1});
  // A spec whose plan validation fails in the worker: bsize too small
  // for the halo leaves no compute region.
  AcceleratorConfig bad = cfg2d();
  bad.bsize_x = 2 * bad.partime * bad.radius;  // csize == 0
  JobSpec spec(taps, bad, grid2d(), 2);
  spec.backend = Backend::block_parallel;
  JobHandle h = engine.submit(std::move(spec));
  EXPECT_THROW((void)h.wait(), ConfigError);
  // Even at threshold 1 the breaker stays closed: the spec was at
  // fault, not the backend.
  EXPECT_EQ(engine.breaker_state(Backend::block_parallel),
            BreakerState::closed);
  EXPECT_EQ(engine.stats().breaker_trips, 0);
}

TEST(EngineBreaker, StaleProbeReleaseLeavesALaterProbesSlot) {
  // Threshold 1, no cooldown: every failure opens the breaker and the next
  // route is a probe.
  CircuitBreaker breaker(1, std::chrono::milliseconds(0));
  const Backend bp = Backend::block_parallel;
  breaker.on_failure(bp);
  const CircuitBreaker::Decision p = breaker.route(bp);
  ASSERT_NE(p.probe, 0u);
  // A straggler from before the trip fails: the breaker reopens, and the
  // next job is a new probe.
  breaker.on_failure(bp);
  const CircuitBreaker::Decision q = breaker.route(bp);
  ASSERT_NE(q.probe, 0u);
  EXPECT_NE(q.probe, p.probe);
  // The first probe is cancelled: its release must not free the second's
  // slot, so the next job still reroutes.
  breaker.release_probe(bp, p.probe);
  EXPECT_TRUE(breaker.route(bp).rerouted);
  // The second probe is cancelled: the next job is the probe.
  breaker.release_probe(bp, q.probe);
  const CircuitBreaker::Decision r = breaker.route(bp);
  EXPECT_FALSE(r.rerouted);
  EXPECT_NE(r.probe, 0u);
  EXPECT_EQ(breaker.state(bp), BreakerState::half_open);
}

// -------------------------------------------------------------------------
// Serving-tier JobSpec surface (PR 8): QoS scheduling, metric prefixes,
// chunked delivery, terminal hooks.

TEST(EngineQos, InteractiveDispatchesBeforeBatchBacklog) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1, .queue_capacity = 64,
                        .start_paused = true});
  std::vector<JobHandle> batch, interactive;
  for (int i = 0; i < 6; ++i) {
    JobSpec s(taps, cfg2d(), grid2d(), 2);
    s.qos = QosClass::batch;
    batch.push_back(engine.submit(std::move(s)));
  }
  for (int i = 0; i < 2; ++i) {
    JobSpec s(taps, cfg2d(), grid2d(), 2);
    s.qos = QosClass::interactive;
    interactive.push_back(engine.submit(std::move(s)));
  }
  engine.resume();
  // Despite submitting last into a 6-deep batch backlog, the interactive
  // jobs are dispatched first (weights 8/4/1, one worker).
  std::int64_t max_interactive = -1, min_batch = 1 << 20;
  for (JobHandle& h : interactive) {
    max_interactive = std::max(max_interactive, h.wait().dispatch_seq);
  }
  for (JobHandle& h : batch) {
    min_batch = std::min(min_batch, h.wait().dispatch_seq);
  }
  EXPECT_LT(max_interactive, min_batch);
  EXPECT_EQ(max_interactive, 1);  // seqs 0 and 1
}

TEST(EngineQos, PriorityBreaksTiesWithinOneClass) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1, .start_paused = true});
  JobSpec low(taps, cfg2d(), grid2d(), 2);
  low.priority = 0;
  JobSpec high(taps, cfg2d(), grid2d(), 2);
  high.priority = 7;
  JobHandle hl = engine.submit(std::move(low));
  JobHandle hh = engine.submit(std::move(high));
  engine.resume();
  EXPECT_LT(hh.wait().dispatch_seq, hl.wait().dispatch_seq);
}

TEST(EngineTelemetry, DistinctPrefixesDoNotCollideInOneRegistry) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  Telemetry shared;
  StencilEngine a({.workers = 1, .telemetry = &shared,
                   .metrics_prefix = "engine.shard0"});
  StencilEngine b({.workers = 1, .telemetry = &shared,
                   .metrics_prefix = "engine.shard1"});
  (void)a.run(JobSpec(taps, cfg2d(), grid2d(), 2));
  (void)a.run(JobSpec(taps, cfg2d(), grid2d(), 2));
  (void)b.run(JobSpec(taps, cfg2d(), grid2d(), 2));
  // Each engine's stats() reads back only its own counters.
  EXPECT_EQ(a.stats().jobs_completed, 2);
  EXPECT_EQ(b.stats().jobs_completed, 1);
  const MetricsSnapshot snap = shared.metrics().snapshot();
  EXPECT_EQ(snap.value_or("engine.shard0.jobs_completed", -1), 2);
  EXPECT_EQ(snap.value_or("engine.shard1.jobs_completed", -1), 1);
  // Nothing leaked into the legacy shared name.
  EXPECT_EQ(snap.value_or("engine.jobs_completed", -1), -1);
}

TEST(EngineTelemetry, OnlyHookedJobsRecordJobSpans) {
  // The tracer keeps every event for the engine's lifetime: untraced jobs
  // must leave it empty, or a serving process grows without bound.
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1});
  for (int i = 0; i < 16; ++i) {
    JobSpec spec(taps, cfg2d(), grid2d(), 2);
    spec.label = "plain";
    (void)engine.run(std::move(spec));
  }
  EXPECT_EQ(engine.telemetry().tracer().event_count(), 0u);

  Telemetry hook;
  AcceleratorConfig traced_cfg = cfg2d();
  traced_cfg.telemetry = &hook;
  JobSpec traced(taps, traced_cfg, grid2d(), 2);
  traced.label = "traced";
  (void)engine.run(std::move(traced));
  engine.wait_idle();  // the span closes after the result is delivered
  const std::vector<std::string> names =
      engine.telemetry().tracer().event_names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "engine.job:traced"), 1);
  EXPECT_EQ(std::count(names.begin(), names.end(), "engine.job:plain"), 0);
}

TEST(EngineChunks, SinkReceivesOrderedBandsThatReassembleExactly) {
  const TapSet taps = StarStencil::make_benchmark(3, 1, 9).to_taps();
  Grid3D<float> want = grid3d();
  reference_run(taps, want, 3);

  StencilEngine engine({.workers = 1});
  JobSpec spec(taps, cfg3d(), grid3d(), 3);
  std::vector<float> assembled(std::size_t(20 * 14 * 10), -1.0f);
  std::int64_t chunks = 0, planes = 0;
  bool saw_last = false;
  spec.chunk_values = 20 * 14 * 2;  // two z-planes per chunk
  spec.sink = [&](const ResultChunk& c) {
    EXPECT_EQ(c.dims, 3);
    EXPECT_EQ(c.index, chunks);
    EXPECT_EQ(c.start, planes);
    std::copy(c.data, c.data + c.values,
              assembled.begin() + c.start * c.nx * c.ny);
    planes += c.count;
    ++chunks;
    saw_last = c.last;
  };
  JobResult r = engine.run(std::move(spec));
  EXPECT_EQ(chunks, 5);
  EXPECT_EQ(planes, 10);
  EXPECT_TRUE(saw_last);
  EXPECT_EQ(r.chunks_delivered, chunks);
  // The stream reassembles to exactly the grid the result carries, which
  // itself matches the reference.
  EXPECT_TRUE(compare_exact(r.grid3d(), want).identical());
  ASSERT_EQ(assembled.size(), r.grid3d().size());
  EXPECT_TRUE(
      std::equal(assembled.begin(), assembled.end(), r.grid3d().data()));
}

TEST(EngineChunks, SinkOnlyDropsTheServerSideGrid) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  Grid2D<float> want = grid2d();
  reference_run(taps, want, 4);

  StencilEngine engine({.workers = 1});
  JobSpec spec(taps, cfg2d(), grid2d(), 4);
  Grid2D<float> assembled(48, 20);
  spec.sink = [&](const ResultChunk& c) {
    std::copy(c.data, c.data + c.values,
              assembled.data() + c.start * c.nx);
  };
  spec.sink_only = true;
  JobResult r = engine.run(std::move(spec));
  // The result grid is a placeholder; the stream was the delivery.
  EXPECT_EQ(r.grid2d().nx(), 1);
  EXPECT_GE(r.chunks_delivered, 1);
  EXPECT_TRUE(compare_exact(assembled, want).identical());
}

TEST(EngineHooks, OnTerminalFiresExactlyOncePerOutcome) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1});

  std::atomic<int> done_calls{0};
  JobSpec ok(taps, cfg2d(), grid2d(), 2);
  ok.on_terminal = [&](JobStatus s) {
    EXPECT_EQ(s, JobStatus::done);
    ++done_calls;
  };
  (void)engine.run(std::move(ok));
  EXPECT_EQ(done_calls.load(), 1);

  std::atomic<int> cancel_calls{0};
  StencilEngine paused({.workers = 1, .start_paused = true});
  JobSpec doomed(taps, cfg2d(), grid2d(), 2);
  doomed.on_terminal = [&](JobStatus s) {
    EXPECT_EQ(s, JobStatus::cancelled);
    ++cancel_calls;
  };
  JobHandle h = paused.submit(std::move(doomed));
  h.cancel();
  paused.resume();
  EXPECT_THROW((void)h.wait(), CancelledError);
  paused.wait_idle();
  EXPECT_EQ(cancel_calls.load(), 1);
}

TEST(EngineCancel, CancelLatencyHistogramIsRecorded) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1});
  JobHandle h = engine.submit(slow_spec(taps));
  while (h.status() == JobStatus::queued) std::this_thread::yield();
  h.cancel();
  (void)h.wait_or_cancel(std::chrono::milliseconds(5000));
  engine.wait_idle();
  const MetricsSnapshot snap = engine.telemetry().metrics().snapshot();
  const MetricSample* lat = snap.find("engine.cancel_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->value, 1);  // one observation
  EXPECT_GT(lat->sum, 0);
  EXPECT_EQ(snap.value_or("engine.jobs_cancelled", -1), 1);
}

TEST(EngineCancel, QueuedCancelLatencyExcludesTheQueueWait) {
  // A job cancelled while queued behind a >= 60 ms job is finalized the
  // moment a worker pops it: its cancel latency counts from that dispatch,
  // not from the trip, so it stays far below the blocker's run time.
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  StencilEngine engine({.workers = 1});
  // The blocker holds the only worker in its chunk sink until the second
  // job is queued and cancelled, then 60 ms more, and completes normally:
  // the cancelled job's latency is the one observation.
  std::atomic<bool> cancelled{false};
  JobSpec blocking(taps, cfg2d(), grid2d(), 2);
  blocking.sink = [&](const ResultChunk& c) {
    if (c.index != 0) return;
    while (!cancelled.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };
  JobHandle blocker = engine.submit(std::move(blocking));
  while (blocker.status() == JobStatus::queued) std::this_thread::yield();
  JobHandle queued = engine.submit(JobSpec(taps, cfg2d(), grid2d(), 2));
  queued.cancel();
  cancelled.store(true);
  (void)blocker.wait();
  EXPECT_THROW((void)queued.wait(), CancelledError);
  engine.wait_idle();
  const MetricsSnapshot snap = engine.telemetry().metrics().snapshot();
  const MetricSample* lat = snap.find("engine.cancel_latency_ns");
  ASSERT_NE(lat, nullptr);
  ASSERT_EQ(lat->value, 1);
  EXPECT_LT(lat->sum, 10'000'000)
      << "a queued job's cancel latency counted its queue wait";
}

// -------------------------------------------------------------------------
// One job path: a single-stencil job runs as its one-node program, in
// place on the grid it moved in, over the pool leases it always took.

TEST(EnginePool, SingleStencilJobLeasesOneGridSizedScratch) {
  // At 1, 2 and 3 passes, on every backend: one grid-sized scratch, plus
  // one lane lease per block-parallel worker (the 160-wide grid has 6
  // blocks, more than either worker count). The cluster model touches no
  // scratch; it may take the lease or not.
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  const auto input = [] {
    Grid2D<float> g(160, 24);
    g.fill_random(17);
    return g;
  };
  struct Case {
    const char* name;
    Backend backend;
    int workers;
    int boards;
  };
  const Case cases[] = {
      {"sync_sim", Backend::sync_sim, 1, 1},
      {"block_parallel x2", Backend::block_parallel, 2, 1},
      {"block_parallel x3", Backend::block_parallel, 3, 1},
      {"concurrent", Backend::concurrent, 1, 1},
      {"resilient", Backend::resilient, 1, 1},
      {"cluster", Backend::cluster, 1, 3},
  };
  for (const int passes : {1, 2, 3}) {
    const int iters = passes * cfg2d().partime;
    Grid2D<float> want = input();
    reference_run(taps, want, iters);
    for (const Case& c : cases) {
      const std::string label =
          std::string(c.name) + ", " + std::to_string(passes) + " passes";
      StencilEngine engine({.workers = 1});
      // The resilient run survives one injected hang under the watchdog.
      FaultInjector injector(FaultPlan::parse("seed=3,kernel_hang:n=1"));
      JobSpec spec(taps, cfg2d(), input(), iters);
      spec.backend = c.backend;
      spec.workers = c.workers;
      spec.boards = c.boards;
      if (c.backend == Backend::resilient) {
        spec.injector = &injector;
        spec.watchdog_deadline = std::chrono::milliseconds(40);
      }
      const JobResult r = engine.run(std::move(spec));
      EXPECT_EQ(r.backend, c.backend) << label;
      EXPECT_TRUE(compare_exact(r.grid2d(), want).identical()) << label;
      const std::int64_t acquires = engine.stats().pool_acquires;
      if (c.backend == Backend::cluster) {
        EXPECT_LE(acquires, 1) << label;
      } else {
        const std::int64_t lanes =
            c.backend == Backend::block_parallel ? c.workers : 0;
        EXPECT_EQ(acquires, 1 + lanes) << label;
      }
      if (c.backend == Backend::resilient) {
        EXPECT_GE(r.stats.watchdog_trips, 1) << label;
      }
      EXPECT_EQ(engine.buffer_pool().outstanding(), 0) << label;
    }
  }
}

TEST(EnginePool, CancelledSingleStencilJobReturnsEveryLease) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  for (const Backend backend : {Backend::sync_sim, Backend::block_parallel,
                                Backend::concurrent, Backend::resilient}) {
    StencilEngine engine({.workers = 1});
    JobSpec spec = slow_spec(taps);
    spec.backend = backend;
    spec.workers = 2;
    JobHandle h = engine.submit(std::move(spec));
    while (h.status() == JobStatus::queued) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    h.cancel();
    EXPECT_EQ(h.wait_or_cancel(std::chrono::milliseconds(5000)),
              JobStatus::cancelled)
        << backend_name(backend);
    engine.wait_idle();
    EXPECT_EQ(engine.buffer_pool().outstanding(), 0) << backend_name(backend);
  }
}

}  // namespace
}  // namespace fpga_stencil
