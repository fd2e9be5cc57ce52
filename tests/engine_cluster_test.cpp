// Tests for the sharded serving tier: consistent-hash routing, multi-shard
// bit-exactness, tenant quotas (inflight + rate), QoS plumbing through the
// single submit() path, and drain/reload under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine_cluster.hpp"
#include "engine/shard_router.hpp"
#include "grid/grid_compare.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"
#include "stencil/star_stencil.hpp"

namespace fpga_stencil {
namespace {

AcceleratorConfig cfg2d(int radius = 1) {
  AcceleratorConfig c;
  c.dims = 2;
  c.radius = radius;
  c.bsize_x = 32;
  c.parvec = 4;
  c.partime = radius <= 2 ? 2 : 1;
  return c;
}

AcceleratorConfig cfg3d(int radius = 1) {
  AcceleratorConfig c;
  c.dims = 3;
  c.radius = radius;
  c.bsize_x = 16;
  c.bsize_y = 8;
  c.parvec = 4;
  c.partime = 1;
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

/// submit + wait through the one front door.
JobResult cluster_run(EngineCluster& cluster, JobSpec spec) {
  JobHandle h = cluster.submit(std::move(spec));
  return std::move(h.wait());
}

/// The deterministic mixed job set every shard-count variant runs: kind
/// selects stencil/config/grid, seed varies the input.
struct JobKind {
  TapSet taps;
  AcceleratorConfig config;
  bool is_3d = false;
};

std::vector<JobKind> make_kinds() {
  std::vector<JobKind> kinds;
  kinds.push_back({StarStencil::make_benchmark(2, 1, 5).to_taps(), cfg2d(1),
                   false});
  kinds.push_back({make_box_stencil(2, 1, 21), cfg2d(1), false});
  kinds.push_back({StarStencil::make_benchmark(2, 2, 9).to_taps(), cfg2d(2),
                   false});
  kinds.push_back({StarStencil::make_benchmark(3, 1, 9).to_taps(), cfg3d(1),
                   true});
  return kinds;
}

JobSpec make_job(const JobKind& kind, unsigned seed, int iters = 2) {
  if (kind.is_3d) return JobSpec(kind.taps, kind.config, grid3d(seed), iters);
  return JobSpec(kind.taps, kind.config, grid2d(seed), iters);
}

TEST(ShardRouter, DrainRemapsOnlyTheDrainedShardsKeys) {
  ShardRouter router(4);
  std::map<std::uint64_t, int> before;
  for (std::uint64_t key = 0; key < 200; ++key) {
    before[key] = router.route(key);
  }
  // Sanity: keys spread over every shard.
  std::set<int> used;
  for (const auto& [key, shard] : before) used.insert(shard);
  EXPECT_EQ(used.size(), 4u);

  router.set_available(2, false);
  for (const auto& [key, shard] : before) {
    const int now = router.route(key);
    if (shard != 2) {
      EXPECT_EQ(now, shard) << "key " << key << " moved needlessly";
    } else {
      EXPECT_NE(now, 2);
    }
  }
  // Restoring the shard restores the original map exactly.
  router.set_available(2, true);
  for (const auto& [key, shard] : before) {
    EXPECT_EQ(router.route(key), shard);
  }
}

TEST(ShardRouter, ThrowsWhenNothingIsAvailable) {
  ShardRouter router(2);
  router.set_available(0, false);
  router.set_available(1, false);
  EXPECT_THROW((void)router.route(7), NoShardAvailableError);
  EXPECT_EQ(router.available_count(), 0);
}

TEST(EngineCluster, BitExactAcrossShardCountsVsSingleEngine) {
  const std::vector<JobKind> kinds = make_kinds();
  constexpr int kJobs = 24;

  // Reference outputs from the naive model, one per (kind, seed).
  std::vector<GridVariant> want;
  for (int i = 0; i < kJobs; ++i) {
    const JobKind& kind = kinds[std::size_t(i) % kinds.size()];
    const unsigned seed = unsigned(i / kinds.size());
    if (kind.is_3d) {
      Grid3D<float> g = grid3d(seed);
      reference_run(kind.taps, g, 2);
      want.emplace_back(std::move(g));
    } else {
      Grid2D<float> g = grid2d(seed);
      reference_run(kind.taps, g, 2);
      want.emplace_back(std::move(g));
    }
  }

  for (const int shards : {1, 2, 4}) {
    EngineCluster cluster({.shards = shards,
                           .engine = {.workers = 2, .queue_capacity = 64}});
    std::vector<JobHandle> handles;
    for (int i = 0; i < kJobs; ++i) {
      const JobKind& kind = kinds[std::size_t(i) % kinds.size()];
      handles.push_back(
          cluster.submit(make_job(kind, unsigned(i / kinds.size()))));
    }
    for (int i = 0; i < kJobs; ++i) {
      JobResult& r = handles[std::size_t(i)].wait();
      if (std::holds_alternative<Grid3D<float>>(want[std::size_t(i)])) {
        EXPECT_TRUE(compare_exact(r.grid3d(),
                                  std::get<Grid3D<float>>(want[std::size_t(i)]))
                        .identical())
            << "shards=" << shards << " job " << i;
      } else {
        EXPECT_TRUE(compare_exact(r.grid2d(),
                                  std::get<Grid2D<float>>(want[std::size_t(i)]))
                        .identical())
            << "shards=" << shards << " job " << i;
      }
    }
    // Every job landed somewhere and nothing failed, across all shards.
    std::int64_t completed = 0;
    for (int k = 0; k < shards; ++k) {
      completed += cluster.shard(k).stats().jobs_completed;
      EXPECT_EQ(cluster.shard(k).stats().jobs_failed, 0);
    }
    EXPECT_EQ(completed, kJobs);
  }
}

TEST(EngineCluster, FingerprintAffinityPinsAKindToOneShard) {
  const std::vector<JobKind> kinds = make_kinds();
  EngineCluster cluster({.shards = 4, .engine = {.workers = 1}});
  for (const JobKind& kind : kinds) {
    // Same kind, different seeds/iterations: one shard owns them all
    // (the route key is plan identity, not grid contents).
    const int shard = cluster.route_shard(make_job(kind, 1));
    EXPECT_EQ(cluster.route_shard(make_job(kind, 2, 3)), shard);
    EXPECT_EQ(cluster.route_shard(make_job(kind, 9, 1)), shard);
  }
}

TEST(EngineCluster, InflightCapRejectsThenRecovers) {
  EngineCluster cluster(
      {.shards = 1,
       .engine = {.workers = 1, .start_paused = true},
       .quotas = {{"alice", TenantQuota{.max_inflight = 2}}}});
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();

  auto make = [&] {
    JobSpec s(taps, cfg2d(), grid2d(), 2);
    s.tenant = "alice";
    return s;
  };
  JobHandle a = cluster.submit(make());
  JobHandle b = cluster.submit(make());
  EXPECT_EQ(cluster.tenant_inflight("alice"), 2);
  try {
    (void)cluster.submit(make());
    FAIL() << "third submission should exceed the inflight cap";
  } catch (const QuotaExceededError& e) {
    // Inflight caps free on job completion, not on a clock.
    EXPECT_EQ(e.retry_after(), std::chrono::nanoseconds(0));
    EXPECT_NE(std::string(e.what()).find("alice"), std::string::npos);
  }
  // A different tenant is not affected by alice's cap.
  JobSpec other(taps, cfg2d(), grid2d(), 2);
  other.tenant = "bob";
  JobHandle c = cluster.submit(std::move(other));

  cluster.shard(0).resume();
  (void)a.wait();
  (void)b.wait();
  (void)c.wait();
  // Quota released via the terminal hook: alice can submit again.
  cluster.wait_idle();
  EXPECT_EQ(cluster.tenant_inflight("alice"), 0);
  JobHandle d = cluster.submit(make());
  EXPECT_NO_THROW((void)d.wait());
}

TEST(EngineCluster, RateLimitRejectsWithRetryAfterHint) {
  EngineCluster cluster(
      {.shards = 1,
       .engine = {.workers = 1},
       .quotas = {{"gamma",
                   TenantQuota{.rate_per_s = 0.5, .burst = 2.0}}}});
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  auto make = [&] {
    JobSpec s(taps, cfg2d(), grid2d(), 1);
    s.tenant = "gamma";
    return s;
  };
  // The burst admits two; the third is over the sustained rate.
  (void)cluster_run(cluster, make());
  (void)cluster_run(cluster, make());
  try {
    (void)cluster.submit(make());
    FAIL() << "third submission should exceed the rate limit";
  } catch (const QuotaExceededError& e) {
    EXPECT_GT(e.retry_after(), std::chrono::nanoseconds(0));
    EXPECT_LE(e.retry_after(), std::chrono::seconds(3));
  }
  // The rejection did not leak an inflight slot.
  EXPECT_EQ(cluster.tenant_inflight("gamma"), 0);
}

TEST(EngineCluster, BlockingTenantSerializesInsteadOfRejecting) {
  EngineCluster cluster(
      {.shards = 1,
       .engine = {.workers = 1},
       .quotas = {{"steady",
                   TenantQuota{.max_inflight = 1, .block = true}}}});
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    JobSpec s(taps, cfg2d(), grid2d(), 2);
    s.tenant = "steady";
    // Each submit blocks until the previous job frees the slot; no
    // QuotaExceededError is ever thrown for a blocking tenant.
    handles.push_back(cluster.submit(std::move(s)));
  }
  for (JobHandle& h : handles) EXPECT_NO_THROW((void)h.wait());
  cluster.wait_idle();
  EXPECT_EQ(cluster.tenant_inflight("steady"), 0);
}

TEST(EngineCluster, DrainOneShardUnderLoadLosesNothing) {
  const std::vector<JobKind> kinds = make_kinds();
  EngineCluster cluster({.shards = 3,
                         .engine = {.workers = 2, .queue_capacity = 128}});
  constexpr int kThreads = 3;
  constexpr int kJobsPerThread = 20;
  std::vector<std::vector<JobHandle>> handles(kThreads);
  std::atomic<int> submitted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        const JobKind& kind = kinds[std::size_t(t + i) % kinds.size()];
        handles[std::size_t(t)].push_back(
            cluster.submit(make_job(kind, unsigned(i))));
        ++submitted;
      }
    });
  }
  // Mid-load: pull shard 1 out, drain it, put a fresh engine back.
  while (submitted.load() < kThreads * kJobsPerThread / 3) {
    std::this_thread::yield();
  }
  cluster.drain_shard(1);
  EXPECT_FALSE(cluster.router().available(1));
  cluster.reload_shard(1);
  EXPECT_TRUE(cluster.router().available(1));
  for (std::thread& t : submitters) t.join();

  // Zero lost, zero duplicated: every handle resolves exactly once and
  // the cross-shard completion total matches the submission count.
  int resolved = 0;
  for (auto& per_thread : handles) {
    for (JobHandle& h : per_thread) {
      EXPECT_NO_THROW((void)h.wait());
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, kThreads * kJobsPerThread);
  cluster.wait_idle();
  const MetricsSnapshot snap = cluster.telemetry().metrics().snapshot();
  std::int64_t completed = 0;
  for (int k = 0; k < 3; ++k) {
    // Snapshot totals accumulate across the reload (same shard prefix
    // before and after), unlike the fresh engine's stats().
    completed += snap.value_or("engine.shard" + std::to_string(k) +
                                   ".jobs_completed",
                               0);
  }
  EXPECT_EQ(completed, kThreads * kJobsPerThread);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(cluster.shard(k).buffer_pool().outstanding(), 0);
  }
}

TEST(EngineCluster, DrainedClusterRejectsNewSubmissions) {
  EngineCluster cluster({.shards = 2, .engine = {.workers = 1}});
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  (void)cluster_run(cluster, JobSpec(taps, cfg2d(), grid2d(), 2));
  cluster.drain();
  EXPECT_THROW((void)cluster.submit(JobSpec(taps, cfg2d(), grid2d(), 2)),
               EngineStoppedError);
}

TEST(EngineCluster, QosAndTenantRideTheSingleSubmitPath) {
  EngineCluster cluster({.shards = 1, .engine = {.workers = 1}});
  const TapSet taps = StarStencil::make_benchmark(2, 1, 5).to_taps();
  JobSpec spec(taps, cfg2d(), grid2d(), 2);
  spec.tenant = "alice";
  spec.qos = QosClass::interactive;
  spec.label = "front-door";
  JobResult r = cluster_run(cluster, std::move(spec));
  EXPECT_EQ(r.tenant, "alice");
  EXPECT_EQ(r.qos, QosClass::interactive);
  EXPECT_EQ(r.label, "front-door");
  const MetricsSnapshot snap = cluster.telemetry().metrics().snapshot();
  EXPECT_EQ(snap.value_or("cluster.jobs_submitted", -1), 1);
  EXPECT_EQ(snap.value_or("cluster.tenant.alice.submitted", -1), 1);
  EXPECT_EQ(snap.value_or("cluster.tenant.alice.done", -1), 1);
}

}  // namespace
}  // namespace fpga_stencil
