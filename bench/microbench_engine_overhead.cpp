// google-benchmark microbenchmarks of the StencilEngine session overhead:
// what a job pays on top of the raw simulator for planning, admission, and
// buffer management -- and what the plan cache / buffer pool give back.
//
// Two granularities:
//   * PlanCache cold vs hit: the isolated cost of validating a config,
//     building a BlockingPlan, and fingerprinting the generated kernel
//     source, against the cost of an LRU lookup.
//   * Engine end-to-end cold vs cached: submit-to-completion latency of a
//     small job with caches cleared every iteration vs a warm session.
//     The grid is deliberately tiny so session overhead is not drowned by
//     simulation time.
//   * Cluster submit vs bare engine: what the serving tier's front door
//     (quota admission + fingerprint routing + terminal-hook wrapping)
//     adds per job on top of a single engine.
#include <benchmark/benchmark.h>

#include <utility>

#include "engine/engine_cluster.hpp"
#include "engine/plan_cache.hpp"
#include "engine/stencil_engine.hpp"
#include "stencil/star_stencil.hpp"

namespace fpga_stencil {
namespace {

AcceleratorConfig small2d() {
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = 1;
  cfg.bsize_x = 32;
  cfg.parvec = 4;
  cfg.partime = 2;
  return cfg;
}

Grid2D<float> small_grid() {
  Grid2D<float> g(48, 20);
  g.fill_random(3);
  return g;
}

void BM_PlanCacheCold(benchmark::State& state) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const AcceleratorConfig cfg = small2d();
  PlanCache cache(8);
  for (auto _ : state) {
    cache.clear();
    auto plan = cache.lookup_or_build(taps, cfg, 48, 20);
    benchmark::DoNotOptimize(plan);
  }
  state.counters["misses"] = double(cache.misses());
}
BENCHMARK(BM_PlanCacheCold);

void BM_PlanCacheHit(benchmark::State& state) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const AcceleratorConfig cfg = small2d();
  PlanCache cache(8);
  (void)cache.lookup_or_build(taps, cfg, 48, 20);  // warm
  for (auto _ : state) {
    auto plan = cache.lookup_or_build(taps, cfg, 48, 20);
    benchmark::DoNotOptimize(plan);
  }
  state.counters["hit_rate"] =
      double(cache.hits()) / double(cache.hits() + cache.misses());
}
BENCHMARK(BM_PlanCacheHit);

// One small job, caches dumped each iteration: plan build + fresh scratch
// allocation on every run. This is the first-job latency of a session.
void BM_EngineRunColdPlan(benchmark::State& state) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const AcceleratorConfig cfg = small2d();
  StencilEngine engine({.workers = 1});
  const Grid2D<float> input = small_grid();
  for (auto _ : state) {
    engine.clear_caches();
    JobResult r = engine.run(JobSpec(taps, cfg, input, 3));
    benchmark::DoNotOptimize(r.grid2d().data());
  }
  state.counters["cache_hit_rate"] = engine.stats().cache_hit_rate();
}
BENCHMARK(BM_EngineRunColdPlan);

// Same job against a warm session: plan served from the LRU cache and
// scratch from the buffer pool. The delta to ColdPlan is the amortizable
// per-session setup cost.
void BM_EngineRunCachedPlan(benchmark::State& state) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const AcceleratorConfig cfg = small2d();
  StencilEngine engine({.workers = 1});
  const Grid2D<float> input = small_grid();
  (void)engine.run(JobSpec(taps, cfg, input, 3));  // warm plan + pool
  for (auto _ : state) {
    JobResult r = engine.run(JobSpec(taps, cfg, input, 3));
    benchmark::DoNotOptimize(r.grid2d().data());
  }
  state.counters["cache_hit_rate"] = engine.stats().cache_hit_rate();
  state.counters["pool_reuses"] = double(engine.stats().pool_reuses);
}
BENCHMARK(BM_EngineRunCachedPlan);

// Same warm job with empirical autotuning on (PR 9): the one-time plan
// search happened on the warm-up submit, so the steady-state delta to
// BM_EngineRunCachedPlan is the autotuner's warm-path cost -- which must
// be nothing beyond the same LRU lookup (the tuned geometry lives inside
// the cached plan; no tuner code runs on the job hot path).
void BM_EngineRunCachedTunedPlan(benchmark::State& state) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const AcceleratorConfig cfg = small2d();
  StencilEngine engine({.workers = 1,
                        .autotune = AutotuneMode::search,
                        .tuning_cache_path = "",
                        .autotune_probe_cells = 4 * 1024});
  const Grid2D<float> input = small_grid();
  (void)engine.run(JobSpec(taps, cfg, input, 3));  // warm plan (+ search)
  for (auto _ : state) {
    JobResult r = engine.run(JobSpec(taps, cfg, input, 3));
    benchmark::DoNotOptimize(r.grid2d().data());
  }
  state.counters["cache_hit_rate"] = engine.stats().cache_hit_rate();
  state.counters["tuner_searches"] = double(engine.stats().tuner_search_runs);
  state.counters["tuner_cache_hits"] =
      double(engine.stats().tuner_cache_hits);
}
BENCHMARK(BM_EngineRunCachedTunedPlan);

// submit + wait through the one front door.
JobResult cluster_run(EngineCluster& cluster, JobSpec spec) {
  JobHandle h = cluster.submit(std::move(spec));
  return std::move(h.wait());
}

// The same warm small job through the cluster front door. The delta to
// BM_EngineRunCachedPlan is the serving tier's per-job cost: tenant
// lookup + quota bookkeeping (unlimited quota here, the common case),
// route_key hashing, ring lookup, and the quota-release terminal hook.
void BM_ClusterRunCachedPlan(benchmark::State& state) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const AcceleratorConfig cfg = small2d();
  EngineCluster cluster({.shards = 2, .engine = {.workers = 1}});
  const Grid2D<float> input = small_grid();
  (void)cluster_run(cluster, JobSpec(taps, cfg, input, 3));  // warm owning shard
  for (auto _ : state) {
    JobSpec spec(taps, cfg, input, 3);
    spec.tenant = "bench";
    JobResult r = cluster_run(cluster, std::move(spec));
    benchmark::DoNotOptimize(r.grid2d().data());
  }
  const int owner =
      cluster.route_shard(JobSpec(taps, cfg, small_grid(), 3));
  state.counters["owner_hit_rate"] =
      cluster.shard(owner).stats().cache_hit_rate();
}
BENCHMARK(BM_ClusterRunCachedPlan);

// Quota-metered variant: a tight inflight cap plus a token bucket wide
// enough never to reject, isolating pure admission bookkeeping cost.
void BM_ClusterRunMeteredTenant(benchmark::State& state) {
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const AcceleratorConfig cfg = small2d();
  EngineCluster cluster(
      {.shards = 2,
       .engine = {.workers = 1},
       .quotas = {{"metered",
                   {.max_inflight = 4, .rate_per_s = 1e9, .burst = 1e9}}}});
  const Grid2D<float> input = small_grid();
  (void)cluster_run(cluster, JobSpec(taps, cfg, input, 3));
  for (auto _ : state) {
    JobSpec spec(taps, cfg, input, 3);
    spec.tenant = "metered";
    JobResult r = cluster_run(cluster, std::move(spec));
    benchmark::DoNotOptimize(r.grid2d().data());
  }
}
BENCHMARK(BM_ClusterRunMeteredTenant);

}  // namespace
}  // namespace fpga_stencil
