// Tests for the empirical host autotuner (PR 9): candidate enumeration
// invariants, TuningCache persistence/corruption/merge behavior, the
// resolve() mode semantics, tuned-vs-default bit-exactness, and the
// engine/cluster integration (one search per cached plan, never on the
// job hot path).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "common/json.hpp"
#include "core/host_profile.hpp"
#include "core/plan_candidates.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/engine_cluster.hpp"
#include "engine/stencil_engine.hpp"
#include "grid/grid_compare.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/star_stencil.hpp"
#include "tune/host_autotuner.hpp"
#include "tune/tuning_cache.hpp"

namespace fpga_stencil {
namespace {

AcceleratorConfig base2d(int radius = 2) {
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = radius;
  cfg.bsize_x = 4096;
  cfg.parvec = 4;
  cfg.partime = 4;
  return cfg;
}

AcceleratorConfig base3d(int radius = 1) {
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = radius;
  cfg.bsize_x = 256;
  cfg.bsize_y = 128;
  cfg.parvec = 4;
  cfg.partime = 4;
  return cfg;
}

/// Tiny probe budgets so every search finishes in milliseconds.
HostAutotunerOptions tiny_options(const std::string& cache_path = "") {
  HostAutotunerOptions o;
  o.cache_path = cache_path;
  o.probe_cells = 4 * 1024;
  o.probe_repeats = 1;
  o.candidates.max_candidates = 4;
  return o;
}

std::string temp_cache_path(const std::string& tag) {
  return testing::TempDir() + "tuning_cache_" + tag + "_" +
         std::to_string(::getpid()) + ".json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Candidate enumeration

TEST(PlanCandidates, RequestIsAlwaysCandidateZero) {
  for (const AcceleratorConfig& base : {base2d(), base3d()}) {
    const auto cands = enumerate_plan_candidates(
        base, 256, base.dims == 3 ? 96 : 128, base.dims == 3 ? 64 : 1);
    ASSERT_FALSE(cands.empty());
    EXPECT_EQ(cands[0].bsize_x, base.bsize_x);
    EXPECT_EQ(cands[0].bsize_y, base.bsize_y);
    EXPECT_EQ(cands[0].partime, base.partime);
  }
}

TEST(PlanCandidates, AllCandidatesValidAndPerformanceOnly) {
  const AcceleratorConfig base = base3d(2);
  const auto cands = enumerate_plan_candidates(base, 128, 96, 64);
  ASSERT_GT(cands.size(), 1u) << "model produced no alternatives to probe";
  for (const AcceleratorConfig& c : cands) {
    EXPECT_NO_THROW(c.validate());
    EXPECT_EQ(c.bsize_x % c.parvec, 0);
    // Only the geometry knobs may differ from the request: the stencil
    // identity and the vector width are part of the fingerprint.
    EXPECT_EQ(c.dims, base.dims);
    EXPECT_EQ(c.radius, base.radius);
    EXPECT_EQ(c.parvec, base.parvec);
  }
}

TEST(PlanCandidates, BudgetCapsEnumeration) {
  PlanCandidateOptions opts;
  opts.max_candidates = 3;
  const auto cands = enumerate_plan_candidates(base3d(), 128, 96, 64, opts);
  EXPECT_LE(cands.size(), 4u);  // request + at most max_candidates
}

// ---------------------------------------------------------------------------
// TuningCache persistence

TEST(TuningCache, RoundTripThroughDisk) {
  const std::string path = temp_cache_path("roundtrip");
  const TuningKey key{"stencil-a", "x256y128", "host-1"};
  TunedPlanEntry entry;
  entry.bsize_x = 144;
  entry.bsize_y = 144;
  entry.partime = 2;
  entry.tuned_mcells = 321.5;
  entry.baseline_mcells = 123.25;
  entry.candidates_probed = 7;
  {
    TuningCache cache(path);
    cache.put(key, entry);
  }
  EXPECT_TRUE(json_is_valid(read_file(path)));
  TuningCache fresh(path);
  const auto found = fresh.find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->bsize_x, 144);
  EXPECT_EQ(found->bsize_y, 144);
  EXPECT_EQ(found->partime, 2);
  EXPECT_DOUBLE_EQ(found->tuned_mcells, 321.5);
  EXPECT_DOUBLE_EQ(found->baseline_mcells, 123.25);
  EXPECT_EQ(found->candidates_probed, 7);
  std::remove(path.c_str());
}

TEST(TuningCache, CorruptedFileFallsBackToEmptyWithoutThrowing) {
  const std::string path = temp_cache_path("corrupt");
  {
    std::ofstream out(path);
    out << "{ \"schema_version\": 1, \"entries\": [ { \"key\": \"a|b";
  }
  TuningCache cache(path);
  EXPECT_FALSE(cache.find(TuningKey{"a", "b", "c"}).has_value());
  // put() rebuilds the file from scratch.
  TunedPlanEntry entry;
  entry.bsize_x = 64;
  cache.put(TuningKey{"a", "b", "c"}, entry);
  EXPECT_TRUE(json_is_valid(read_file(path)));
  TuningCache fresh(path);
  EXPECT_TRUE(fresh.find(TuningKey{"a", "b", "c"}).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, TruncatedFileFallsBackToEmpty) {
  const std::string path = temp_cache_path("truncated");
  const TuningKey key{"s", "e", "h"};
  {
    TuningCache cache(path);
    TunedPlanEntry entry;
    entry.bsize_x = 96;
    cache.put(key, entry);
  }
  const std::string full = read_file(path);
  {
    std::ofstream out(path, std::ios::trunc);
    out << full.substr(0, full.size() / 2);
  }
  TuningCache cache(path);
  EXPECT_FALSE(cache.find(key).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, SchemaVersionMismatchIgnored) {
  const std::string path = temp_cache_path("version");
  {
    std::ofstream out(path);
    out << "{\"schema_version\": 99, \"entries\": [{\"key\": \"s|e|h\", "
           "\"bsize_x\": 32, \"bsize_y\": 1, \"partime\": 1, "
           "\"tuned_mcells\": 1.0, \"baseline_mcells\": 1.0, "
           "\"candidates_probed\": 1}]}\n";
  }
  TuningCache cache(path);
  EXPECT_FALSE(cache.find(TuningKey{"s", "e", "h"}).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, HostFingerprintMismatchInvalidates) {
  const std::string path = temp_cache_path("hostfp");
  {
    TuningCache cache(path);
    TunedPlanEntry entry;
    entry.bsize_x = 128;
    cache.put(TuningKey{"stencil", "x256y128", "old-host"}, entry);
  }
  TuningCache fresh(path);
  EXPECT_TRUE(
      fresh.find(TuningKey{"stencil", "x256y128", "old-host"}).has_value());
  EXPECT_FALSE(
      fresh.find(TuningKey{"stencil", "x256y128", "new-host"}).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, TwoEnginesSharingOneFileMergeTheirEntries) {
  const std::string path = temp_cache_path("merge");
  TuningCache a(path);
  TuningCache b(path);  // a second engine, same backing file
  TunedPlanEntry entry;
  entry.bsize_x = 64;
  a.put(TuningKey{"s1", "e", "h"}, entry);
  entry.bsize_x = 96;
  b.put(TuningKey{"s2", "e", "h"}, entry);  // merges s1 from disk first
  TuningCache fresh(path);
  const auto e1 = fresh.find(TuningKey{"s1", "e", "h"});
  const auto e2 = fresh.find(TuningKey{"s2", "e", "h"});
  ASSERT_TRUE(e1.has_value());
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e1->bsize_x, 64);
  EXPECT_EQ(e2->bsize_x, 96);
  std::remove(path.c_str());
}

TEST(TuningCache, ConcurrentWritersNeverTearTheFile) {
  const std::string path = temp_cache_path("concurrent");
  constexpr int kThreads = 4;
  constexpr int kPutsPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TuningCache cache(path);  // each thread acts as its own engine
      for (int i = 0; i < kPutsPerThread; ++i) {
        TunedPlanEntry entry;
        entry.bsize_x = 32 + 32 * i;
        cache.put(TuningKey{"s" + std::to_string(t), "e" + std::to_string(i),
                            "h"},
                  entry);
        // Every intermediate published file must be a complete document.
        EXPECT_TRUE(json_is_valid(read_file(path)));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(json_is_valid(read_file(path)));
  // Whichever put() published last had merged the disk under its own
  // in-memory entries, so at least that engine's full set survives.
  TuningCache fresh(path);
  int found = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPutsPerThread; ++i) {
      found += fresh.find(TuningKey{"s" + std::to_string(t),
                                    "e" + std::to_string(i), "h"})
                       .has_value()
                   ? 1
                   : 0;
    }
  }
  EXPECT_GE(found, kPutsPerThread);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// HostAutotuner

TEST(HostAutotuner, FingerprintSeparatesStencilAndEnvelope) {
  const TapSet star = StarStencil::make_benchmark(2, 2, 7).to_taps();
  const TapSet box = make_box_stencil(2, 2, 7);
  const AcceleratorConfig base = base2d(2);
  AcceleratorConfig wide = base;
  wide.parvec = 8;
  const std::string fp = HostAutotuner::stencil_fingerprint(star, base);
  EXPECT_FALSE(fp.empty());
  EXPECT_EQ(fp, HostAutotuner::stencil_fingerprint(star, base));
  EXPECT_NE(fp, HostAutotuner::stencil_fingerprint(box, base));
  EXPECT_NE(fp, HostAutotuner::stencil_fingerprint(star, wide));
}

TEST(HostAutotuner, ExtentsClassQuantizesNearbyGrids) {
  EXPECT_EQ(HostAutotuner::extents_class(3, 500, 512, 520),
            HostAutotuner::extents_class(3, 512, 512, 512));
  EXPECT_NE(HostAutotuner::extents_class(3, 512, 512, 512),
            HostAutotuner::extents_class(3, 128, 128, 128));
  EXPECT_NE(HostAutotuner::extents_class(2, 512, 256, 1),
            HostAutotuner::extents_class(3, 512, 256, 1));
}

TEST(HostAutotuner, ResolveOffReturnsNothing) {
  HostAutotuner tuner(tiny_options());
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  EXPECT_FALSE(tuner
                   .resolve(taps, base2d(1), 128, 64, 1, AutotuneMode::off)
                   .has_value());
}

TEST(HostAutotuner, CachedOnlyMissesThenSearchPopulates) {
  HostAutotuner tuner(tiny_options());
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const AcceleratorConfig base = base2d(1);
  EXPECT_FALSE(
      tuner.resolve(taps, base, 128, 64, 1, AutotuneMode::cached_only)
          .has_value());
  const auto searched =
      tuner.resolve(taps, base, 128, 64, 1, AutotuneMode::search);
  ASSERT_TRUE(searched.has_value());
  EXPECT_TRUE(searched->searched);
  EXPECT_FALSE(searched->from_cache);
  EXPECT_GE(searched->candidates_probed, 1);
  EXPECT_GT(searched->tuned_mcells, 0.0);
  // The default is always a candidate, so the winner can't lose to it.
  EXPECT_GE(searched->tuned_mcells, searched->baseline_mcells);
  // Second resolve: served from the cache, no new search.
  const auto cached =
      tuner.resolve(taps, base, 128, 64, 1, AutotuneMode::cached_only);
  ASSERT_TRUE(cached.has_value());
  EXPECT_TRUE(cached->from_cache);
  EXPECT_FALSE(cached->searched);
  EXPECT_EQ(cached->config.bsize_x, searched->config.bsize_x);
  EXPECT_EQ(cached->config.partime, searched->config.partime);
}

TEST(HostAutotuner, InvalidCachedEntryIsIgnored) {
  HostAutotuner tuner(tiny_options());
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const AcceleratorConfig base = base2d(1);
  const TuningKey key{HostAutotuner::stencil_fingerprint(taps, base),
                      HostAutotuner::extents_class(2, 128, 64, 1),
                      host_profile().fingerprint()};
  TunedPlanEntry bogus;
  bogus.bsize_x = 7;  // not a parvec multiple: fails validate()
  bogus.partime = 3;
  tuner.cache().put(key, bogus);
  EXPECT_FALSE(
      tuner.resolve(taps, base, 128, 64, 1, AutotuneMode::cached_only)
          .has_value());
}

TEST(HostAutotuner, TrippedTokenAbortsSearch) {
  HostAutotuner tuner(tiny_options());
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  const CancellationToken token = CancellationToken::make();
  token.request_cancel();
  EXPECT_THROW(tuner.search(taps, base2d(1), 128, 64, 1, &token),
               CancelledError);
  EXPECT_EQ(tuner.cache().size(), 0u);  // nothing persisted
}

TEST(HostAutotuner, SearchPersistsAcrossProcessesViaDisk) {
  const std::string path = temp_cache_path("resolve");
  const TapSet taps = StarStencil::make_benchmark(2, 2, 7).to_taps();
  const AcceleratorConfig base = base2d(2);
  AcceleratorConfig winner;
  {
    HostAutotuner tuner(tiny_options(path));
    const auto out =
        tuner.resolve(taps, base, 160, 96, 1, AutotuneMode::search);
    ASSERT_TRUE(out.has_value());
    winner = out->config;
  }
  // A "new process": fresh tuner, same file, cached_only succeeds.
  HostAutotuner tuner(tiny_options(path));
  const auto out =
      tuner.resolve(taps, base, 160, 96, 1, AutotuneMode::cached_only);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->from_cache);
  EXPECT_EQ(out->config.bsize_x, winner.bsize_x);
  EXPECT_EQ(out->config.bsize_y, winner.bsize_y);
  EXPECT_EQ(out->config.partime, winner.partime);
  std::remove(path.c_str());
}

// Block geometry and temporal depth are performance-only knobs: per
// point, the searched plan and the cache-model-seeded one (the lowest-cost
// non-default candidate, what a model-only tuner would pick) must both
// reproduce the paper-default result bit-for-bit.
TEST(HostAutotuner, TunedPlansAreBitExactWithDefault) {
  HostAutotuner tuner(tiny_options());
  struct Point {
    TapSet taps;
    AcceleratorConfig base;
  };
  const auto model_seeded = [](const AcceleratorConfig& base, std::int64_t nx,
                               std::int64_t ny, std::int64_t nz) {
    const auto c = enumerate_plan_candidates(base, nx, ny, nz);
    return c.size() > 1 ? c[1] : base;
  };
  const std::vector<Point> points = {
      {StarStencil::make_benchmark(2, 1, 7).to_taps(), base2d(1)},
      {StarStencil::make_benchmark(2, 4, 7).to_taps(), base2d(4)},
      {make_box_stencil(2, 2, 9), base2d(2)},
      {StarStencil::make_benchmark(3, 2, 7).to_taps(), base3d(2)},
      {make_box_stencil(3, 1, 9), base3d(1)},
  };
  for (const Point& p : points) {
    const int iters = p.base.partime;
    if (p.base.dims == 2) {
      const auto out = tuner.search(p.taps, p.base, 160, 96, 1);
      Grid2D<float> want(160, 96);
      want.fill_random(11, -1.0f, 1.0f);
      Grid2D<float> got = want;
      Grid2D<float> seeded = want;
      StencilAccelerator(p.taps, p.base).run(want, iters);
      StencilAccelerator(p.taps, out.config).run(got, iters);
      StencilAccelerator(p.taps, model_seeded(p.base, 160, 96, 1))
          .run(seeded, iters);
      EXPECT_TRUE(compare_exact(got, want).identical())
          << "r" << p.base.radius << " 2D tuned plan diverged";
      EXPECT_TRUE(compare_exact(seeded, want).identical())
          << "r" << p.base.radius << " 2D model-seeded plan diverged";
    } else {
      const auto out = tuner.search(p.taps, p.base, 40, 28, 20);
      Grid3D<float> want(40, 28, 20);
      want.fill_random(12, -1.0f, 1.0f);
      Grid3D<float> got = want;
      Grid3D<float> seeded = want;
      StencilAccelerator(p.taps, p.base).run(want, iters);
      StencilAccelerator(p.taps, out.config).run(got, iters);
      StencilAccelerator(p.taps, model_seeded(p.base, 40, 28, 20))
          .run(seeded, iters);
      EXPECT_TRUE(compare_exact(got, want).identical())
          << "r" << p.base.radius << " 3D tuned plan diverged";
      EXPECT_TRUE(compare_exact(seeded, want).identical())
          << "r" << p.base.radius << " 3D model-seeded plan diverged";
    }
  }
}

// ---------------------------------------------------------------------------
// Engine integration

TEST(EngineAutotune, OneSearchThenCacheHitsAndBitExactResults) {
  EngineOptions eo;
  eo.workers = 1;
  eo.autotune = AutotuneMode::search;
  eo.tuning_cache_path = "";
  eo.autotune_probe_cells = 4 * 1024;
  StencilEngine engine(eo);

  const TapSet taps = StarStencil::make_benchmark(2, 2, 7).to_taps();
  const AcceleratorConfig cfg = base2d(2);
  const int iters = 4;
  Grid2D<float> input(96, 64);
  input.fill_random(21, -1.0f, 1.0f);
  Grid2D<float> want = input;
  StencilAccelerator(taps, cfg).run(want, iters);

  constexpr int kJobs = 3;
  for (int i = 0; i < kJobs; ++i) {
    JobResult r = engine.run(JobSpec(taps, cfg, Grid2D<float>(input), iters));
    EXPECT_TRUE(r.plan_tuned);
    EXPECT_TRUE(compare_exact(r.grid2d(), want).identical());
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.tuner_search_runs, 1);
  EXPECT_EQ(s.tuner_cache_misses, 1);
  EXPECT_EQ(s.tuner_cache_hits, kJobs - 1);
  EXPECT_GE(s.tuner_search_candidates, 1);
  EXPECT_GT(s.tuner_search_ns, 0);
}

TEST(EngineAutotune, OffModeLeavesPlansUntuned) {
  StencilEngine engine({.workers = 1});
  const TapSet taps = StarStencil::make_benchmark(2, 1, 7).to_taps();
  JobResult r = engine.run(JobSpec(taps, base2d(1),
                                   [] {
                                     Grid2D<float> g(64, 32);
                                     g.fill_random(5);
                                     return g;
                                   }(),
                                   2));
  EXPECT_FALSE(r.plan_tuned);
  EXPECT_EQ(engine.stats().tuner_search_runs, 0);
  EXPECT_EQ(engine.stats().tuner_cache_hits, 0);
}

// Regression: a single-block partial-pass geometry (partime deeper than
// the iteration count, block covering the whole grid) served through the
// engine -- where scratch comes from the buffer pool instead of a fresh
// zeroed allocation -- must stay bit-exact. This is exactly the shape of
// plan the autotuner likes to pick for small grids.
TEST(EngineAutotune, PartialPassSingleBlockPlanIsBitExactThroughThePool) {
  const TapSet taps = StarStencil::make_benchmark(2, 2, 7).to_taps();
  AcceleratorConfig cfg = base2d(2);
  cfg.bsize_x = 128;  // one block: 96 + 2*halo with partime 8
  cfg.partime = 8;    // iters = 4 => a single partial pass
  const int iters = 4;

  Grid2D<float> init(96, 64);
  init.fill_random(41, -1.0f, 1.0f);
  Grid2D<float> want = init;
  StencilAccelerator(taps, cfg).run(want, iters);

  StencilEngine engine({.workers = 1});
  for (int job = 0; job < 3; ++job) {
    JobResult r = engine.run(JobSpec(taps, cfg, Grid2D<float>(init), iters));
    EXPECT_TRUE(compare_exact(r.grid2d(), want).identical())
        << "job " << job << " diverged";
  }
}

// Regression: a probe on a short calibration slab must leave no residue
// (thread-local kernel workspace, malloc recycling) that changes the
// bits of a later full-size run of the same geometry in the same thread.
TEST(HostAutotuner, ProbeLeavesNoResidueThatChangesLaterRuns) {
  const TapSet taps = StarStencil::make_benchmark(2, 2, 7).to_taps();
  AcceleratorConfig cfg = base2d(2);
  cfg.bsize_x = 128;
  cfg.partime = 8;
  const int iters = 4;

  Grid2D<float> init(96, 64);
  init.fill_random(41, -1.0f, 1.0f);
  Grid2D<float> want = init;
  StencilAccelerator(taps, cfg).run(want, iters);

  HostAutotuner tuner(tiny_options(""));
  for (int rep = 0; rep < 5; ++rep) {
    (void)tuner.probe(taps, cfg, 96, 64, 1, nullptr);
    Grid2D<float> got = init;
    std::vector<float> scratch;  // empty: adopted+resized, like the pool
    StencilAccelerator(taps, cfg).run(got, iters, &scratch);
    EXPECT_TRUE(compare_exact(got, want).identical()) << "rep " << rep;
  }
}

TEST(ClusterAutotune, OptionsFlowThroughToEveryShard) {
  ClusterOptions copts;
  copts.shards = 2;
  copts.engine.workers = 1;
  copts.engine.autotune = AutotuneMode::search;
  copts.engine.tuning_cache_path = "";
  copts.engine.autotune_probe_cells = 4 * 1024;
  EngineCluster cluster(copts);

  const TapSet taps = StarStencil::make_benchmark(2, 2, 7).to_taps();
  const AcceleratorConfig cfg = base2d(2);
  const int iters = 4;
  Grid2D<float> input(96, 64);
  input.fill_random(22, -1.0f, 1.0f);
  Grid2D<float> want = input;
  StencilAccelerator(taps, cfg).run(want, iters);

  JobHandle h = cluster.submit(JobSpec(taps, cfg, Grid2D<float>(input), iters));
  JobResult& r = h.wait();
  EXPECT_TRUE(r.plan_tuned);
  EXPECT_TRUE(compare_exact(r.grid2d(), want).identical());
}

}  // namespace
}  // namespace fpga_stencil
