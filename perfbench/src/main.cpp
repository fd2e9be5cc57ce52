// perfbench_runner: one workload, one seed, one run. Prints the metrics
// by name and unit, writes a JSON record with provenance under --out, and
// ends stdout with the one-line result object. Exit 1 on any failed or
// inexact job, 2 on a usage error.
//
//   perfbench_runner --workload paper3d|program|serve --seed N
//                    --seconds S --trace 0|1 [--smoke] [--out DIR]
//                    [--commit SHA] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics with tracing off, over several
// epochs on fresh clusters. --trace 1 runs a STREAM-triad probe, a short
// untraced and a short traced loop around a counter snapshot, and the
// layer ladder (ladder.cpp), and reports the per-layer metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "core/host_profile.hpp"

namespace perfbench {
namespace {

#if defined(FPGASTENCIL_SANITIZE_BUILD) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--out") o.out_dir = next();
    else if (a == "--commit") o.commit = next();
    else if (a == "--source-digest") o.source_digest = next();
    else throw std::invalid_argument("unknown argument: " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

struct Counts {
  std::int64_t attempted = 0, failed = 0, inexact = 0;
  void add(const LoopLog& l) {
    attempted += l.attempted;
    failed += l.failed;
    inexact += l.inexact;
  }
};

/// Submits every kind `w.warmup_rounds` times and every check kind once,
/// checking each result: caches, pools and first-touch pages are warm
/// afterwards.
void warm_up(EngineCluster& cluster, Workload& w, Counts& c) {
  const auto one = [&](const JobKind& kind) {
    ++c.attempted;
    try {
      JobHandle h = cluster.submit(make_spec(kind, w, nullptr));
      if (!result_matches(kind, h.wait())) ++c.inexact;
    } catch (const std::exception&) {
      ++c.failed;
    }
  };
  for (int r = 0; r < w.warmup_rounds; ++r) {
    for (const JobKind& kind : w.kinds) one(kind);
  }
  for (const JobKind& kind : w.check_kinds) one(kind);
}

/// Counters the traced segment moved, summed over shards.
struct Snapshot {
  std::int64_t hits = 0, misses = 0, acquires = 0, reuses = 0, reroutes = 0;
  std::int64_t high_water = 0, specialized = 0, fallback = 0;
  std::vector<std::int64_t> completed;
};

Snapshot snapshot(EngineCluster& cluster, Telemetry& tel) {
  Snapshot s;
  for (int k = 0; k < cluster.shards(); ++k) {
    const EngineStats st = cluster.shard(k).stats();
    s.hits += st.plan_cache_hits;
    s.misses += st.plan_cache_misses;
    s.acquires += st.pool_acquires;
    s.reuses += st.pool_reuses;
    s.reroutes += st.breaker_reroutes;
    s.high_water = std::max(s.high_water, st.queue_high_water);
    s.completed.push_back(st.jobs_completed);
  }
  const MetricsSnapshot m = tel.metrics().snapshot();
  s.specialized = m.value_or("kernels.dispatch_specialized", 0);
  s.fallback = m.value_or("kernels.dispatch_fallback", 0);
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void counter_metrics(const Snapshot& a, const Snapshot& b, MetricSet& m) {
  const double specialized = double(b.specialized - a.specialized);
  const double fallback = double(b.fallback - a.fallback);
  m.add("core.fallback_frac", ratio(fallback, specialized + fallback), "ratio");
  const double hits = double(b.hits - a.hits);
  m.add("engine.plan_cache_hit_rate",
        ratio(hits, hits + double(b.misses - a.misses)), "ratio");
  m.add("engine.pool_reuse_frac",
        ratio(double(b.reuses - a.reuses), double(b.acquires - a.acquires)),
        "ratio");
  m.add("engine.queue_high_water", double(b.high_water), "count");
  m.add("engine.breaker_reroutes", double(b.reroutes - a.reroutes), "count");
  double max_jobs = 0, sum_jobs = 0;
  for (std::size_t k = 0; k < b.completed.size(); ++k) {
    const double jobs = double(b.completed[k] - a.completed[k]);
    max_jobs = std::max(max_jobs, jobs);
    sum_jobs += jobs;
  }
  m.add("cluster.shard_imbalance",
        ratio(max_jobs, sum_jobs / double(b.completed.size())), "ratio");
}

void write_metrics(JsonWriter& j, const MetricSet& m) {
  j.begin_object();
  for (const auto& [name, vu] : m.items) {
    j.key(name).begin_object();
    j.key("value").value(vu.first);
    j.key("unit").value(vu.second);
    j.end_object();
  }
  j.end_object();
}

void print_metrics(const MetricSet& m, const char* prefix) {
  for (const auto& [name, vu] : m.items) {
    std::printf("  %s%-28s %14.4f %s\n", prefix, name.c_str(), vu.first,
                vu.second.c_str());
  }
}

int run(const Options& opt) {
  Telemetry trace;
  const int nproc = int(std::max(1u, std::thread::hardware_concurrency()));
  const std::int64_t llc_bytes = host_profile().llc_bytes;
  std::int64_t triad_bytes = 0;
  double triad = 0;
  if (opt.trace) {
    // STREAM's rule: each array at least 4x the last-level cache.
    triad_bytes = opt.smoke ? (std::int64_t(16) << 20)
                            : 4 * std::max<std::int64_t>(llc_bytes, 64 << 20);
    triad = triad_gbps(triad_bytes, nproc);
  }

  Workload w = make_workload(opt, opt.trace ? &trace : nullptr);
  // Traced runs share one registry for the counter snapshot and the Chrome
  // trace. Untraced epochs keep each cluster's own, which dies with the
  // epoch: the engine records a span per job, and a registry that outlived
  // the epochs made peak_rss_mib grow with throughput.
  if (opt.trace) w.cluster.telemetry = &trace;
  w.block_workers = std::min(w.block_workers, nproc);
  Counts c;

  std::unique_ptr<EngineCluster> cluster;
  std::vector<double> setups;
  // An epoch starts on a fresh cluster: its set-up is timed, then warmed.
  const auto new_epoch = [&] {
    cluster.reset();
    bool exact = false;
    ++c.attempted;
    setups.push_back(timed_setup(w, cluster, &exact));
    if (!exact) ++c.inexact;
    warm_up(*cluster, w, c);
  };

  MetricSet metrics, rungs;
  LoopLog plain_log, traced_log;
  LoopResult loop, traced;
  double ladder_ms = 0;
  std::string trace_path;
  if (!opt.trace) {
    for (int e = 0; e < w.epochs; ++e) {
      new_epoch();
      run_closed_loop(*cluster, w, opt.seconds / w.epochs, nullptr, plain_log);
    }
    cluster.reset();
    c.add(plain_log);
    loop = summarize(plain_log);
    metrics.add("cell_updates_per_s",
                ratio(loop.cell_updates, loop.busy_seconds) * 1e-6, "Mcup/s");
    metrics.add("job_p50_ms", loop.p50_ms, "ms");
    metrics.add("jobs_per_s", ratio(double(loop.samples), loop.busy_seconds),
                "1/s");
    metrics.add("setup_s", median(setups), "s");
    metrics.add("peak_rss_mib", peak_rss_mib(), "MiB");
  } else {
    new_epoch();
    // The per-layer numbers need no long loop: each half is at most 5 s.
    const double half = std::min(opt.seconds / 2, 5.0);
    run_closed_loop(*cluster, w, half, nullptr, plain_log);
    const Snapshot before = snapshot(*cluster, trace);
    run_closed_loop(*cluster, w, half, &trace, traced_log);
    const Snapshot after = snapshot(*cluster, trace);
    cluster.reset();
    c.add(plain_log);
    c.add(traced_log);
    loop = summarize(plain_log);
    traced = summarize(traced_log);

    LadderResult ladder = run_ladder(w, trace, triad);
    c.attempted += ladder.attempted;
    c.inexact += ladder.inexact;
    if (w.name == "paper3d" && !opt.smoke) {
      ++c.attempted;
      if (!full_golden_matches(w.kinds.front(), w.kinds.front().expected)) {
        ++c.inexact;
      }
    }
    metrics = ladder.metrics;
    rungs = ladder.rungs;
    ladder_ms = ladder.cluster_ms_per_job;
    counter_metrics(before, after, metrics);
    metrics.add("engine.queue_ms", traced.queue_ms_mean, "ms");
    const double cups = ratio(loop.cell_updates, loop.busy_seconds);
    const double traced_cups = ratio(traced.cell_updates, traced.busy_seconds);
    metrics.add("trace.overhead_frac", 1.0 - ratio(traced_cups, cups), "ratio");
    // The rung self times telescope to the top rung: its per-job time
    // against the untraced mean latency says how much the ladder misses.
    metrics.add("trace.ladder_gap_frac",
                ratio(ladder_ms - loop.mean_ms, loop.mean_ms), "ratio");
    metrics.add("host.triad_gbps", triad, "GB/s");

    std::filesystem::create_directories(opt.out_dir);
    trace_path = opt.out_dir + "/" + w.name + "-seed" +
                 std::to_string(opt.seed) + ".trace.json";
    std::ofstream tf(trace_path);
    trace.write_trace_json(tf);
  }

  const bool valid = std::string(PERFBENCH_BUILD_TYPE) == "Release" &&
                     !kSanitizerBuild;
  const bool correct = c.failed == 0 && c.inexact == 0;
  const double failed_frac =
      ratio(double(c.failed + c.inexact), double(c.attempted));

  std::filesystem::create_directories(opt.out_dir);
  const std::string record_path = opt.out_dir + "/" + w.name + "-seed" +
                                  std::to_string(opt.seed) + "-trace" +
                                  (opt.trace ? "1" : "0") + ".json";
  {
    std::ofstream rf(record_path);
    JsonWriter j(rf);
    j.begin_object();
    j.key("schema").value("perfbench/1");
    j.key("workload").value(w.name);
    j.key("seed").value(std::int64_t(opt.seed));
    j.key("seconds").value(opt.seconds);
    j.key("trace").value(opt.trace);
    j.key("smoke").value(opt.smoke);
    j.key("provenance").begin_object();
    j.key("commit").value(opt.commit);
    j.key("source_digest").value(opt.source_digest);
    j.key("build_type").value(PERFBENCH_BUILD_TYPE);
    j.key("sanitizer_build").value(kSanitizerBuild);
    j.key("valid").value(valid);
    j.key("nproc").value(nproc);
    write_host_profile(j);
    j.end_object();
    j.key("exactness_mode").value(w.exactness_mode);
    j.key("attempted").value(c.attempted);
    j.key("failed").value(c.failed);
    j.key("inexact").value(c.inexact);
    j.key("failed_frac").value(failed_frac);
    j.key("loop").begin_object();
    j.key("clients").value(w.clients);
    j.key("shards").value(w.cluster.shards);
    j.key("engine_workers").value(w.cluster.engine.workers);
    j.key("block_workers").value(w.block_workers);
    j.key("epochs").value(opt.trace ? 1 : w.epochs);
    j.key("samples").value(loop.samples);
    j.key("busy_seconds").value(loop.busy_seconds);
    j.key("mean_ms").value(loop.mean_ms);
    j.key("p99_ms").value(loop.p99_ms);
    j.key("setup_samples").begin_array();
    for (const double s : setups) j.value(s);
    j.end_array();
    j.end_object();
    if (opt.trace) {
      j.key("triad").begin_object();
      j.key("gbps").value(triad);
      j.key("array_mib").value(double(triad_bytes) / double(1 << 20));
      j.key("llc_mib").value(double(llc_bytes) / double(1 << 20));
      j.key("threads").value(nproc);
      j.end_object();
      j.key("traced_samples").value(traced.samples);
      j.key("bytes_per_cell_source").value("computed from the blocking plan");
      j.key("rung_ms_per_job");
      write_metrics(j, rungs);
      j.key("chrome_trace").value(trace_path);
    }
    j.key("metrics");
    write_metrics(j, metrics);
    j.end_object();
    rf << "\n";
  }

  std::cout << "perfbench " << w.name << " seed=" << opt.seed
            << " trace=" << (opt.trace ? 1 : 0) << " samples=" << loop.samples
            << (valid ? "" : " [INVALID: not a Release build or sanitized]")
            << "\n";
  print_metrics(metrics, "");
  // Printed and recorded, not BENCHMARK.json metrics: failed_frac is 0 on a
  // correct build, and p99 is only a percentile on serve (elsewhere it is
  // the slowest of a few dozen jobs, too noisy to gate on).
  std::printf("  %-28s %14.4f %s\n", "job_p99_ms", loop.p99_ms, "ms");
  std::printf("  %-28s %14.4f %s\n", "failed_frac", failed_frac, "ratio");
  if (opt.trace) {
    print_metrics(rungs, "rung ");
    std::printf("  triad: %.2f GB/s on %d threads, 3 arrays of %.0f MiB, "
                "LLC %.0f MiB\n",
                triad, nproc, double(triad_bytes) / double(1 << 20),
                double(llc_bytes) / double(1 << 20));
    std::printf("  ladder: rung self times sum to %.4f ms/job; untraced mean "
                "latency %.4f ms/job\n",
                ladder_ms, loop.mean_ms);
  }
  std::cout << "  exactness: " << w.exactness_mode << "\n";
  std::cout << "  record: " << record_path << "\n";

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << c.attempted
       << ", \"failed\": " << (c.failed + c.inexact) << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : metrics.items) {
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    line << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = perfbench::parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}
