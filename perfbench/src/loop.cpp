// Set-up timing, the closed-loop clients, and the measurement helpers.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"

namespace perfbench {
namespace {

/// One origin for every sample of the process, so intervals from several
/// epochs merge on one axis.
std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

/// Seconds during which at least one job was in flight. With one client
/// this is the sum of job latencies (checks and input copies between jobs
/// are excluded); with several it is the loaded window.
double busy_seconds(std::vector<JobSample> s) {
  std::sort(s.begin(), s.end(), [](const JobSample& a, const JobSample& b) {
    return a.start_ns < b.start_ns;
  });
  std::int64_t busy = 0, cur_start = 0, cur_end = -1;
  for (const JobSample& x : s) {
    if (x.start_ns > cur_end) {
      if (cur_end >= 0) busy += cur_end - cur_start;
      cur_start = x.start_ns;
      cur_end = x.end_ns;
    } else {
      cur_end = std::max(cur_end, x.end_ns);
    }
  }
  if (cur_end >= 0) busy += cur_end - cur_start;
  return double(busy) * 1e-9;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double timed_setup(Workload& w, std::unique_ptr<EngineCluster>& out,
                   bool* warmup_exact) {
  JobKind& kind = w.kinds.front();
  JobSpec spec = make_spec(kind, w, nullptr);  // input copy: not set-up
  const Stopwatch clock;
  out = std::make_unique<EngineCluster>(w.cluster);
  JobHandle h = out->submit(std::move(spec));
  JobResult& r = h.wait();
  const double seconds = clock.seconds();
  if (kind.has_expected) {
    *warmup_exact = result_matches(kind, r);
  } else {
    // paper3d at full size: later jobs must reproduce this result bit for
    // bit; the traced run checks it against the golden model.
    kind.expected = std::move(r.grid);
    kind.has_expected = true;
    *warmup_exact = true;
  }
  return seconds;
}

void run_closed_loop(EngineCluster& cluster, const Workload& w,
                     double seconds, Telemetry* hook, LoopLog& log) {
  std::vector<LoopLog> logs(std::size_t(w.clients));
  const std::int64_t deadline = now_ns() + std::int64_t(seconds * 1e9);
  const std::size_t kinds = w.kinds.size();

  const auto client = [&](int c) {
    LoopLog& mine = logs[std::size_t(c)];
    // Epochs continue the same log; offset the stream so they differ.
    SplitMix64 rng(w.seed * 1000003u + std::uint64_t(c) +
                   std::uint64_t(log.attempted));
    for (std::size_t turn = 0;; ++turn) {
      // Alternating loops stop on a whole round so every kind runs
      // equally often.
      const bool round_done = w.pick != Workload::Pick::alternate ||
                              turn % kinds == 0;
      if (round_done && now_ns() >= deadline) break;
      std::size_t k = 0;
      if (w.pick == Workload::Pick::alternate) k = turn % kinds;
      if (w.pick == Workload::Pick::uniform) k = rng.next_below(kinds);
      const JobKind& kind = w.kinds[k];
      JobSpec spec = make_spec(kind, w, hook);
      ++mine.attempted;
      const std::int64_t t0 = now_ns();
      try {
        JobHandle h = cluster.submit(std::move(spec));
        JobResult& r = h.wait();
        mine.samples.push_back(JobSample{t0, now_ns(), kind.latency_group,
                                         kind.cell_updates, r.queue_ns});
        if (!result_matches(kind, r)) ++mine.inexact;
      } catch (const std::exception&) {
        ++mine.failed;  // failed, rejected or cancelled
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < w.clients; ++c) threads.emplace_back(client, c);
  }
  for (const LoopLog& l : logs) {
    log.attempted += l.attempted;
    log.failed += l.failed;
    log.inexact += l.inexact;
    log.samples.insert(log.samples.end(), l.samples.begin(), l.samples.end());
  }
}

LoopResult summarize(const LoopLog& log) {
  LoopResult out;
  const std::vector<JobSample>& all = log.samples;
  out.samples = std::int64_t(all.size());
  if (all.empty()) return out;
  out.busy_seconds = busy_seconds(all);
  int groups = 0;
  double sum_ms = 0, queue_ns = 0;
  for (const JobSample& s : all) {
    out.cell_updates += s.cell_updates;
    groups = std::max(groups, s.group + 1);
    sum_ms += double(s.end_ns - s.start_ns) * 1e-6;
    queue_ns += double(s.queue_ns);
  }
  out.mean_ms = sum_ms / double(all.size());
  out.queue_ms_mean = queue_ns * 1e-6 / double(all.size());
  // A median over a two-point mix (program: ~0.9 s FDTD, ~0.4 s wave)
  // flips between the modes; percentiles are taken per kind group and
  // averaged. Single-group workloads get the plain percentiles.
  for (int g = 0; g < groups; ++g) {
    std::vector<double> lat;
    for (const JobSample& s : all) {
      if (s.group == g) lat.push_back(double(s.end_ns - s.start_ns) * 1e-6);
    }
    out.p50_ms += median(lat) / groups;
    out.p99_ms += percentile(lat, 0.99) / groups;
  }
  return out;
}

double triad_gbps(std::int64_t array_bytes, int threads) {
  const auto n = std::size_t(array_bytes / std::int64_t(sizeof(double)));
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto parallel = [&](auto&& body) {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        body(n * std::size_t(t) / std::size_t(threads),
             n * std::size_t(t + 1) / std::size_t(threads));
      });
    }
  };
  // First touch on the threads that stream the arrays later.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const Stopwatch clock;
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    best = std::min(best, clock.seconds());
  }
  if (a[n / 2] != 7.0) return 0.0;  // the stores must have happened
  return 3.0 * double(n) * sizeof(double) / best * 1e-9;
}

}  // namespace perfbench
