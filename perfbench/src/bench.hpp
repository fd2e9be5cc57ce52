// Shared vocabulary of the perfbench runner: the command-line options, the
// job kinds a workload submits, and the measurement helpers every phase
// uses.
//
// The runner drives the library only through its public entry points:
// jobs go through EngineCluster::submit, and the traced ladder calls one
// module's public function per rung (see ladder.cpp and README.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine_cluster.hpp"
#include "program/program_spec.hpp"
#include "stencil/accel_config.hpp"
#include "stencil/tap_set.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

using namespace fpga_stencil;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny sizes: the self-check mode
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

using Fields = std::vector<std::pair<std::string, GridVariant>>;

/// One kind of job a workload submits. A single-stencil kind carries its
/// taps/config/input; a program kind carries the shared ProgramSpec (and a
/// copy whose node configs carry the telemetry hook, for the traced run).
struct JobKind {
  std::string name;
  TapSet taps{2, 1, {Tap{0, 0, 0, 1.0f}}};
  AcceleratorConfig config;
  int iterations = 0;
  GridVariant input = Grid2D<float>(1, 1);
  /// Bit-exact expected result. For paper3d this is the first warm-up
  /// result (the full-grid golden model only runs in the traced run).
  GridVariant expected = Grid2D<float>(1, 1);
  bool has_expected = false;

  std::shared_ptr<const ProgramSpec> program;
  std::shared_ptr<const ProgramSpec> traced_program;
  Fields expected_fields;

  int latency_group = 0;    ///< latency percentiles are taken per group
  double cell_updates = 0;  ///< cells x stencil applications per job

  [[nodiscard]] bool is_program() const { return program != nullptr; }
};

/// A workload: its job kinds, the cluster shape serving them, and how the
/// closed loop picks the next kind.
struct Workload {
  std::string name;
  std::uint64_t seed = 1;
  std::vector<JobKind> kinds;
  ClusterOptions cluster;
  int clients = 1;
  int block_workers = 4;  ///< JobSpec::workers for block-parallel jobs
  /// The untraced loop runs in this many epochs, each on a freshly built
  /// cluster whose construction-to-first-job time is one setup_s sample.
  /// Fresh clusters re-draw the buffer placement and thread state that
  /// otherwise stay fixed for a whole run.
  int epochs = 3;
  int warmup_rounds = 1;  ///< untimed rounds over every kind per epoch
  enum class Pick { first, alternate, uniform } pick = Pick::first;
  /// paper3d checks a reduced-extent job against the golden model on every
  /// epoch; this is that job (empty for the other workloads).
  std::vector<JobKind> check_kinds;
  std::string exactness_mode;
  int ladder_reps = 3;
};

/// Builds the named workload from the seed (inputs and golden results
/// included); throws std::invalid_argument on an unknown name. `hook` is
/// the telemetry the traced program copies attach to their node configs.
Workload make_workload(const Options& opt, Telemetry* hook);

/// Completes the paper3d golden check in the traced run: the full grid
/// through reference_run. Returns true when `result` matches it.
bool full_golden_matches(const JobKind& kind, const GridVariant& result);

/// A fresh JobSpec for `kind`, its input copied into a new allocation
/// before the caller starts any timer. Fresh pages per job matter at
/// 512^3: reusing one pair of buffers pins a run to one physical
/// placement, and placement alone moved paper3d throughput by +-12%
/// between otherwise identical runs. `hook` attaches telemetry to the
/// job's stencil configs.
JobSpec make_spec(const JobKind& kind, const Workload& w, Telemetry* hook);

/// Bit-exact comparison of a finished job against the kind's expectation.
bool result_matches(const JobKind& kind, const JobResult& r);
bool grids_equal(const GridVariant& a, const GridVariant& b);

// ---- measurement helpers ------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q);
/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Metrics of one run, in output order, with units.
struct MetricSet {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.emplace_back(name, std::make_pair(value, unit));
  }
};

/// One completed job, timed on a process-wide clock.
struct JobSample {
  std::int64_t start_ns = 0, end_ns = 0;
  int group = 0;
  double cell_updates = 0;
  std::int64_t queue_ns = 0;
};

/// What closed loops recorded, accumulated over epochs.
struct LoopLog {
  std::vector<JobSample> samples;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< failed + rejected + cancelled
  std::int64_t inexact = 0;
};

/// The statistics the metrics are computed from.
struct LoopResult {
  double busy_seconds = 0;  ///< union of in-flight intervals
  double cell_updates = 0;
  double p50_ms = 0, p99_ms = 0, mean_ms = 0;
  std::int64_t samples = 0;
  double queue_ms_mean = 0;
};

/// Runs `w`'s closed loop against `cluster` for `seconds`, appending to
/// `log`. Every result is checked outside its latency interval.
void run_closed_loop(EngineCluster& cluster, const Workload& w,
                     double seconds, Telemetry* hook, LoopLog& log);
LoopResult summarize(const LoopLog& log);

/// Constructs a cluster and waits for the first warm-up job; returns the
/// elapsed seconds. The cluster is handed back through `out`.
double timed_setup(Workload& w, std::unique_ptr<EngineCluster>& out,
                   bool* warmup_exact);

/// The traced run's per-layer measurements (ladder.cpp).
struct LadderResult {
  MetricSet metrics;
  MetricSet rungs;  ///< per-rung time per job (the record file's detail)
  std::int64_t attempted = 0;
  std::int64_t inexact = 0;
  double cluster_ms_per_job = 0;  ///< top rung, per job
};
LadderResult run_ladder(Workload& w, Telemetry& trace, double triad_gbps);

/// STREAM triad over arrays of `array_bytes` each on `threads` threads;
/// best-of-repeats GB/s.
double triad_gbps(std::int64_t array_bytes, int threads);

}  // namespace perfbench
