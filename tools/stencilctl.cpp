// stencilctl: command-line front end to the library.
//
//   stencilctl devices
//       list the FPGA catalog with Table II characteristics
//   stencilctl explore --dims D --radius R [--device NAME] [--nx N --ny N --nz N] [--top K]
//       Section V.A design-space exploration (model-based, ranked
//       against the FPGA resource/bandwidth budget)
//   stencilctl tune [--full] [--n2d N] [--n3d N] [--accept-n N]
//                   [--cache FILE] [--probe-cells C] [--serve]
//       empirical host autotuning (docs/TUNING.md): sweep the
//       star/box x 2D/3D x radius 1-4 envelope, search block geometry x
//       temporal depth by measured-throughput probes, and print
//       paper-default vs tuned Mcell/s per point; self-check: every
//       point probed at least one candidate, every tuned run is
//       bit-exact with the default geometry, and the envelope's median
//       gain is at least 1.0; --serve instead drives an
//       autotune=search StencilEngine and self-checks the tuner.*
//       telemetry (one search, every post-warm-up job a tuner.cache_hit)
//   stencilctl model  --dims D --radius R --bsize-x B [--bsize-y B] --parvec V --partime T [--device NAME]
//       resource / fmax / power / performance prediction for one config
//   stencilctl codegen --dims D --radius R --bsize-x B [--bsize-y B] --parvec V --partime T [--box]
//       emit the OpenCL-C kernel source to stdout
//   stencilctl simulate --dims D --radius R --bsize-x B [--bsize-y B] --parvec V --partime T
//                       [--nx N --ny N --nz N] [--iters I] [--box]
//                       [--backend NAME] [--workers W]
//       run the job through the unified run() router (sync / concurrent /
//       block-parallel / resilient) and verify vs the naive reference
//   stencilctl blockpar [--nx N --ny N --nz N] [--radius R] [--parvec V]
//                       [--partime T] [--bsize-x B --bsize-y B] [--iters I]
//                       [--workers LIST] [--generic]
//       scale one overlapped-blocking job across host worker counts
//       through the block-parallel backend; self-check: every run
//       bit-exact vs the synchronous sweep and visits every block of
//       every pass, and (on hosts with enough cores) the top worker
//       count reaches 3/8 of linear speedup
//   stencilctl faults [--plan SPEC] [--boards B] [--nx N --ny N] [--iters I]
//       run a seeded fault campaign (default: one of every recoverable
//       fault class) through the shim, the resilient concurrent runtime,
//       and the cluster failover path, and print the resilience counters
//   stencilctl metrics [config flags] [--format table|json|csv] [--out FILE]
//       run the threaded dataflow pipeline with telemetry attached and
//       report the metrics snapshot (channel high-water marks, blocked
//       time, per-pass throughput)
//   stencilctl trace [config flags] [--out trace.json]
//       same instrumented run, exported as Chrome trace_event JSON
//       (open in chrome://tracing or https://ui.perfetto.dev)
//   stencilctl engine [--jobs N] [--workers W] [--iters I] [--queue Q]
//       drive a mixed 2D/3D job campaign through one StencilEngine
//       session (plan cache + buffer pool + backend router) and
//       self-check: every job bit-exact vs the naive reference, at least
//       one plan-cache hit, no failed jobs
//   stencilctl serve [--jobs N] [--shards S] [--workers W] [--seed S]
//                    [--iters I] [--window W]
//       the serving-tier campaign (docs/SERVING.md): N mixed jobs
//       (star/box x 2D/3D x radius 1-4) from a skewed five-tenant mix
//       (QoS classes, a rate-capped tenant, a blocking inflight-capped
//       tenant, a fault-seeded tenant) through an EngineCluster of S
//       shards; one shard is drained and reloaded mid-campaign.
//       Self-checks: exact accounting (every submission rejected or
//       terminal), zero failed/hung jobs, every survivor bit-exact,
//       chunked deliveries reassemble exactly, >= 1 quota rejection,
//       per-shard plan-cache hit rate > 0.9, shard balance bounded,
//       zero leaked pool leases, and the faulty tenant never degrades
//       clean tenants' p99 (vs a clean calibration phase); the scale
//       probe's 3/8-linear speedup gate is only checked when the host
//       has enough cores (like blockpar)
//   stencilctl chaos [--jobs N] [--workers W] [--seed S]
//       the robustness campaign (docs/LIFECYCLE.md): first a
//       deterministic circuit-breaker proof (fault-injected concurrent
//       jobs trip the breaker open, jobs reroute to the sync fallback,
//       a post-cooldown probe closes it again), then N mixed jobs with
//       seeded random cancellations and deadlines; self-check: zero
//       hangs, zero unexpected failures, zero leaked pool buffers,
//       every surviving job bit-exact, at least one cancel latency
//       recorded
//   stencilctl program [--n2d N] [--n3d N] [--steps S] [--steps3d S]
//                      [--shards S] [--workers W]
//       the multi-field program campaigns (docs/PROGRAMS.md): a 2D FDTD
//       E/H update (dirichlet walls) and a 3D damped wave equation
//       (reflective walls, work-field leapfrog), each a ProgramSpec DAG
//       submitted through EngineCluster::submit. Self-checks: every
//       field bit-exact vs the multi-field golden model, chunked
//       per-field delivery reassembles exactly, repeated submissions
//       route to one shard and hit the per-node plan cache, zero leaked
//       pool leases
//
// A command rejects any flag it does not read (see commands()).
// Exit status: 0 on success, 1 on verification/model failure, 2 on usage.
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/multi_fpga.hpp"
#include "codegen/kernel_generator.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/concurrent_accelerator.hpp"
#include "core/stencil_accelerator.hpp"
#include "engine/engine_cluster.hpp"
#include "engine/run.hpp"
#include "engine/stencil_engine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/resilient_runner.hpp"
#include "telemetry/telemetry.hpp"
#include "fpga/fmax_model.hpp"
#include "fpga/power_model.hpp"
#include "grid/grid_compare.hpp"
#include "kernels/kernel_registry.hpp"
#include "model/performance_model.hpp"
#include "ocl/opencl_shim.hpp"
#include "program/program_reference.hpp"
#include "program/program_spec.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"
#include "tune/host_autotuner.hpp"
#include "tune/tuner.hpp"

using namespace fpga_stencil;

namespace {

/// `text` as a whole integer, or a ConfigError naming `--flag`.
std::int64_t parse_int(const std::string& flag, const std::string& text) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw ConfigError("--" + flag + " expects an integer, got `" + text +
                      "`");
  }
  return v;
}

/// The flags one command line set: `--key value` pairs, and switches
/// (flags that take no value) stored with an empty value.
struct Args {
  std::map<std::string, std::string> kv;

  [[nodiscard]] std::int64_t get(const std::string& key,
                                 std::int64_t fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : parse_int(key, it->second);
  }
  [[nodiscard]] std::string get_str(const std::string& key,
                                    const std::string& fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return kv.count(key) != 0;
  }
};

/// Parses argv[start..] against one command's flag list (a commands()
/// entry): a listed flag followed by a placeholder takes a value, one
/// followed by another flag (or by nothing) is a switch, and any flag the
/// list does not name is a ConfigError.
Args parse_args(const std::string& command, const std::string& flags,
                int argc, char** argv, int start) {
  std::map<std::string, bool> takes_value;
  {
    std::istringstream ss(flags);
    std::vector<std::string> toks{std::istream_iterator<std::string>(ss),
                                  std::istream_iterator<std::string>()};
    for (std::size_t t = 0; t < toks.size(); ++t) {
      if (toks[t].rfind("--", 0) != 0) continue;
      takes_value[toks[t].substr(2)] =
          t + 1 < toks.size() && toks[t + 1].rfind("--", 0) != 0;
    }
  }
  Args a;
  for (int i = start; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw ConfigError("expected --flag, got `" + key + "`");
    }
    key = key.substr(2);
    const auto it = takes_value.find(key);
    if (it == takes_value.end()) {
      throw ConfigError("`" + command + "` does not take --" + key);
    }
    if (!it->second) {
      a.kv[key] = "";
      continue;
    }
    if (i + 1 >= argc) throw ConfigError("missing value for --" + key);
    a.kv[key] = argv[++i];
  }
  return a;
}

DeviceSpec device_from(const Args& a) {
  const std::string name = a.get_str("device", "Arria 10");
  for (const DeviceSpec& d :
       {arria10_gx1150(), stratix_v_gxa7(), stratix10_gx2800(),
        stratix10_mx2100()}) {
    if (d.name.find(name) != std::string::npos) return d;
  }
  throw ConfigError("unknown device `" + name + "`");
}

AcceleratorConfig config_from(const Args& a) {
  AcceleratorConfig cfg;
  cfg.dims = static_cast<int>(a.get("dims", 2));
  cfg.radius = static_cast<int>(a.get("radius", 1));
  cfg.bsize_x = a.get("bsize-x", cfg.dims == 2 ? 4096 : 256);
  cfg.bsize_y = cfg.dims == 3 ? a.get("bsize-y", 128) : 1;
  cfg.parvec = static_cast<int>(a.get("parvec", 4));
  cfg.partime = static_cast<int>(a.get("partime", 4));
  cfg.validate();
  return cfg;
}

int cmd_devices() {
  TextTable t({"Device", "GFLOP/s", "GB/s", "FLOP/Byte", "DSPs", "M20Ks",
               "TDP W"});
  for (const DeviceSpec& d :
       {arria10_gx1150(), stratix_v_gxa7(), stratix10_gx2800(),
        stratix10_mx2100()}) {
    t.add_row({d.name, format_fixed(d.peak_gflops, 0),
               format_fixed(d.peak_bw_gbps, 1),
               format_fixed(d.flop_per_byte(), 1), std::to_string(d.dsps),
               std::to_string(d.m20k_blocks), format_fixed(d.tdp_watts, 0)});
  }
  t.render(std::cout);
  return 0;
}

int cmd_explore(const Args& a) {
  TunerOptions o;
  o.dims = static_cast<int>(a.get("dims", 2));
  o.radius = static_cast<int>(a.get("radius", 1));
  o.nx = a.get("nx", o.dims == 2 ? 16096 : 696);
  o.ny = a.get("ny", o.dims == 2 ? 16096 : 728);
  o.nz = o.dims == 3 ? a.get("nz", 696) : 1;
  const DeviceSpec dev = device_from(a);
  const auto configs = enumerate_configs(dev, o);
  const std::size_t top = std::size_t(a.get("top", 5));
  std::cout << configs.size() << " feasible configurations on " << dev.name
            << "; top " << std::min(top, configs.size()) << ":\n";
  TextTable t({"rank", "config", "aligned", "pred GB/s", "GFLOP/s", "fmax",
               "DSP", "BRAM blk"});
  for (std::size_t i = 0; i < configs.size() && i < top; ++i) {
    const TunedConfig& c = configs[i];
    t.add_row({std::to_string(i + 1), c.config.describe(),
               c.meets_alignment ? "yes" : "no",
               format_fixed(c.perf.measured_gbps, 1),
               format_fixed(c.perf.measured_gflops, 1),
               format_fixed(c.fmax_mhz, 1),
               format_percent(c.usage.dsp_fraction),
               format_percent(c.usage.bram_block_fraction)});
  }
  t.render(std::cout);
  return configs.empty() ? 1 : 0;
}

int cmd_model(const Args& a) {
  const AcceleratorConfig cfg = config_from(a);
  const DeviceSpec dev = device_from(a);
  const ResourceUsage u = estimate_resources(cfg, dev);
  const double fmax = estimate_fmax_mhz(cfg, dev);
  const std::int64_t nx = a.get("nx", cfg.dims == 2 ? 16096 : 696);
  const std::int64_t ny = a.get("ny", cfg.dims == 2 ? 16096 : 728);
  const std::int64_t nz = cfg.dims == 3 ? a.get("nz", 696) : 1;
  const PerformanceEstimate e =
      estimate_performance(cfg, dev, fmax, nx, ny, nz);

  std::cout << "configuration: " << cfg.describe() << " on " << dev.name
            << "\n"
            << "fits: " << (u.fits() ? "yes" : "NO") << "\n"
            << "  DSP          " << u.dsps << " ("
            << format_percent(u.dsp_fraction) << ")\n"
            << "  BRAM bits    " << format_percent(u.bram_bits_fraction)
            << ", blocks " << format_percent(u.bram_block_fraction) << "\n"
            << "  logic        " << format_percent(u.logic_fraction) << "\n"
            << "fmax:  " << format_fixed(fmax, 1) << " MHz\n"
            << "power: "
            << format_fixed(estimate_power_watts(cfg, dev, fmax), 1)
            << " W\n"
            << "performance on " << nx << "x" << ny
            << (cfg.dims == 3 ? "x" + std::to_string(nz) : "") << ":\n"
            << "  estimated  " << format_fixed(e.estimated_gbps, 1)
            << " GB/s\n"
            << "  pipeline efficiency "
            << format_percent(e.pipeline_efficiency) << "\n"
            << "  predicted  " << format_fixed(e.measured_gbps, 1)
            << " GB/s = " << format_fixed(e.measured_gflops, 1)
            << " GFLOP/s = " << format_fixed(e.measured_gcells, 2)
            << " GCell/s\n"
            << "  roofline ratio " << format_fixed(e.roofline_ratio, 2)
            << "x of " << format_fixed(dev.peak_bw_gbps, 1) << " GB/s peak\n";
  return u.fits() ? 0 : 1;
}

int cmd_codegen(const Args& a) {
  const AcceleratorConfig cfg = config_from(a);
  if (a.has("box")) {
    const TapSet box = make_box_stencil(cfg.dims, cfg.radius);
    std::cout << generate_tap_kernel_source(box, {cfg, true});
  } else {
    std::cout << generate_kernel_source({cfg, true});
  }
  return 0;
}

/// --backend flag -> ExecutionBackend; `automatic` defers to the router.
ExecutionBackend backend_from(const Args& a) {
  const std::string name = a.get_str("backend", "automatic");
  for (const ExecutionBackend b :
       {ExecutionBackend::automatic, ExecutionBackend::sync_sim,
        ExecutionBackend::concurrent, ExecutionBackend::block_parallel,
        ExecutionBackend::resilient, ExecutionBackend::cluster}) {
    if (name == backend_name(b)) return b;
  }
  throw ConfigError("unknown --backend `" + name +
                    "` (want automatic|sync_sim|concurrent|block_parallel|"
                    "resilient|cluster)");
}

int cmd_simulate(const Args& a) {
  const AcceleratorConfig cfg = config_from(a);
  const std::int64_t nx = a.get("nx", 200);
  const std::int64_t ny = a.get("ny", cfg.dims == 2 ? 100 : 60);
  const std::int64_t nz = cfg.dims == 3 ? a.get("nz", 30) : 1;
  const int iters = static_cast<int>(a.get("iters", cfg.partime + 1));
  const TapSet taps =
      a.has("box") ? make_box_stencil(cfg.dims, cfg.radius)
            : StarStencil::make_benchmark(cfg.dims, cfg.radius).to_taps();

  RunOptions opts;
  opts.backend = backend_from(a);
  opts.workers = static_cast<int>(a.get("workers", 0));
  const ExecutionBackend resolved =
      resolve_backend(taps, cfg, nx, ny, nz, opts);

  Stopwatch sw;
  CompareResult cmp;
  RunStats stats;
  if (cfg.dims == 2) {
    Grid2D<float> g(nx, ny);
    g.fill_random(1);
    Grid2D<float> want = g;
    stats = run(taps, cfg, g, iters, opts);
    reference_run(taps, want, iters);
    cmp = compare_exact(g, want);
  } else {
    Grid3D<float> g(nx, ny, nz);
    g.fill_random(1);
    Grid3D<float> want = g;
    stats = run(taps, cfg, g, iters, opts);
    reference_run(taps, want, iters);
    cmp = compare_exact(g, want);
  }

  std::cout << "simulated " << cfg.describe() << " on " << nx << "x" << ny
            << (cfg.dims == 3 ? "x" + std::to_string(nz) : "") << " for "
            << iters << " iterations via " << backend_name(resolved)
            << " backend (" << format_fixed(sw.seconds(), 2)
            << " s host time)\n"
            << "  passes " << stats.passes << ", cells streamed "
            << stats.cells_streamed << ", redundancy "
            << format_fixed(stats.redundancy(), 3) << "x, pipeline cycles "
            << stats.vectors_processed << "\n"
            << "  verification vs naive reference: " << cmp.summary()
            << "\n";
  return cmp.identical() ? 0 : 1;
}

/// Shared workload of `metrics` and `trace`: the threaded dataflow
/// pipeline (the only engine where channels and stage overlap exist) with
/// the telemetry hook attached through AcceleratorConfig.
RunStats run_instrumented(const Args& a, Telemetry& telemetry,
                          std::ostream& os) {
  AcceleratorConfig cfg = config_from(a);
  cfg.telemetry = &telemetry;
  const std::int64_t nx = a.get("nx", 200);
  const std::int64_t ny = a.get("ny", cfg.dims == 2 ? 100 : 60);
  const std::int64_t nz = cfg.dims == 3 ? a.get("nz", 30) : 1;
  const int iters = static_cast<int>(a.get("iters", cfg.partime + 1));
  const std::size_t depth = std::size_t(a.get("depth", 64));
  const TapSet taps =
      a.has("box") ? make_box_stencil(cfg.dims, cfg.radius)
            : StarStencil::make_benchmark(cfg.dims, cfg.radius).to_taps();

  RunStats stats;
  RunOptions opts;
  opts.backend = ExecutionBackend::concurrent;
  opts.channel_depth = depth;
  if (cfg.dims == 2) {
    Grid2D<float> g(nx, ny);
    g.fill_random(1);
    stats = run(taps, cfg, g, iters, opts);
  } else {
    Grid3D<float> g(nx, ny, nz);
    g.fill_random(1);
    stats = run(taps, cfg, g, iters, opts);
  }
  os << "instrumented concurrent run: " << cfg.describe() << " on " << nx
     << "x" << ny << (cfg.dims == 3 ? "x" + std::to_string(nz) : "")
     << " for " << iters << " iterations (" << stats.passes << " passes)\n";
  return stats;
}

int cmd_metrics(const Args& a) {
  Telemetry telemetry;
  run_instrumented(a, telemetry, std::cout);
  const MetricsSnapshot snap = telemetry.metrics().snapshot();

  const std::string format = a.get_str("format", "table");
  const std::string out = a.get_str("out", "");
  std::ofstream file;
  if (!out.empty()) {
    file.open(out);
    if (!file) throw ConfigError("cannot open --out file `" + out + "`");
  }
  std::ostream& os = out.empty() ? std::cout : file;

  if (format == "json") {
    snap.write_json(os);
  } else if (format == "csv") {
    snap.write_csv(os);
  } else if (format == "table") {
    TextTable t({"metric", "kind", "value", "sum"});
    for (const MetricSample& s : snap.samples) {
      t.add_row({s.name, std::string(metric_kind_name(s.kind)),
                 std::to_string(s.value),
                 s.kind == MetricKind::histogram ? std::to_string(s.sum)
                                                 : ""});
    }
    t.render(os);
  } else {
    throw ConfigError("unknown --format `" + format +
                      "` (want table|json|csv)");
  }
  if (!out.empty()) {
    std::cout << snap.samples.size() << " metrics written to " << out
              << "\n";
  }
  // A healthy pipeline run must have moved data through the channels.
  return snap.value_or("channel.0.high_water", 0) > 0 &&
                 snap.value_or("pipeline.cells_written", 0) > 0
             ? 0
             : 1;
}

int cmd_trace(const Args& a) {
  Telemetry telemetry;
  run_instrumented(a, telemetry, std::cout);
  const AcceleratorConfig cfg = config_from(a);

  std::ostringstream json;
  telemetry.tracer().write_chrome_trace(json);
  if (!json_is_valid(json.str())) {
    std::cerr << "stencilctl: internal error: trace JSON failed "
                 "validation\n";
    return 1;
  }

  const std::string out = a.get_str("out", "trace.json");
  std::ofstream file(out);
  if (!file) throw ConfigError("cannot open --out file `" + out + "`");
  file << json.str();

  // Self-check: the trace must cover every pipeline stage.
  const std::vector<std::string> names = telemetry.tracer().event_names();
  const auto covered = [&](const std::string& want) {
    return std::find(names.begin(), names.end(), want) != names.end();
  };
  bool all_stages = covered("read_kernel") && covered("write_kernel");
  for (int k = 0; k < cfg.partime; ++k) {
    all_stages = all_stages && covered("PE" + std::to_string(k));
  }
  std::cout << telemetry.tracer().event_count() << " trace events written"
            << " to " << out << " (open in chrome://tracing or "
            << "https://ui.perfetto.dev)\n"
            << "  stage coverage: "
            << (all_stages ? "read kernel, every PE, write kernel"
                           : "INCOMPLETE")
            << "\n";
  return all_stages ? 0 : 1;
}

// The default demo campaign: at least one budgeted fault at every
// recoverable site, so every resilience mechanism (shim retry, watchdog
// replay, checksum rollback, cluster failover) exercises once and the
// replayed attempts run clean.
constexpr const char* kDefaultFaultPlan =
    "seed=42,shim_build:n=2,shim_transfer:n=1,shim_enqueue:n=1,"
    "channel_stall:n=1,kernel_hang:n=1,seu_bit_flip:n=150,"
    "board_dropout:n=1,link_degrade:n=2";

int cmd_faults(const Args& a) {
  // Plan resolution: --plan beats the environment beats the demo default.
  FaultPlan plan;
  if (a.has("plan")) {
    plan = FaultPlan::parse(a.get_str("plan", ""));
  } else {
    plan = FaultPlan::from_env();
    if (plan.empty()) plan = FaultPlan::parse(kDefaultFaultPlan);
  }

  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = static_cast<int>(a.get("radius", 2));
  cfg.bsize_x = a.get("bsize-x", 48);
  cfg.parvec = static_cast<int>(a.get("parvec", 4));
  cfg.partime = static_cast<int>(a.get("partime", 3));
  cfg.validate();
  const std::int64_t nx = a.get("nx", 96);
  const std::int64_t ny = a.get("ny", 48);
  const int iters = static_cast<int>(a.get("iters", 4 * cfg.partime));
  const int boards = static_cast<int>(a.get("boards", 4));
  const DeviceSpec dev = device_from(a);

  const StarStencil star = StarStencil::make_benchmark(2, cfg.radius);
  const TapSet taps = star.to_taps();
  Grid2D<float> initial(nx, ny);
  initial.fill_random(7);
  Grid2D<float> want = initial;
  reference_run(taps, want, iters);

  FaultInjector injector(plan);
  ScopedFaultInjector scope(injector);
  std::cout << "fault campaign: " << plan.describe() << "\n"
            << "workload: " << cfg.describe() << ", " << nx << "x" << ny
            << ", " << iters << " iterations, " << boards << " boards on "
            << dev.name << "\n\n";
  bool all_exact = true;

  // Stage 1: the OpenCL host flow under retry (shim_* fault sites).
  std::int64_t build_retries = 0;
  std::int64_t transfer_retries = 0;
  {
    const ocl::Platform platform = ocl::Platform::intel_fpga_sdk();
    const ocl::Context ctx(platform.device_by_name(dev.name));
    const std::string opts = "-DDIM=2 -DRAD=" + std::to_string(cfg.radius) +
                             " -DBSIZE_X=" + std::to_string(cfg.bsize_x) +
                             " -DPAR_VEC=" + std::to_string(cfg.parvec) +
                             " -DPAR_TIME=" + std::to_string(cfg.partime);
    RetryPolicy policy;
    policy.base_delay = std::chrono::microseconds(100);
    const ocl::Program program =
        ocl::Program::build_with_retry(ctx, opts, policy, &build_retries);
    const std::size_t bytes = std::size_t(nx) * std::size_t(ny) * 4;
    ocl::Buffer in(ctx, bytes);
    ocl::Buffer out(ctx, bytes);
    ocl::CommandQueue queue(ctx);
    Grid2D<float> got(nx, ny);
    retry_transient(
        policy,
        [&] { queue.enqueue_write_buffer(in, initial.data(), bytes); },
        &transfer_retries);
    retry_transient(
        policy,
        [&] { queue.enqueue_stencil_2d(program, star, in, out, nx, ny, iters); },
        &transfer_retries);
    retry_transient(
        policy, [&] { queue.enqueue_read_buffer(out, got.data(), bytes); },
        &transfer_retries);
    const CompareResult cmp = compare_exact(got, want);
    all_exact = all_exact && cmp.identical();
    std::cout << "[shim]      " << cmp.summary() << " (build retries "
              << build_retries << ", enqueue/transfer retries "
              << transfer_retries << ")\n";
  }

  // Stage 2: the resilient concurrent runtime (hang/stall/SEU sites).
  RunStats rstats;
  {
    ResilienceOptions opts;
    opts.base.watchdog_deadline = std::chrono::milliseconds(250);
    opts.base.injector = &injector;
    opts.max_pass_attempts = 5;
    opts.checkpoint_interval = 2;
    Grid2D<float> got = initial;
    rstats = run_resilient(taps, cfg, got, iters, opts);
    const CompareResult cmp = compare_exact(got, want);
    all_exact = all_exact && cmp.identical();
    std::cout << "[resilient] " << cmp.summary() << " (watchdog trips "
              << rstats.watchdog_trips << ", checksum failures "
              << rstats.checksum_failures << ", pass replays "
              << rstats.pass_replays << ")\n";
  }

  // Stage 3: cluster failover (board_dropout / link_degrade sites).
  ClusterStats cstats;
  {
    MultiFpgaCluster cluster(boards, taps, cfg, dev, LinkSpec{});
    Grid2D<float> got = initial;
    cstats = cluster.run(got, iters);
    const CompareResult cmp = compare_exact(got, want);
    all_exact = all_exact && cmp.identical();
    std::cout << "[cluster]   " << cmp.summary() << " ("
              << cluster.alive_boards() << "/" << boards
              << " boards alive, pass replays " << cstats.pass_replays
              << ", degraded-link passes " << cstats.link_degraded_passes
              << ")\n";
  }

  std::cout << "\nresilience counters\n";
  TextTable t({"counter", "value"});
  t.add_row({"faults injected", std::to_string(injector.total_fires())});
  t.add_row({"shim build retries", std::to_string(build_retries)});
  t.add_row({"shim transfer/enqueue retries", std::to_string(transfer_retries)});
  t.add_row({"watchdog trips", std::to_string(rstats.watchdog_trips)});
  t.add_row({"checksum failures", std::to_string(rstats.checksum_failures)});
  t.add_row({"pass replays (device)", std::to_string(rstats.pass_replays)});
  t.add_row({"checkpoints saved", std::to_string(rstats.checkpoints_saved)});
  t.add_row({"checkpoint restores", std::to_string(rstats.checkpoint_restores)});
  t.add_row({"degraded to reference",
             rstats.degraded_to_reference ? "yes" : "no"});
  t.add_row({"board dropouts", std::to_string(cstats.board_dropouts)});
  t.add_row({"cluster pass replays", std::to_string(cstats.pass_replays)});
  t.add_row({"link-degraded passes", std::to_string(cstats.link_degraded_passes)});
  t.render(std::cout);
  std::cout << "\ninjector report\n" << injector.report();
  const bool fired = plan.empty() || injector.total_fires() > 0;
  std::cout << "\ncampaign " << (all_exact && fired ? "survived" : "FAILED")
            << ": "
            << (all_exact ? "all outputs bit-exact vs naive reference"
                          : "output NOT bit-exact vs naive reference");
  if (!fired) {
    std::cout << " (planned faults never fired -- nothing was exercised)";
  }
  std::cout << "\n";
  return all_exact && fired ? 0 : 1;
}

// The engine demo campaign: a stream of mixed 2D/3D jobs through one
// StencilEngine session. Eight job kinds cycle: star/box 2D and star 3D
// on the synchronous simulator, the same specs again (plan-cache hits),
// one job on the threaded dataflow backend, one fault-injected job routed
// to the resilient runner, and one 3-board cluster job -- all sharing
// three distinct plans, so the steady-state cache hit rate approaches 1.
int cmd_engine(const Args& a) {
  const int jobs = static_cast<int>(a.get("jobs", 64));
  const int iters = static_cast<int>(a.get("iters", 3));
  if (jobs < 1) throw ConfigError("--jobs must be >= 1");

  EngineOptions eopts;
  eopts.workers = static_cast<int>(a.get("workers", 4));
  eopts.queue_capacity = std::size_t(a.get("queue", 128));

  AcceleratorConfig c2;
  c2.dims = 2;
  c2.radius = 1;
  c2.bsize_x = 32;
  c2.parvec = 4;
  c2.partime = 2;
  AcceleratorConfig c3;
  c3.dims = 3;
  c3.radius = 1;
  c3.bsize_x = 16;
  c3.bsize_y = 8;
  c3.parvec = 4;
  c3.partime = 2;
  const TapSet star2 = StarStencil::make_benchmark(2, 1, 5).to_taps();
  const TapSet box2 = make_box_stencil(2, 1, 21);
  const TapSet star3 = StarStencil::make_benchmark(3, 1, 9).to_taps();
  const auto fresh2 = [] {
    Grid2D<float> g(48, 20);
    g.fill_random(3);
    return g;
  };
  const auto fresh3 = [] {
    Grid3D<float> g(20, 14, 10);
    g.fill_random(4);
    return g;
  };
  Grid2D<float> want_star2 = fresh2();
  reference_run(star2, want_star2, iters);
  Grid2D<float> want_box2 = fresh2();
  reference_run(box2, want_box2, iters);
  Grid3D<float> want_star3 = fresh3();
  reference_run(star3, want_star3, iters);

  // One budgeted hang: the first resilient job survives a watchdog trip,
  // later ones run clean (exercises injector pass-through, not chaos).
  FaultInjector injector(FaultPlan::parse("seed=3,kernel_hang:n=1"));

  StencilEngine engine(eopts);
  std::vector<JobHandle> handles;
  std::vector<int> kinds;
  handles.reserve(std::size_t(jobs));
  for (int i = 0; i < jobs; ++i) {
    const int kind = i % 8;
    kinds.push_back(kind);
    JobSpec spec = [&]() -> JobSpec {
      switch (kind) {
        case 1:
        case 7: return {box2, c2, fresh2(), iters};
        case 2:
        case 6: return {star3, c3, fresh3(), iters};
        default: return {star2, c2, fresh2(), iters};
      }
    }();
    if (kind == 3) spec.backend = Backend::concurrent;
    if (kind == 4) spec.injector = &injector;  // routes to resilient
    if (kind == 5) spec.boards = 3;            // routes to cluster
    spec.label = "job-" + std::to_string(i);
    handles.push_back(engine.submit(std::move(spec)));
  }

  int completed = 0;
  int exact = 0;
  for (int i = 0; i < jobs; ++i) {
    JobResult& r = handles[std::size_t(i)].wait();
    ++completed;
    bool ok = false;
    switch (kinds[std::size_t(i)]) {
      case 1:
      case 7: ok = compare_exact(r.grid2d(), want_box2).identical(); break;
      case 2:
      case 6: ok = compare_exact(r.grid3d(), want_star3).identical(); break;
      default: ok = compare_exact(r.grid2d(), want_star2).identical(); break;
    }
    exact += ok ? 1 : 0;
  }
  const EngineStats stats = engine.stats();

  std::cout << "engine campaign: " << jobs << " jobs through "
            << eopts.workers << " workers (" << iters
            << " iterations each)\n";
  TextTable t({"counter", "value"});
  t.add_row({"jobs completed", std::to_string(completed)});
  t.add_row({"jobs bit-exact", std::to_string(exact)});
  t.add_row({"jobs failed", std::to_string(stats.jobs_failed)});
  t.add_row({"plan-cache hits", std::to_string(stats.plan_cache_hits)});
  t.add_row({"plan-cache misses", std::to_string(stats.plan_cache_misses)});
  t.add_row({"cache hit rate",
             format_fixed(stats.cache_hit_rate() * 100.0, 1) + "%"});
  t.add_row({"pool allocations", std::to_string(stats.pool_allocations)});
  t.add_row({"pool reuses", std::to_string(stats.pool_reuses)});
  t.add_row({"queue high-water", std::to_string(stats.queue_high_water)});
  t.add_row({"faults injected", std::to_string(injector.total_fires())});
  t.render(std::cout);

  // Self-check: the campaign passes only if the session served every job
  // correctly and actually exercised the plan cache.
  const bool ok = completed == jobs && exact == jobs &&
                  stats.jobs_failed == 0 && stats.plan_cache_hits >= 1;
  std::cout << "campaign " << (ok ? "passed" : "FAILED") << ": " << exact
            << "/" << jobs << " bit-exact, hit rate "
            << format_fixed(stats.cache_hit_rate() * 100.0, 1) << "%\n";
  return ok ? 0 : 1;
}

// The block-parallel scaling campaign: one fixed overlapped-blocking job,
// a timed synchronous baseline (whose output doubles as the exactness
// oracle), then the same job through the block-parallel backend at each
// requested worker count. Self-checks: every run bit-exact with the sync
// sweep; and when the host actually has as many cores as the largest
// worker count, the best speedup must reach 3/8 of linear (3x at 8
// workers, the acceptance bar) -- on smaller hosts the scaling gate is
// recorded as unchecked rather than failed, since host parallelism
// cannot manifest without cores.
int cmd_blockpar(const Args& a) {
  AcceleratorConfig cfg;
  cfg.dims = static_cast<int>(a.get("dims", 3));
  cfg.radius = static_cast<int>(a.get("radius", 2));
  cfg.parvec = static_cast<int>(a.get("parvec", 4));
  cfg.partime = static_cast<int>(a.get("partime", 4));
  cfg.bsize_x = a.get("bsize-x", 136);
  cfg.bsize_y = cfg.dims == 3 ? a.get("bsize-y", 136) : 1;
  cfg.use_specialized_kernels = !a.has("generic");
  cfg.validate();
  const std::int64_t nx = a.get("nx", 512);
  const std::int64_t ny = a.get("ny", 512);
  const std::int64_t nz = cfg.dims == 3 ? a.get("nz", 512) : 1;
  const int iters = static_cast<int>(a.get("iters", cfg.partime));
  const std::int64_t cells = nx * ny * nz;

  std::vector<int> worker_counts;
  {
    std::stringstream ss(a.get_str("workers", "1,2,4,8"));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const int w = static_cast<int>(parse_int("workers", tok));
      if (w < 1) throw ConfigError("--workers entries must be >= 1");
      worker_counts.push_back(w);
    }
    if (worker_counts.empty()) throw ConfigError("--workers list is empty");
  }
  const int max_workers =
      *std::max_element(worker_counts.begin(), worker_counts.end());

  const TapSet taps =
      a.has("box") ? make_box_stencil(cfg.dims, cfg.radius)
            : StarStencil::make_benchmark(cfg.dims, cfg.radius).to_taps();
  const AcceleratorConfig rcfg = resolve_stage_lag(taps, cfg);
  const BlockingPlan plan = cfg.dims == 3
                                ? make_blocking_plan(rcfg, nx, ny, nz)
                                : make_blocking_plan(rcfg, nx, ny);
  const std::int64_t blocks = plan.total_blocks();

  std::cout << "block-parallel campaign: " << cfg.describe() << " on " << nx
            << "x" << ny << (cfg.dims == 3 ? "x" + std::to_string(nz) : "")
            << " for " << iters << " iterations, " << blocks
            << " blocks/pass, workers {";
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    std::cout << (i ? "," : "") << worker_counts[i];
  }
  std::cout << "}, "
            << (cfg.use_specialized_kernels ? "specialized kernels"
                                            : "interpreter (--generic)")
            << "\n";

  struct Row {
    int workers = 0;
    int resolved = 0;
    std::int64_t blocks = 0;
    double wall = 0.0;
    double cells_per_s = 0.0;
    double blocks_per_s = 0.0;
    double speedup = 0.0;
    bool exact = false;
  };
  std::vector<Row> rows;
  double baseline_wall = 0.0;
  double baseline_cells_per_s = 0.0;
  double redundancy = 0.0;
  bool all_exact = true;

  const auto campaign = [&](auto initial) {
    auto oracle = initial;
    {
      StencilAccelerator accel(taps, cfg);
      const Stopwatch sw;
      accel.run(oracle, iters);
      baseline_wall = sw.seconds();
    }
    baseline_cells_per_s = double(cells) * iters / baseline_wall;
    for (const int w : worker_counts) {
      auto g = initial;
      RunOptions opts;
      opts.workers = w;
      const Stopwatch sw;
      const RunStats stats = run_block_parallel(taps, cfg, g, iters, opts);
      Row row;
      row.workers = w;
      row.resolved = resolved_block_workers(opts, plan);
      row.blocks = stats.block_passes;
      row.wall = sw.seconds();
      row.cells_per_s = double(cells) * iters / row.wall;
      row.blocks_per_s = double(stats.block_passes) / row.wall;
      row.speedup = baseline_wall / row.wall;
      row.exact = compare_exact(g, oracle).identical();
      all_exact = all_exact && row.exact;
      redundancy = stats.redundancy();
      rows.push_back(row);
    }
  };
  if (cfg.dims == 2) {
    Grid2D<float> initial(nx, ny);
    initial.fill_random(1);
    campaign(std::move(initial));
  } else {
    Grid3D<float> initial(nx, ny, nz);
    initial.fill_random(1);
    campaign(std::move(initial));
  }

  TextTable t({"workers", "resolved", "blocks", "wall s", "Mcells/s",
               "blocks/s", "speedup", "exact"});
  t.add_row({"sync", "-", std::to_string(blocks * ((iters + cfg.partime - 1) /
                                                   cfg.partime)),
             format_fixed(baseline_wall, 3),
             format_fixed(baseline_cells_per_s / 1e6, 1), "-", "1.00",
             "yes"});
  for (const Row& r : rows) {
    t.add_row({std::to_string(r.workers), std::to_string(r.resolved),
               std::to_string(r.blocks), format_fixed(r.wall, 3),
               format_fixed(r.cells_per_s / 1e6, 1),
               format_fixed(r.blocks_per_s, 1), format_fixed(r.speedup, 2),
               r.exact ? "yes" : "NO"});
  }
  t.render(std::cout);

  double best_speedup = 0.0;
  for (const Row& r : rows) best_speedup = std::max(best_speedup, r.speedup);
  const unsigned hc = std::thread::hardware_concurrency();
  const bool gate_checked = hc >= unsigned(max_workers);
  const bool gate_ok =
      !gate_checked || best_speedup >= 0.375 * double(max_workers);
  std::cout << "redundancy " << format_fixed(redundancy, 3)
            << "x, best speedup " << format_fixed(best_speedup, 2) << "x ("
            << hc << " hardware threads; scaling gate "
            << (gate_checked ? (gate_ok ? "passed" : "FAILED") : "skipped")
            << ")\n";

  // Block accounting: every run visited each of the plan's blocks on
  // every pass, and streamed at least the cells it retired.
  bool blocks_ok = redundancy >= 1.0;
  for (const Row& r : rows) {
    blocks_ok = blocks_ok && r.blocks > 0 && r.blocks % blocks == 0;
  }
  const bool ok = all_exact && gate_ok && blocks_ok;
  std::cout << "campaign " << (ok ? "passed" : "FAILED") << ": "
            << (all_exact ? "all runs bit-exact vs sync sweep"
                          : "run NOT bit-exact vs sync sweep")
            << (blocks_ok ? "" : ", block accounting BROKEN") << "\n";
  return ok ? 0 : 1;
}

// The chaos campaign: the end-to-end robustness proof for cooperative
// cancellation, per-job deadlines, the engine lifecycle, and the
// circuit breaker. Two phases through one engine session:
//
//   Phase A (deterministic): `breaker_threshold` consecutive
//   fault-injected failures on the explicit concurrent backend trip its
//   breaker open; a clean concurrent job then visibly reroutes to the
//   sync fallback (and stays bit-exact); after the cooldown a probe job
//   runs on the concurrent backend again and closes the breaker.
//
//   Phase B (seeded random): --jobs mixed jobs -- 2D star/box, 3D star,
//   explicit block-parallel, resilient-with-injector -- with ~15%
//   random deadlines (tight and loose) and ~20% random cancellations,
//   plus one guaranteed mid-run cancel and one guaranteed
//   impossible deadline. Every handle is collected with
//   wait_or_cancel(30 s), so a hang anywhere would fail the campaign
//   rather than wedge it.
//
// Self-checks: every phase-B job reaches a terminal state; zero
// unexpected failures; every *done* job bit-exact vs the naive
// reference; at least one cancellation and one deadline expiry
// observed, with at least one cancel latency in the engine's
// engine.cancel_latency_ns histogram (whose p50/p99 the report prints);
// the breaker tripped, rerouted, and recovered; and after drain() the
// buffer pool has zero outstanding leases (nothing leaked across
// hundreds of unwinds).
int cmd_chaos(const Args& a) {
  const int jobs = static_cast<int>(a.get("jobs", 220));
  const std::uint64_t seed = std::uint64_t(a.get("seed", 42));
  if (jobs < 1) throw ConfigError("--jobs must be >= 1");

  EngineOptions eopts;
  eopts.workers = static_cast<int>(a.get("workers", 4));
  eopts.queue_capacity = std::size_t(jobs) + 16;
  eopts.breaker_threshold = 3;
  eopts.breaker_cooldown = std::chrono::milliseconds(200);

  AcceleratorConfig c2;
  c2.dims = 2;
  c2.radius = 1;
  c2.bsize_x = 32;
  c2.parvec = 4;
  c2.partime = 2;
  AcceleratorConfig c3;
  c3.dims = 3;
  c3.radius = 1;
  c3.bsize_x = 16;
  c3.bsize_y = 8;
  c3.parvec = 4;
  c3.partime = 2;
  const TapSet star2 = StarStencil::make_benchmark(2, 1, 5).to_taps();
  const TapSet box2 = make_box_stencil(2, 1, 21);
  const TapSet star3 = StarStencil::make_benchmark(3, 1, 9).to_taps();
  const auto fresh2 = [] {
    Grid2D<float> g(48, 20);
    g.fill_random(3);
    return g;
  };
  const auto fresh3 = [] {
    Grid3D<float> g(20, 14, 10);
    g.fill_random(4);
    return g;
  };
  const auto fresh_wide = [] {  // enough blocks for the parallel pool
    Grid2D<float> g(128, 96);
    g.fill_random(6);
    return g;
  };
  const auto fresh_slow = [] {  // long enough to be mid-run when hit
    Grid2D<float> g(256, 192);
    g.fill_random(9);
    return g;
  };
  const int iters = 4;
  const int wide_iters = 8;
  // Per-kind expected outputs (every job of a kind starts from the same
  // seeded grid, so one reference run per kind serves the whole fleet).
  Grid2D<float> want_star2 = fresh2();
  reference_run(star2, want_star2, iters);
  Grid2D<float> want_box2 = fresh2();
  reference_run(box2, want_box2, iters);
  Grid3D<float> want_star3 = fresh3();
  reference_run(star3, want_star3, iters);
  Grid2D<float> want_wide = fresh_wide();
  reference_run(star2, want_wide, wide_iters);

  StencilEngine engine(eopts);
  const Stopwatch campaign_clock;
  int checks_failed = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
    if (!ok) ++checks_failed;
  };

  // ---- Phase A: the breaker must trip, reroute, and recover. --------
  std::cout << "phase A: circuit breaker (threshold "
            << eopts.breaker_threshold << ", cooldown "
            << eopts.breaker_cooldown.count() << " ms)\n";
  std::deque<FaultInjector> injectors;
  int phase_a_failed = 0;
  for (int i = 0; i < eopts.breaker_threshold; ++i) {
    FaultInjector fi(FaultPlan::parse(
        "seed=" + std::to_string(seed + std::uint64_t(i) + 1) +
        ",kernel_hang:p=1:n=inf"));
    JobSpec spec(star2, c2, fresh2(), iters);
    spec.backend = Backend::concurrent;  // explicit: no resilient rescue
    spec.injector = &fi;
    spec.watchdog_deadline = std::chrono::milliseconds(40);
    spec.label = "breaker-fault-" + std::to_string(i);
    JobHandle h = engine.submit(std::move(spec));
    (void)h.wait_or_cancel(std::chrono::milliseconds(30000));
    engine.wait_idle();  // injector lives on this stack frame
    if (h.status() == JobStatus::failed) ++phase_a_failed;
  }
  check(phase_a_failed == eopts.breaker_threshold,
        "fault-injected concurrent jobs failed (" +
            std::to_string(phase_a_failed) + "/" +
            std::to_string(eopts.breaker_threshold) + ")");
  check(engine.breaker_state(Backend::concurrent) == BreakerState::open,
        "concurrent breaker tripped open");

  JobSpec reroute_spec(star2, c2, fresh2(), iters);
  reroute_spec.backend = Backend::concurrent;
  reroute_spec.label = "breaker-reroute";
  JobResult rerouted = engine.run(std::move(reroute_spec));
  check(rerouted.rerouted && rerouted.backend == Backend::sync_sim,
        "open breaker rerouted a concurrent job to sync_sim");
  check(compare_exact(rerouted.grid2d(), want_star2).identical(),
        "rerouted job stayed bit-exact");

  std::this_thread::sleep_for(eopts.breaker_cooldown +
                              std::chrono::milliseconds(50));
  JobSpec probe_spec(star2, c2, fresh2(), iters);
  probe_spec.backend = Backend::concurrent;
  probe_spec.label = "breaker-probe";
  JobResult probe = engine.run(std::move(probe_spec));
  const bool recovered =
      !probe.rerouted && probe.backend == Backend::concurrent &&
      engine.breaker_state(Backend::concurrent) == BreakerState::closed;
  check(recovered, "post-cooldown probe ran on concurrent and closed "
                   "the breaker");
  check(compare_exact(probe.grid2d(), want_star2).identical(),
        "probe job stayed bit-exact");

  // ---- Phase B: mixed jobs under random cancels and deadlines. ------
  std::cout << "phase B: " << jobs << " mixed jobs, seed " << seed
            << " (random cancels + deadlines)\n";
  SplitMix64 rng(seed);
  enum Kind { kStar2, kBox2, kStar3, kWidePar, kResilient, kConcurrent };
  struct ChaosJob {
    JobHandle handle;
    int kind = 0;
    bool cancel_planned = false;
  };
  std::vector<ChaosJob> fleet;
  fleet.reserve(std::size_t(jobs) + 2);

  for (int i = 0; i < jobs; ++i) {
    const int kind = int(rng.next_below(6));
    JobSpec spec = [&]() -> JobSpec {
      switch (kind) {
        case kBox2: return {box2, c2, fresh2(), iters};
        case kStar3: return {star3, c3, fresh3(), iters};
        case kWidePar: return {star2, c2, fresh_wide(), wide_iters};
        default: return {star2, c2, fresh2(), iters};
      }
    }();
    if (kind == kWidePar) {
      spec.backend = Backend::block_parallel;
      spec.workers = 4;
    }
    if (kind == kConcurrent) spec.backend = Backend::concurrent;
    if (kind == kResilient) {
      // One budgeted, survivable hang per resilient job; the runner
      // absorbs it (watchdog trip + replay), so the job still finishes
      // bit-exact. Injectors outlive their jobs in the deque.
      injectors.emplace_back(FaultPlan::parse(
          "seed=" + std::to_string(seed + std::uint64_t(i)) +
          ",kernel_hang:n=1"));
      spec.injector = &injectors.back();
      spec.backend = Backend::resilient;
      spec.resilience.base.watchdog_deadline =
          std::chrono::milliseconds(40);
    }
    ChaosJob job;
    job.kind = kind;
    if (rng.next_float01() < 0.15f) {
      // Mostly-loose deadlines keep the done/expired mix interesting
      // without starving the bit-exactness sample.
      spec.deadline = rng.next_float01() < 0.3f
                          ? std::chrono::milliseconds(1)
                          : std::chrono::milliseconds(5000);
    }
    job.cancel_planned = rng.next_float01() < 0.2f;
    spec.label = "chaos-" + std::to_string(i);
    job.handle = engine.submit(std::move(spec));
    fleet.push_back(std::move(job));
  }

  // Two guaranteed extremes: a long block-parallel job cancelled while
  // streaming, and a job whose deadline cannot possibly be met.
  {
    JobSpec spec(star2, c2, fresh_slow(), 5000);
    spec.backend = Backend::block_parallel;
    spec.workers = 4;
    spec.label = "chaos-guaranteed-cancel";
    ChaosJob job;
    job.kind = kWidePar;
    job.cancel_planned = true;
    job.handle = engine.submit(std::move(spec));
    fleet.push_back(std::move(job));
  }
  {
    JobSpec spec(star2, c2, fresh_slow(), 5000);
    spec.deadline = std::chrono::milliseconds(1);
    spec.label = "chaos-guaranteed-deadline";
    ChaosJob job;
    job.kind = kStar2;
    job.handle = engine.submit(std::move(spec));
    fleet.push_back(std::move(job));
  }

  // The canceller: sweep the fleet while it executes, cancelling the
  // planned ~20% with a small jitter so cancels land on queued jobs,
  // running jobs, and already-finished jobs alike.
  std::thread canceller([&] {
    SplitMix64 crng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (ChaosJob& job : fleet) {
      if (!job.cancel_planned) continue;
      std::this_thread::sleep_for(
          std::chrono::microseconds(crng.next_below(2000)));
      job.handle.cancel();
    }
  });
  canceller.join();

  int done = 0, cancelled = 0, deadline_exceeded = 0, failed = 0;
  int bit_exact = 0, hung = 0;
  for (ChaosJob& job : fleet) {
    const JobStatus status =
        job.handle.wait_or_cancel(std::chrono::milliseconds(30000));
    switch (status) {
      case JobStatus::done: {
        ++done;
        JobResult& r = job.handle.wait();
        bool ok = false;
        switch (job.kind) {
          case kBox2: ok = compare_exact(r.grid2d(), want_box2).identical();
                      break;
          case kStar3: ok = compare_exact(r.grid3d(), want_star3).identical();
                       break;
          case kWidePar: ok = compare_exact(r.grid2d(), want_wide).identical();
                         break;
          default: ok = compare_exact(r.grid2d(), want_star2).identical();
                   break;
        }
        bit_exact += ok ? 1 : 0;
        break;
      }
      case JobStatus::cancelled: ++cancelled; break;
      case JobStatus::deadline_exceeded: ++deadline_exceeded; break;
      case JobStatus::failed: ++failed; break;
      default: ++hung; break;  // non-terminal after wait_or_cancel: a hang
    }
  }
  engine.drain();
  const double wall_seconds = campaign_clock.seconds();
  const EngineStats stats = engine.stats();
  const std::int64_t outstanding = engine.buffer_pool().outstanding();
  const int total = int(fleet.size());

  // Cancel-latency percentiles from the engine histogram.
  const MetricsSnapshot snap = engine.telemetry().metrics().snapshot();
  const MetricSample* lat = snap.find("engine.cancel_latency_ns");
  std::int64_t lat_count = 0, lat_p50 = 0, lat_p99 = 0;
  if (lat != nullptr && lat->value > 0) {
    lat_count = lat->value;
    const auto percentile = [&](double q) -> std::int64_t {
      std::int64_t cum = 0;
      const std::int64_t want_rank =
          std::int64_t(q * double(lat_count) + 0.5);
      for (std::size_t b = 0; b < lat->buckets.size(); ++b) {
        cum += lat->buckets[b];
        if (cum >= want_rank) {
          // Overflow bucket reports the largest finite bound.
          return b < lat->bounds.size() ? lat->bounds[b]
                                        : lat->bounds.back();
        }
      }
      return lat->bounds.back();
    };
    lat_p50 = percentile(0.50);
    lat_p99 = percentile(0.99);
  }

  std::cout << "phase B results (" << format_fixed(wall_seconds, 2)
            << " s wall)\n";
  TextTable t({"outcome", "count"});
  t.add_row({"done", std::to_string(done)});
  t.add_row({"bit-exact", std::to_string(bit_exact)});
  t.add_row({"cancelled", std::to_string(cancelled)});
  t.add_row({"deadline exceeded", std::to_string(deadline_exceeded)});
  t.add_row({"failed", std::to_string(failed)});
  t.add_row({"cancel latency p50 (us)", std::to_string(lat_p50 / 1000)});
  t.add_row({"cancel latency p99 (us)", std::to_string(lat_p99 / 1000)});
  t.add_row({"breaker trips", std::to_string(stats.breaker_trips)});
  t.add_row({"breaker reroutes", std::to_string(stats.breaker_reroutes)});
  t.add_row({"pool outstanding", std::to_string(outstanding)});
  t.render(std::cout);

  check(hung == 0, "every job reached a terminal state (no hangs)");
  check(done + cancelled + deadline_exceeded + failed == total,
        "status counts sum to the fleet size");
  check(failed == 0, "zero unexpected failures");
  check(bit_exact == done, "every surviving job bit-exact (" +
                               std::to_string(bit_exact) + "/" +
                               std::to_string(done) + ")");
  check(cancelled >= 1, "at least one cancellation observed");
  check(deadline_exceeded >= 1, "at least one deadline expiry observed");
  check(lat_count >= 1, "cancel latency recorded (" +
                            std::to_string(lat_count) + " samples)");
  check(outstanding == 0, "buffer pool has zero outstanding leases");
  check(stats.breaker_trips >= 1 && stats.breaker_reroutes >= 1,
        "breaker tripped and rerouted");
  check(engine.state() == EngineState::stopped, "engine drained to stopped");

  std::cout << "chaos campaign "
            << (checks_failed == 0 ? "passed" : "FAILED") << " ("
            << checks_failed << " self-checks failed)\n";
  return checks_failed == 0 ? 0 : 1;
}

// The serving-tier campaign: the end-to-end proof for the sharded
// multi-tenant tier (docs/SERVING.md). One EngineCluster, a skewed
// five-tenant mix over sixteen job kinds, a mid-campaign drain+reload of
// shard 1, and exact accounting of every submission. Three phases:
//
//   Scale probe: a fixed mixed batch through a 1-shard/1-worker cluster
//   and then through the full topology. Like blockpar, the 3/8-linear
//   speedup gate is only *checked* when the host really has
//   shards*workers cores; on smaller hosts it is recorded as unchecked
//   (speedup_gate_checked=false) instead of failing.
//
//   Calibration: a clean alpha/beta-only slice, fully collected, whose
//   per-class p99 becomes the isolation baseline.
//
//   Main: the remaining jobs with all five tenants -- gamma is
//   rate-capped (rejections expected and counted), delta is
//   inflight-capped with blocking backpressure, mallory carries a
//   seeded fault injector (kernel hangs survived by the resilient
//   backend + watchdog). A sliding submission window bounds memory;
//   shard 1 is drained at 40% and reloaded at 70% of the phase.
int cmd_serve(const Args& a) {
  const std::int64_t jobs = a.get("jobs", 100000);
  const int shards = static_cast<int>(a.get("shards", 3));
  const int workers = static_cast<int>(a.get("workers", 2));
  const int iters = static_cast<int>(a.get("iters", 2));
  const std::uint64_t seed = std::uint64_t(a.get("seed", 8));
  const std::int64_t window_cap = a.get("window", 256);
  if (jobs < 100) throw ConfigError("--jobs must be >= 100");
  if (shards < 1) throw ConfigError("--shards must be >= 1");
  if (workers < 1) throw ConfigError("--workers must be >= 1");
  if (window_cap < 8) throw ConfigError("--window must be >= 8");

  // ---- The sixteen job kinds: star/box x 2D/3D x radius 1..4. -------
  struct Kind {
    std::string name;
    TapSet taps;
    AcceleratorConfig cfg;
    bool is_3d = false;
    std::int64_t nx = 0, ny = 0, nz = 1;
    unsigned gseed = 0;
    Grid2D<float> want2{1, 1};
    Grid3D<float> want3{1, 1, 1};
  };
  std::vector<Kind> kinds;
  for (const int dims : {2, 3}) {
    for (int radius = 1; radius <= 4; ++radius) {
      for (int box = 0; box < 2; ++box) {
        const int id = int(kinds.size());
        AcceleratorConfig cfg;
        cfg.dims = dims;
        cfg.radius = radius;
        cfg.parvec = 4;
        cfg.partime = radius == 1 ? 2 : 1;
        cfg.bsize_x = dims == 2 ? 32 : 16;
        cfg.bsize_y = dims == 3 ? (radius >= 3 ? 16 : 8) : 1;
        cfg.validate();
        TapSet taps =
            box != 0
                ? make_box_stencil(dims, radius, std::uint64_t(21 + id))
                : StarStencil::make_benchmark(dims, radius,
                                              std::uint64_t(5 + id))
                      .to_taps();
        Kind k{std::string(box != 0 ? "box" : "star") +
                   std::to_string(dims) + "d-r" + std::to_string(radius),
               std::move(taps),
               cfg,
               dims == 3,
               // High-radius 3D boxes have up to 9^3 taps; a smaller grid
               // keeps their per-job cost in line with the other kinds.
               dims == 2 ? 48 : (radius >= 3 ? 16 : 20),
               dims == 2 ? 20 : (radius >= 3 ? 12 : 14),
               dims == 2 ? 1 : (radius >= 3 ? 8 : 10),
               unsigned(10 + id),
               Grid2D<float>(1, 1),
               Grid3D<float>(1, 1, 1)};
        if (k.is_3d) {
          Grid3D<float> g(k.nx, k.ny, k.nz);
          g.fill_random(k.gseed);
          k.want3 = std::move(g);
          reference_run(k.taps, k.want3, iters);
        } else {
          Grid2D<float> g(k.nx, k.ny);
          g.fill_random(k.gseed);
          k.want2 = std::move(g);
          reference_run(k.taps, k.want2, iters);
        }
        kinds.push_back(std::move(k));
      }
    }
  }
  const auto spec_for = [&](const Kind& k) -> JobSpec {
    if (k.is_3d) {
      Grid3D<float> g(k.nx, k.ny, k.nz);
      g.fill_random(k.gseed);
      return {k.taps, k.cfg, std::move(g), iters};
    }
    Grid2D<float> g(k.nx, k.ny);
    g.fill_random(k.gseed);
    return {k.taps, k.cfg, std::move(g), iters};
  };

  // ---- The tenant mix (skewed, with one bad actor). -----------------
  struct TenantDef {
    const char* name;
    QosClass qos;
    const char* role;
  };
  enum { kAlpha = 0, kBeta, kGamma, kDelta, kMallory, kTenantCount };
  const std::array<TenantDef, kTenantCount> tenants = {{
      {"alpha", QosClass::standard, "clean bulk (50%)"},
      {"beta", QosClass::interactive, "latency-sensitive (25%)"},
      {"gamma", QosClass::batch, "rate-capped (15%)"},
      {"delta", QosClass::standard, "inflight-capped, blocking (5%)"},
      {"mallory", QosClass::batch, "seeded kernel hangs (5%)"},
  }};

  ClusterOptions copts;
  copts.shards = shards;
  copts.engine.workers = workers;
  copts.engine.queue_capacity = std::size_t(window_cap) + 64;
  copts.quotas["gamma"] =
      TenantQuota{/*max_inflight=*/0, /*rate_per_s=*/200.0, /*burst=*/20.0,
                  /*block=*/false};
  copts.quotas["delta"] =
      TenantQuota{/*max_inflight=*/8, /*rate_per_s=*/0.0, /*burst=*/0.0,
                  /*block=*/true};

  // Survivable faults for mallory only: the resilient backend's watchdog
  // recovers each hang, so even mallory's jobs must terminate done.
  FaultInjector mallory_faults(FaultPlan::parse(
      "seed=" + std::to_string(seed) + ",kernel_hang:p=0.05:n=12"));

  int checks_failed = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
    if (!ok) ++checks_failed;
  };
  const auto pct = [](std::vector<std::int64_t>& v,
                      double q) -> std::int64_t {
    if (v.empty()) return 0;
    const auto idx = std::ptrdiff_t(q * double(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return v[std::size_t(idx)];
  };

  // ---- Scale probe (own clusters, not part of the accounting). ------
  const unsigned hc = std::thread::hardware_concurrency();
  const int needed_cores = shards * workers;
  const std::int64_t probe_jobs =
      std::clamp<std::int64_t>(jobs / 250, 64, 400);
  const auto probe_wall = [&](int pshards, int pworkers) {
    ClusterOptions po;
    po.shards = pshards;
    po.engine.workers = pworkers;
    po.engine.queue_capacity = std::size_t(probe_jobs) + 16;
    EngineCluster probe(po);
    const Stopwatch sw;
    std::vector<JobHandle> hs;
    hs.reserve(std::size_t(probe_jobs));
    for (std::int64_t i = 0; i < probe_jobs; ++i) {
      hs.push_back(probe.submit(spec_for(kinds[std::size_t(i) %
                                               kinds.size()])));
    }
    for (JobHandle& h : hs) {
      (void)h.wait_or_cancel(std::chrono::milliseconds(180000));
    }
    return sw.seconds();
  };
  std::cout << "scale probe: " << probe_jobs << " mixed jobs, 1x1 vs "
            << shards << "x" << workers << " (host has " << hc
            << " hardware threads)\n";
  const double probe_single = probe_wall(1, 1);
  const double probe_cluster = probe_wall(shards, workers);
  const double probe_speedup =
      probe_cluster > 0.0 ? probe_single / probe_cluster : 0.0;
  const bool gate_checked = hc >= unsigned(needed_cores);
  const bool gate_ok =
      !gate_checked || probe_speedup >= 0.375 * double(needed_cores);
  std::cout << "  speedup " << format_fixed(probe_speedup, 2)
            << "x; 3/8-linear gate "
            << (gate_checked ? (gate_ok ? "passed" : "FAILED")
                             : "skipped (not enough cores)")
            << "\n";

  // ---- The campaign proper. -----------------------------------------
  EngineCluster cluster(copts);
  const Stopwatch campaign_clock;
  SplitMix64 rng(seed);

  struct Pending {
    JobHandle handle;
    int kind;
    int tenant;
    bool calib;
    std::shared_ptr<std::vector<float>> sunk;
  };
  std::deque<Pending> window;

  std::int64_t attempted = 0, submitted_ok = 0, rejected = 0;
  std::int64_t done = 0, failed = 0, hung = 0, bit_exact = 0;
  std::int64_t sink_jobs = 0, sink_exact = 0, chunks_delivered = 0;
  std::array<std::int64_t, kTenantCount> t_submitted{}, t_rejected{},
      t_done{};
  std::array<std::vector<std::int64_t>, kQosClassCount> lat_main, lat_calib;
  std::array<std::vector<std::int64_t>, kTenantCount> lat_tenant;

  const auto collect_one = [&] {
    Pending p = std::move(window.front());
    window.pop_front();
    const JobStatus s =
        p.handle.wait_or_cancel(std::chrono::milliseconds(180000));
    if (s == JobStatus::failed) {
      ++failed;
      return;
    }
    if (s != JobStatus::done) {
      ++hung;
      return;
    }
    ++done;
    ++t_done[std::size_t(p.tenant)];
    JobResult& r = p.handle.wait();
    const Kind& k = kinds[std::size_t(p.kind)];
    bool ok = false;
    if (p.sunk) {
      ++sink_jobs;
      chunks_delivered += r.chunks_delivered;
      const float* want = k.is_3d ? k.want3.data() : k.want2.data();
      const auto n = std::size_t(k.is_3d ? k.want3.size() : k.want2.size());
      ok = p.sunk->size() == n &&
           std::equal(p.sunk->begin(), p.sunk->end(), want);
      sink_exact += ok ? 1 : 0;
    } else {
      ok = k.is_3d ? compare_exact(r.grid3d(), k.want3).identical()
                   : compare_exact(r.grid2d(), k.want2).identical();
    }
    bit_exact += ok ? 1 : 0;
    const std::int64_t lat = r.queue_ns + r.run_ns;
    auto& per_class = p.calib ? lat_calib : lat_main;
    per_class[std::size_t(tenants[std::size_t(p.tenant)].qos)].push_back(
        lat);
    if (!p.calib) lat_tenant[std::size_t(p.tenant)].push_back(lat);
  };

  const auto submit_one = [&](int tenant, int kind, bool calib) {
    ++attempted;
    JobSpec spec = spec_for(kinds[std::size_t(kind)]);
    spec.tenant = tenants[std::size_t(tenant)].name;
    spec.qos = tenants[std::size_t(tenant)].qos;
    spec.priority = int(rng.next_u64() % 4);
    std::shared_ptr<std::vector<float>> sunk;
    if (!calib && attempted % 97 == 0) {
      // ~1% of main-phase jobs stream their result in bands instead of
      // returning a grid; the bands must reassemble bit-exactly.
      sunk = std::make_shared<std::vector<float>>();
      spec.sink = [sunk](const ResultChunk& c) {
        sunk->insert(sunk->end(), c.data, c.data + c.values);
      };
      spec.sink_only = true;
      spec.chunk_values = 256;
    }
    if (tenant == kMallory) {
      // The watchdog bounds each hang's head-of-line blocking: one hung
      // worker recovers well inside the isolation gate's envelope, but
      // the deadline stays far above any clean job's contended runtime
      // so healthy work is never falsely tripped.
      spec.injector = &mallory_faults;
      spec.watchdog_deadline = std::chrono::milliseconds(250);
    }
    try {
      JobHandle h = cluster.submit(std::move(spec));
      window.push_back(
          Pending{std::move(h), kind, tenant, calib, std::move(sunk)});
      ++submitted_ok;
      ++t_submitted[std::size_t(tenant)];
    } catch (const QuotaExceededError&) {
      ++rejected;
      ++t_rejected[std::size_t(tenant)];
    }
    while (std::int64_t(window.size()) >= window_cap) collect_one();
  };

  // Phase 1: quota proof. Back-to-back gamma submissions overrun the
  // 20-token burst deterministically, whatever the host's speed.
  const std::int64_t proof_jobs = 30;
  std::cout << "phase 1: quota proof (" << proof_jobs
            << " back-to-back gamma submissions against burst 20)\n";
  for (std::int64_t i = 0; i < proof_jobs; ++i) {
    submit_one(kGamma, int(rng.next_u64() % kinds.size()), false);
  }

  // Phase 2: clean calibration slice, fully collected before the mixed
  // phase so its percentiles are an interference-free baseline.
  // The baseline must run at the same steady-state windowed load as the
  // main phase (several full windows), or its p99 reflects an empty
  // queue and the isolation gate compares unlike regimes.
  const std::int64_t calib_jobs = std::min(
      std::clamp<std::int64_t>(jobs / 10, 4 * window_cap, 5000),
      (jobs - proof_jobs) / 2);
  std::cout << "phase 2: calibration (" << calib_jobs
            << " clean alpha/beta jobs)\n";
  for (std::int64_t i = 0; i < calib_jobs; ++i) {
    submit_one(i % 2 == 0 ? kAlpha : kBeta,
               int(rng.next_u64() % kinds.size()), true);
  }
  while (!window.empty()) collect_one();

  // Phase 3: the mixed campaign with drain/reload of shard 1 mid-way.
  const std::int64_t main_jobs = jobs - proof_jobs - calib_jobs;
  const std::int64_t drain_at = main_jobs * 2 / 5;
  const std::int64_t reload_at = main_jobs * 7 / 10;
  std::cout << "phase 3: " << main_jobs << " mixed jobs, five tenants"
            << (shards > 1 ? ", drain shard 1 at 40%, reload at 70%" : "")
            << "\n";
  for (std::int64_t m = 0; m < main_jobs; ++m) {
    if (shards > 1 && m == drain_at) cluster.drain_shard(1);
    if (shards > 1 && m == reload_at) cluster.reload_shard(1);
    const std::uint64_t mix = rng.next_u64() % 100;
    const int tenant = mix < 50   ? kAlpha
                       : mix < 75 ? kBeta
                       : mix < 90 ? kGamma
                       : mix < 95 ? kDelta
                                  : kMallory;
    submit_one(tenant, int(rng.next_u64() % kinds.size()), false);
  }
  while (!window.empty()) collect_one();
  const double wall_seconds = campaign_clock.seconds();
  cluster.drain();

  // ---- Post-campaign accounting. ------------------------------------
  const MetricsSnapshot snap = cluster.telemetry().metrics().snapshot();
  std::vector<std::int64_t> shard_completed;
  std::vector<double> shard_hit_rate;
  std::int64_t pool_outstanding = 0;
  double min_hit_rate = 1.0;
  std::int64_t shard_total = 0, shard_max = 0;
  for (int k = 0; k < shards; ++k) {
    // Snapshot totals survive the mid-campaign reload (the fresh engine
    // keeps the shard's metrics prefix); stats() would not.
    const std::int64_t completed = snap.value_or(
        "engine.shard" + std::to_string(k) + ".jobs_completed", 0);
    shard_completed.push_back(completed);
    shard_total += completed;
    shard_max = std::max(shard_max, completed);
    const EngineStats st = cluster.shard(k).stats();
    shard_hit_rate.push_back(st.cache_hit_rate());
    if (completed > 0) min_hit_rate = std::min(min_hit_rate,
                                               st.cache_hit_rate());
    pool_outstanding += cluster.shard(k).buffer_pool().outstanding();
  }
  const double balance_bound = 3.0;
  const double balance_ratio =
      shard_total > 0
          ? double(shard_max) / (double(shard_total) / double(shards))
          : 0.0;

  // Isolation: clean classes in the mixed phase vs their calibration
  // baseline. Self-normalized (6x or +250 ms, whichever is looser) so
  // the gate measures interference, not absolute host speed.
  const auto iso_bound = [](std::int64_t calib_p99) {
    return std::max(calib_p99 * 6, calib_p99 + std::int64_t(250000000));
  };
  const std::int64_t calib_p99_inter =
      pct(lat_calib[std::size_t(QosClass::interactive)], 0.99);
  const std::int64_t calib_p99_std =
      pct(lat_calib[std::size_t(QosClass::standard)], 0.99);
  const std::int64_t main_p99_inter =
      pct(lat_main[std::size_t(QosClass::interactive)], 0.99);
  const std::int64_t main_p99_std =
      pct(lat_main[std::size_t(QosClass::standard)], 0.99);
  const bool iso_inter = main_p99_inter <= iso_bound(calib_p99_inter);
  const bool iso_std = main_p99_std <= iso_bound(calib_p99_std);

  std::cout << "campaign wall " << format_fixed(wall_seconds, 2) << " s, "
            << format_fixed(double(done) / wall_seconds, 0) << " jobs/s\n";
  TextTable classes_table(
      {"class", "jobs", "p50 us", "p99 us", "p999 us", "jobs/s"});
  for (int c = 0; c < kQosClassCount; ++c) {
    auto& v = lat_main[std::size_t(c)];
    classes_table.add_row(
        {qos_class_name(QosClass(c)), std::to_string(v.size()),
         std::to_string(pct(v, 0.50) / 1000),
         std::to_string(pct(v, 0.99) / 1000),
         std::to_string(pct(v, 0.999) / 1000),
         format_fixed(double(v.size()) / wall_seconds, 1)});
  }
  classes_table.render(std::cout);
  TextTable tenant_table(
      {"tenant", "role", "submitted", "rejected", "done", "p99 us"});
  for (int t = 0; t < kTenantCount; ++t) {
    tenant_table.add_row(
        {tenants[std::size_t(t)].name, tenants[std::size_t(t)].role,
         std::to_string(t_submitted[std::size_t(t)]),
         std::to_string(t_rejected[std::size_t(t)]),
         std::to_string(t_done[std::size_t(t)]),
         std::to_string(pct(lat_tenant[std::size_t(t)], 0.99) / 1000)});
  }
  tenant_table.render(std::cout);
  TextTable shard_table({"shard", "completed", "hit rate"});
  for (int k = 0; k < shards; ++k) {
    shard_table.add_row(
        {std::to_string(k),
         std::to_string(shard_completed[std::size_t(k)]),
         format_percent(shard_hit_rate[std::size_t(k)])});
  }
  shard_table.render(std::cout);

  check(attempted == jobs,
        "every requested job was attempted (" + std::to_string(attempted) +
            "/" + std::to_string(jobs) + ")");
  check(submitted_ok + rejected == attempted,
        "accounting: submitted + rejected == attempted");
  check(done + failed + hung == submitted_ok,
        "accounting: every admitted job reached exactly one outcome");
  check(failed == 0, "zero failed jobs");
  check(hung == 0, "zero hung jobs");
  check(bit_exact == done, "every completed job bit-exact (" +
                               std::to_string(bit_exact) + "/" +
                               std::to_string(done) + ")");
  check(sink_jobs >= 1 && sink_exact == sink_jobs,
        "chunked deliveries reassembled exactly (" +
            std::to_string(sink_exact) + "/" + std::to_string(sink_jobs) +
            " over " + std::to_string(chunks_delivered) + " chunks)");
  check(rejected >= 1, "quota admission produced at least one rejection");
  check(mallory_faults.total_fires() >= 1,
        "seeded faults actually fired (" +
            std::to_string(mallory_faults.total_fires()) + ")");
  check(min_hit_rate > 0.9,
        "per-shard plan-cache hit rate > 0.9 (min " +
            format_fixed(min_hit_rate * 100.0, 1) + "%)");
  check(balance_ratio <= balance_bound,
        "shard balance max/mean " + format_fixed(balance_ratio, 2) +
            " within " + format_fixed(balance_bound, 1));
  check(pool_outstanding == 0, "zero leaked buffer-pool leases");
  check(iso_inter && iso_std,
        "faulty tenant never degraded clean p99 (interactive " +
            std::to_string(main_p99_inter / 1000) + " us vs calib " +
            std::to_string(calib_p99_inter / 1000) + " us)");
  if (shards > 1) {
    check(snap.value_or("cluster.shard_drains", 0) >= 1 &&
              snap.value_or("cluster.shard_reloads", 0) >= 1,
          "mid-campaign drain + reload exercised");
  }
  check(gate_ok, gate_checked
                     ? "scale probe reached 3/8-linear speedup"
                     : "scale probe gate skipped (host too small; "
                       "recorded unchecked)");

  std::cout << "serving campaign "
            << (checks_failed == 0 ? "passed" : "FAILED") << " ("
            << checks_failed << " self-checks failed)\n";
  return checks_failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// tune: empirical host autotuning (PR 9; docs/TUNING.md). Sweeps the
// kernel envelope measuring paper-default vs empirically searched block
// geometry with real runs (the tuner's short probes only pick the plan),
// verifies bit-exactness at every point, and fails when a point probed
// no candidate or the envelope's median gain falls below 1.0 (the
// default geometry is always a candidate, so a working search never
// loses in the median). --serve runs the engine integration self-check
// instead: one search on the first job, then a tuner.cache_hit for every
// later job on the same spec.

TapSet tune_taps(StencilShape shape, int dims, int radius) {
  if (shape == StencilShape::kStar) {
    return StarStencil::make_benchmark(dims, radius, 99).to_taps();
  }
  return make_box_stencil(dims, radius, 99);
}

/// The geometry the repository's benches run with when the user does not
/// choose (2D 4096-wide blocks, 3D 256x128, four chained PEs).
AcceleratorConfig tune_default_config(int dims, int radius) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = 4;
  cfg.partime = 4;
  cfg.bsize_x = dims == 2 ? 4096 : 256;
  cfg.bsize_y = dims == 3 ? 128 : 1;
  return cfg;
}

std::string tune_geometry(const AcceleratorConfig& cfg) {
  std::ostringstream os;
  os << "b" << cfg.bsize_x;
  if (cfg.dims == 3) os << "x" << cfg.bsize_y;
  os << ",t" << cfg.partime;
  return os.str();
}

bool tune_same_geometry(const AcceleratorConfig& a,
                        const AcceleratorConfig& b) {
  return a.bsize_x == b.bsize_x && a.bsize_y == b.bsize_y &&
         a.partime == b.partime;
}

double tune_mcells(std::int64_t cells, int iters, double seconds) {
  return seconds > 0.0 ? double(cells) * iters / seconds / 1e6 : 0.0;
}

template <typename GridT>
double tune_time_run(const TapSet& taps, const AcceleratorConfig& cfg,
                     GridT& grid, int iters) {
  StencilAccelerator accel(taps, cfg);
  const Stopwatch clock;
  (void)accel.run(grid, iters);
  return double(clock.nanoseconds()) / 1e9;
}

struct TunePoint {
  std::string name;
  std::string tuned_config;
  double default_mcells = 0.0;
  double tuned_mcells = 0.0;
  std::int64_t candidates_probed = 0;
  bool exact = true;
  [[nodiscard]] double gain() const {
    return default_mcells > 0.0 ? tuned_mcells / default_mcells : 0.0;
  }
};

template <typename GridT>
TunePoint tune_point(HostAutotuner& tuner, StencilShape shape, int radius,
                     const GridT& init) {
  constexpr int dims = std::is_same_v<GridT, Grid3D<float>> ? 3 : 2;
  const TapSet taps = tune_taps(shape, dims, radius);
  const AcceleratorConfig base = tune_default_config(dims, radius);

  std::int64_t nz = 1;
  if constexpr (dims == 3) nz = init.nz();
  const std::int64_t cells = init.nx() * init.ny() * nz;
  const int iters = base.partime;

  TunePoint r;
  r.name = std::string(stencil_shape_name(shape)) + "_" +
           std::to_string(dims) + "d_r" + std::to_string(radius);

  // Search first (its probes never touch the measurement grids), then
  // measure the winner with a real run on the target grid.
  const AutotuneOutcome found =
      tuner.search(taps, base, init.nx(), init.ny(), nz);
  r.candidates_probed = found.candidates_probed;
  r.tuned_config = tune_geometry(found.config);

  GridT reference = init;
  r.default_mcells =
      tune_mcells(cells, iters, tune_time_run(taps, base, reference, iters));
  if (tune_same_geometry(found.config, base)) {
    r.tuned_mcells = r.default_mcells;  // same plan: same bits, same speed
  } else {
    GridT alt = init;
    r.tuned_mcells = tune_mcells(
        cells, iters, tune_time_run(taps, found.config, alt, iters));
    r.exact = compare_exact(alt, reference).identical();
  }
  return r;
}

/// --serve: engine-integration self-check. One engine with
/// autotune=search serves J identical jobs; the first job's plan build
/// runs the (only) search, every later job must account as a
/// tuner.cache_hit, and every result must be bit-exact with the untuned
/// paper-default geometry.
int cmd_tune_serve(const Args& a) {
  const int jobs = static_cast<int>(a.get("jobs", 12));
  const int iters = 4;
  if (jobs < 2) throw ConfigError("--jobs must be >= 2");

  EngineOptions eopts;
  eopts.workers = static_cast<int>(a.get("workers", 2));
  eopts.autotune = AutotuneMode::search;
  eopts.tuning_cache_path = a.get_str("cache", "");
  eopts.autotune_probe_cells = a.get("probe-cells", 16 * 1024);

  const TapSet taps = StarStencil::make_benchmark(2, 2, 7).to_taps();
  const AcceleratorConfig cfg = tune_default_config(2, 2);
  Grid2D<float> init(96, 64);
  init.fill_random(41, -1.0f, 1.0f);
  Grid2D<float> want = init;
  StencilAccelerator(taps, cfg).run(want, iters);

  StencilEngine engine(eopts);
  // Warm-up job: populates the plan cache, so it is the only job whose
  // build may probe.
  int exact = 0;
  int tuned = 0;
  {
    JobSpec spec{taps, cfg, Grid2D<float>(init), iters};
    spec.label = "tune-warmup";
    // Hold the handle across the result read: wait() hands out a
    // reference into handle-owned state.
    JobHandle warm = engine.submit(std::move(spec));
    JobResult& r = warm.wait();
    exact += compare_exact(r.grid2d(), want).identical() ? 1 : 0;
    tuned += r.plan_tuned ? 1 : 0;
  }
  std::vector<JobHandle> handles;
  handles.reserve(std::size_t(jobs - 1));
  for (int i = 1; i < jobs; ++i) {
    JobSpec spec{taps, cfg, Grid2D<float>(init), iters};
    spec.label = "tune-" + std::to_string(i);
    handles.push_back(engine.submit(std::move(spec)));
  }
  for (JobHandle& h : handles) {
    JobResult& r = h.wait();
    exact += compare_exact(r.grid2d(), want).identical() ? 1 : 0;
    tuned += r.plan_tuned ? 1 : 0;
  }
  const EngineStats s = engine.stats();

  TextTable t({"counter", "value"});
  t.add_row({"jobs", std::to_string(jobs)});
  t.add_row({"jobs bit-exact", std::to_string(exact)});
  t.add_row({"jobs on tuned plan", std::to_string(tuned)});
  t.add_row({"tuner.search_runs", std::to_string(s.tuner_search_runs)});
  t.add_row({"tuner.cache_miss", std::to_string(s.tuner_cache_misses)});
  t.add_row({"tuner.cache_hit", std::to_string(s.tuner_cache_hits)});
  t.add_row({"tuner.search_candidates",
             std::to_string(s.tuner_search_candidates)});
  t.render(std::cout);

  // Every post-warm-up job must be a tuner cache hit.
  const bool ok = exact == jobs && tuned == jobs &&
                  s.tuner_search_runs == 1 && s.tuner_cache_misses == 1 &&
                  s.tuner_cache_hits == std::int64_t(jobs) - 1;
  std::cout << "tune --serve self-check " << (ok ? "passed" : "FAILED")
            << "\n";
  return ok ? 0 : 1;
}

int cmd_tune(const Args& a) {
  if (a.has("serve")) return cmd_tune_serve(a);

  const bool full = a.has("full");
  const std::int64_t n2d = a.get("n2d", full ? 4096 : 256);
  const std::int64_t n3d = a.get("n3d", full ? 160 : 48);
  const std::int64_t accept_n = a.get("accept-n", full ? 512 : 64);

  HostAutotunerOptions topts;
  topts.cache_path = a.get_str("cache", "");
  topts.probe_cells = a.get("probe-cells", full ? 512 * 1024 : 32 * 1024);
  topts.probe_repeats = full ? 2 : 1;
  HostAutotuner tuner(topts);

  Grid2D<float> init2(n2d, n2d / 2);
  init2.fill_random(31, -1.0f, 1.0f);
  Grid3D<float> init3(n3d, n3d, n3d);
  init3.fill_random(32, -1.0f, 1.0f);

  bool exact = true;
  bool probed = true;
  std::vector<double> gains;
  TextTable t({"point", "default Mc/s", "tuned Mc/s", "tuned geom", "gain",
               "probes", "exact"});
  for (StencilShape shape : {StencilShape::kStar, StencilShape::kBox}) {
    for (int dims : {2, 3}) {
      for (int rad = 1; rad <= 4; ++rad) {
        const TunePoint r = dims == 2
                                ? tune_point(tuner, shape, rad, init2)
                                : tune_point(tuner, shape, rad, init3);
        exact = exact && r.exact;
        probed = probed && r.candidates_probed >= 1;
        gains.push_back(r.gain());
        t.add_row({r.name, format_fixed(r.default_mcells, 1),
                   format_fixed(r.tuned_mcells, 1), r.tuned_config,
                   "x" + format_fixed(r.gain(), 2),
                   std::to_string(r.candidates_probed),
                   r.exact ? "yes" : "NO"});
      }
    }
  }
  t.render(std::cout);

  // Acceptance point: the PR 7 acceptance workload (3D star r4,
  // parvec 16, partime 4, bsize 144x144) at accept_n^3.
  AcceleratorConfig acfg;
  acfg.dims = 3;
  acfg.radius = 4;
  acfg.parvec = 16;
  acfg.partime = 4;
  acfg.bsize_x = 144;
  acfg.bsize_y = 144;
  const TapSet ataps = tune_taps(StencilShape::kStar, 3, 4);
  Grid3D<float> ainit(accept_n, accept_n, accept_n);
  ainit.fill_random(33, -1.0f, 1.0f);
  const int aiters = acfg.partime;
  const std::int64_t acells = ainit.nx() * ainit.ny() * ainit.nz();

  const AutotuneOutcome afound =
      tuner.search(ataps, acfg, ainit.nx(), ainit.ny(), ainit.nz());
  Grid3D<float> areference = ainit;
  const double a_default = tune_mcells(
      acells, aiters, tune_time_run(ataps, acfg, areference, aiters));
  double a_tuned = a_default;
  bool a_exact = true;
  if (!tune_same_geometry(afound.config, acfg)) {
    Grid3D<float> alt = ainit;
    a_tuned = tune_mcells(
        acells, aiters, tune_time_run(ataps, afound.config, alt, aiters));
    a_exact = compare_exact(alt, areference).identical();
  }
  exact = exact && a_exact;
  const double a_gain = a_default > 0.0 ? a_tuned / a_default : 0.0;
  std::cout << "acceptance " << acfg.describe() << " grid " << accept_n
            << "^3: default " << format_fixed(a_default, 1)
            << " Mcell/s, tuned " << format_fixed(a_tuned, 1) << " Mcell/s ("
            << tune_geometry(afound.config) << "), gain x"
            << format_fixed(a_gain, 2) << ", exact "
            << (a_exact ? "yes" : "NO") << "\n";

  std::sort(gains.begin(), gains.end());
  const double min_gain = gains.empty() ? 0.0 : gains.front();
  const double max_gain = gains.empty() ? 0.0 : gains.back();
  const double med_gain = gains.empty() ? 0.0 : gains[gains.size() / 2];
  std::cout << "envelope gains: min x" << format_fixed(min_gain, 2)
            << ", median x" << format_fixed(med_gain, 2) << ", max x"
            << format_fixed(max_gain, 2) << "\n";

  const bool gain_ok = med_gain >= 1.0;
  if (!exact || !probed || !gain_ok) {
    std::cerr << "SELF-CHECK FAILED:"
              << (exact ? "" : " a tuned geometry diverged from the "
                               "paper-default result;")
              << (probed ? "" : " a point probed no candidate;")
              << (gain_ok ? "" : " the envelope's median gain is below 1.0")
              << "\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// stencilctl program: the multi-field program campaigns (docs/PROGRAMS.md).
// Two coupled workloads through the one EngineCluster::submit front door:
// a self-checking 2D FDTD E/H update (three fields, four nodes, mixed
// dirichlet/clamp boundaries) and a 3D damped wave equation (reflective
// walls, a work field assembled by two ordered writers). Self-checks per
// campaign: every field bit-exact vs the multi-field golden model
// (reference_run_program), chunked per-field delivery reassembles exactly,
// a repeated submission routes to the same shard (program-fingerprint
// affinity) and hits the per-node plan cache, and no pool lease leaks.

/// The flagship 2D FDTD-style E/H update: ez carries dirichlet(0) walls
/// (fields vanish at the boundary), the H fields clamp. The two curl
/// halves of the ez update read the H fields written earlier in the same
/// step, so the DAG exercises back-buffer reads and ordered writers.
ProgramSpec make_fdtd2d_program(std::int64_t nx, std::int64_t ny, int steps) {
  ProgramSpec p;
  Grid2D<float> ez(nx, ny);
  ez.fill_random(101, -1.0f, 1.0f);
  Grid2D<float> hx(nx, ny);
  hx.fill_random(102, -0.5f, 0.5f);
  Grid2D<float> hy(nx, ny);
  hy.fill_random(103, -0.5f, 0.5f);
  p.fields = {
      FieldSpec{"ez", std::move(ez), BoundaryCondition::dirichlet(0.0f)},
      FieldSpec{"hx", std::move(hx), BoundaryCondition::clamp()},
      FieldSpec{"hy", std::move(hy), BoundaryCondition::clamp()},
  };
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = 1;
  cfg.parvec = 4;
  cfg.partime = 1;
  cfg.bsize_x = 64;
  cfg.bsize_y = 1;
  cfg.validate();
  p.nodes = {
      KernelNode{"hx_up", TapSet(2, 1, {Tap{0, 0, 0, -0.5f}, Tap{0, 1, 0, 0.5f}}),
                 cfg, "ez", "hx", CombineOp::add, 1, {}},
      KernelNode{"hy_up", TapSet(2, 1, {Tap{0, 0, 0, 0.5f}, Tap{1, 0, 0, -0.5f}}),
                 cfg, "ez", "hy", CombineOp::add, 1, {}},
      KernelNode{"ez_x", TapSet(2, 1, {Tap{0, 0, 0, 0.5f}, Tap{-1, 0, 0, -0.5f}}),
                 cfg, "hy", "ez", CombineOp::add, 1, {"hy_up"}},
      KernelNode{"ez_y", TapSet(2, 1, {Tap{0, 0, 0, -0.5f}, Tap{0, -1, 0, 0.5f}}),
                 cfg, "hx", "ez", CombineOp::add, 1, {"hx_up", "ez_x"}},
  };
  p.steps = steps;
  p.validate();
  return p;
}

/// The 3D damped wave equation u_next = (2 - gamma)u + c lap(u) -
/// (1 - gamma)u_prev on reflective walls, leapfrogged through a work
/// field: two ordered writers assemble u_next, then identity nodes
/// rotate u -> u_prev and u_next -> u for the next step.
ProgramSpec make_wave3d_program(std::int64_t nx, std::int64_t ny,
                                std::int64_t nz, int steps) {
  const float kC = 0.0625f, kGamma = 0.0625f;
  ProgramSpec p;
  Grid3D<float> u(nx, ny, nz);
  u.fill_random(201, -1.0f, 1.0f);
  Grid3D<float> u_prev = u;  // starts at rest: u(t=0) == u(t=-1)
  p.fields = {
      FieldSpec{"u_prev", std::move(u_prev), BoundaryCondition::clamp()},
      FieldSpec{"u", std::move(u), BoundaryCondition::reflective()},
      FieldSpec{"u_next", Grid3D<float>(nx, ny, nz), BoundaryCondition::clamp(),
                /*work=*/true},
  };
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = 1;
  cfg.parvec = 4;
  cfg.partime = 1;
  cfg.bsize_x = 32;
  cfg.bsize_y = 32;
  cfg.validate();
  const TapSet wave(3, 1,
                    {Tap{0, 0, 0, 2.0f - kGamma - 6.0f * kC},
                     Tap{-1, 0, 0, kC}, Tap{1, 0, 0, kC}, Tap{0, -1, 0, kC},
                     Tap{0, 1, 0, kC}, Tap{0, 0, -1, kC}, Tap{0, 0, 1, kC}});
  const TapSet center(3, 1, {Tap{0, 0, 0, -(1.0f - kGamma)}});
  const TapSet identity(3, 1, {Tap{0, 0, 0, 1.0f}});
  p.nodes = {
      KernelNode{"laplace", wave, cfg, "u", "u_next", CombineOp::assign, 1, {}},
      KernelNode{"damp", center, cfg, "u_prev", "u_next", CombineOp::add, 1,
                 {"laplace"}},
      KernelNode{"rot_prev", identity, cfg, "u", "u_prev", CombineOp::assign, 1,
                 {}},
      KernelNode{"rot_u", identity, cfg, "u_next", "u", CombineOp::assign, 1,
                 {"damp"}},
  };
  p.steps = steps;
  p.validate();
  return p;
}

struct ProgramCampaignRow {
  std::string name;
  int dims = 2;
  std::int64_t nx = 0, ny = 0, nz = 1;
  int fields = 0, nodes = 0, steps = 0;
  std::int64_t nodes_scheduled = 0;
  std::int64_t chunks_delivered = 0;
  bool exact = false;         ///< result fields match the golden model
  bool chunks_exact = false;  ///< reassembled chunk stream matches too
  bool second_run_cache_hit = false;
  bool route_stable = false;  ///< both submissions routed to one shard
  double wall_seconds = 0.0;
  double mcups = 0.0;  ///< million cell-updates (cells*nodes*steps) per sec
};

ProgramCampaignRow run_program_campaign(
    EngineCluster& cluster, const std::string& name,
    std::shared_ptr<const ProgramSpec> program) {
  ProgramCampaignRow row;
  row.name = name;
  row.dims = program->dims();
  row.nx = grid_variant_nx(program->fields.front().data);
  row.ny = grid_variant_ny(program->fields.front().data);
  row.nz = grid_variant_nz(program->fields.front().data);
  row.fields = static_cast<int>(program->fields.size());
  row.nodes = static_cast<int>(program->nodes.size());
  row.steps = program->steps;

  const auto want = reference_run_program(*program);

  // First submission: chunked per-field delivery into a reassembly map.
  std::vector<std::pair<std::string, std::vector<float>>> assembled;
  JobSpec spec(program);
  spec.tenant = "program";
  spec.label = name;
  spec.chunk_values = 1 << 14;
  spec.sink = [&](const ResultChunk& c) {
    if (assembled.empty() || assembled.back().first != c.field) {
      assembled.emplace_back(c.field, std::vector<float>());
    }
    assembled.back().second.insert(assembled.back().second.end(), c.data,
                                   c.data + c.values);
  };
  const int shard_first = cluster.route_shard(spec);
  Stopwatch clock;
  JobHandle h1 = cluster.submit(std::move(spec));
  JobResult& r1 = h1.wait();
  row.wall_seconds = clock.seconds();
  row.nodes_scheduled = r1.program_nodes_executed;
  row.chunks_delivered = r1.chunks_delivered;
  const double updates = double(grid_variant_cells(program->fields[0].data)) *
                         double(row.nodes) * double(row.steps);
  row.mcups = updates / 1e6 / std::max(row.wall_seconds, 1e-9);

  // Exactness vs the golden model: the result fields and the reassembled
  // chunk stream (non-work fields, declaration order) must both match.
  row.exact = r1.fields.size() == want.size();
  for (std::size_t i = 0; row.exact && i < want.size(); ++i) {
    row.exact = r1.fields[i].first == want[i].first &&
                std::equal(grid_variant_data(r1.fields[i].second),
                           grid_variant_data(r1.fields[i].second) +
                               grid_variant_cells(r1.fields[i].second),
                           grid_variant_data(want[i].second));
  }
  row.chunks_exact = true;
  std::size_t next = 0;
  for (const auto& w : want) {
    const FieldSpec* f = program->find_field(w.first);
    if (f->work) continue;  // work fields are never streamed
    if (next >= assembled.size() || assembled[next].first != w.first ||
        std::int64_t(assembled[next].second.size()) !=
            grid_variant_cells(w.second) ||
        !std::equal(assembled[next].second.begin(),
                    assembled[next].second.end(),
                    grid_variant_data(w.second))) {
      row.chunks_exact = false;
      break;
    }
    ++next;
  }
  row.chunks_exact = row.chunks_exact && next == assembled.size();

  // Second submission: program-fingerprint affinity routes it to the same
  // shard, where every node's plan is already cached.
  JobSpec again(program);
  again.tenant = "program";
  again.label = name + "#2";
  row.route_stable = cluster.route_shard(again) == shard_first;
  JobHandle h2 = cluster.submit(std::move(again));
  JobResult& r2 = h2.wait();
  row.second_run_cache_hit = r2.plan_cache_hit;
  for (std::size_t i = 0; row.exact && i < want.size(); ++i) {
    row.exact = std::equal(grid_variant_data(r2.fields[i].second),
                           grid_variant_data(r2.fields[i].second) +
                               grid_variant_cells(r2.fields[i].second),
                           grid_variant_data(want[i].second));
  }
  return row;
}

int cmd_program(const Args& a) {
  const std::int64_t n2d = a.get("n2d", 160);
  const std::int64_t n3d = a.get("n3d", 40);
  const int steps = static_cast<int>(a.get("steps", 32));
  const int steps3d = static_cast<int>(a.get("steps3d", (steps + 1) / 2));
  ClusterOptions copts;
  copts.shards = static_cast<int>(a.get("shards", 2));
  copts.engine.workers = static_cast<int>(a.get("workers", 4));
  EngineCluster cluster(copts);

  // Every node carries a telemetry hook, so the campaigns also guard the
  // kernel envelope: all their boundaries (clamp, reflective, dirichlet)
  // must dispatch to specialized kernels, never the interpreter.
  Telemetry dispatch;
  const auto hooked = [&](ProgramSpec p) {
    for (KernelNode& node : p.nodes) node.config.telemetry = &dispatch;
    return std::make_shared<const ProgramSpec>(std::move(p));
  };
  std::vector<ProgramCampaignRow> rows;
  rows.push_back(run_program_campaign(
      cluster, "fdtd2d",
      hooked(make_fdtd2d_program(n2d, (n2d * 3) / 4, steps))));
  rows.push_back(run_program_campaign(
      cluster, "wave3d",
      hooked(make_wave3d_program(n3d, n3d, std::max<std::int64_t>(n3d / 2, 8),
                                 steps3d))));

  cluster.wait_idle();
  std::int64_t leaked = 0;
  for (int k = 0; k < cluster.shards(); ++k) {
    leaked += cluster.shard(k).buffer_pool().outstanding();
  }

  TextTable t({"campaign", "grid", "fields", "nodes", "steps", "chunks",
               "exact", "affinity", "Mcup/s"});
  bool ok = leaked == 0;
  for (const ProgramCampaignRow& r : rows) {
    const bool row_ok = r.exact && r.chunks_exact && r.chunks_delivered >= 1 &&
                        r.second_run_cache_hit && r.route_stable &&
                        r.nodes_scheduled ==
                            std::int64_t(r.nodes) * std::int64_t(r.steps);
    ok = ok && row_ok;
    std::string grid = std::to_string(r.nx) + "x" + std::to_string(r.ny);
    if (r.dims == 3) grid += "x" + std::to_string(r.nz);
    t.add_row({r.name, grid, std::to_string(r.fields),
               std::to_string(r.nodes), std::to_string(r.steps),
               std::to_string(r.chunks_delivered),
               r.exact && r.chunks_exact ? "yes" : "NO",
               r.second_run_cache_hit && r.route_stable ? "yes" : "NO",
               format_fixed(r.mcups, 1)});
  }
  t.render(std::cout);
  std::cout << (leaked == 0 ? "zero leaked pool leases\n"
                            : "LEAKED POOL LEASES\n");
  const std::int64_t specialized =
      dispatch.metrics().counter("kernels.dispatch_specialized").value();
  const std::int64_t fallback =
      dispatch.metrics().counter("kernels.dispatch_fallback").value();
  std::cout << "kernel dispatch: " << specialized << " specialized, "
            << fallback << " interpreter fallback\n";
  ok = ok && specialized > 0 && fallback == 0;

  std::cout << "program campaigns " << (ok ? "passed" : "FAILED") << "\n";
  return ok ? 0 : 1;
}

/// Every command and the flags it reads, in the grammar parse_args
/// validates against: a flag followed by a placeholder takes a value.
struct Command {
  std::string name;
  std::string flags;
  int (*run)(const Args&);
};

const std::vector<Command>& commands() {
  const std::string config =
      "--dims 2|3 --radius R --bsize-x B --bsize-y B --parvec V --partime T";
  const std::string grid = " --nx N --ny N --nz N --iters I";
  const std::string dataflow = config + grid + " --box --depth D --out FILE";
  static const std::vector<Command> table = {
      {"devices", "", [](const Args&) { return cmd_devices(); }},
      {"explore",
       "--dims 2|3 --radius R --device NAME --nx N --ny N --nz N --top K",
       cmd_explore},
      {"tune",
       "--full --n2d N --n3d N --accept-n N --cache FILE --probe-cells C "
       "--serve --jobs N --workers W",
       cmd_tune},
      {"model", config + " --device NAME --nx N --ny N --nz N", cmd_model},
      {"codegen", config + " --box", cmd_codegen},
      {"simulate", config + grid + " --box --backend NAME --workers W",
       cmd_simulate},
      {"blockpar", config + grid + " --box --generic --workers LIST",
       cmd_blockpar},
      {"faults",
       "--plan SPEC --radius R --bsize-x B --parvec V --partime T --nx N "
       "--ny N --iters I --boards B --device NAME",
       cmd_faults},
      {"metrics", dataflow + " --format table|json|csv", cmd_metrics},
      {"trace", dataflow, cmd_trace},
      {"engine", "--jobs N --workers W --iters I --queue Q", cmd_engine},
      {"serve", "--jobs N --shards S --workers W --iters I --seed S --window W",
       cmd_serve},
      {"chaos", "--jobs N --workers W --seed S", cmd_chaos},
      {"program",
       "--n2d N --n3d N --steps S --steps3d S --shards S --workers W",
       cmd_program},
  };
  return table;
}

int usage() {
  std::cerr << "usage: stencilctl <command> [flags]; each command takes "
               "only its own flags:\n";
  for (const Command& c : commands()) {
    std::cerr << "  " << c.name;
    std::size_t col = 2 + c.name.size();
    std::istringstream ss(c.flags);
    for (std::string tok; ss >> tok;) {
      if (tok.rfind("--", 0) == 0 && col + tok.size() > 72) {
        std::cerr << "\n           ";
        col = 11;
      }
      std::cerr << " " << tok;
      col += 1 + tok.size();
    }
    std::cerr << "\n";
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  const auto& table = commands();
  const auto cmd =
      std::find_if(table.begin(), table.end(),
                   [&](const Command& c) { return c.name == name; });
  if (cmd == table.end()) return usage();
  try {
    return cmd->run(parse_args(name, cmd->flags, argc, argv, 2));
  } catch (const std::exception& e) {
    std::cerr << "stencilctl: " << e.what() << "\n";
    return 2;
  }
}
