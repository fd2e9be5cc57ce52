// The traced run's layer ladder. Each rung replays the workload's jobs
// through one module's public function, inside a span recorded by this
// file; a layer's self time is its rung minus the rung below:
//
//   kernel       KernelRegistry entry (the interpreter when none matches)
//   stream_block core/block_streamer dispatcher
//   pass         StencilAccelerator::run / run_block_parallel, as routed
//   program      ProgramExecutor::run (programs) or resolve_plan +
//                run_planned (single-stencil jobs, the engine's own path)
//   engine       StencilEngine::submit -> wait
//   cluster      EngineCluster::submit -> wait
//
// Every rung below the program layer runs over scratch leased from one
// warm BufferPool, as the program layer's run_planned does, so no rung
// pays allocation the one above it does not. A single-stencil job is one
// node run; a program job replays each node once per step on a copy of
// the node's initial input field (the rungs compare their outputs with
// each other; rungs from `program` up compare with the golden model).
#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>

#include "bench.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/block_streamer.hpp"
#include "kernels/kernel_registry.hpp"
#include "program/program_executor.hpp"

namespace perfbench {
namespace {

enum Rung { kKernel, kStreamBlock, kPass, kSync, kProgram, kEngine, kCluster,
            kRungs };
constexpr const char* kRungNames[kRungs] = {
    "kernel", "stream_block", "pass", "sync_pass", "program", "engine",
    "cluster"};

/// One stencil application below the program layer.
struct NodeRun {
  std::string name;
  TapSet taps{2, 1, {Tap{0, 0, 0, 1.0f}}};  ///< boundary-stamped
  AcceleratorConfig cfg;                      ///< the plan's, hook-free
  BlockingPlan plan;
  ExecutionBackend backend = ExecutionBackend::sync_sim;
  int workers = 1;  ///< threads of the routed pass
  int iterations = 1;
  int repeats = 1;  ///< program steps
  const GridVariant* input = nullptr;     ///< owned by the workload
  const GridVariant* expected = nullptr;  ///< single-stencil jobs only
  std::optional<GridVariant> output;      ///< else: first rung's result
};

ProgramExecutor::Services services(PlanCache& plans, BufferPool& pool,
                                   Telemetry& tel, int workers) {
  ProgramExecutor::Services s;
  s.plans = &plans;
  s.pool = &pool;
  s.telemetry = &tel;
  s.workers = workers;
  return s;
}

std::vector<NodeRun> node_runs(const Workload& w) {
  PlanCache plans;
  BufferPool pool;
  Telemetry tel;
  ProgramExecutor exec(services(plans, pool, tel, w.block_workers));
  std::vector<NodeRun> runs;
  const auto add = [&](std::string name, TapSet taps,
                       const AcceleratorConfig& cfg, const GridVariant& in,
                       int iterations, int repeats,
                       const GridVariant* expected) {
    NodeRun n;
    n.name = std::move(name);
    const auto plan =
        exec.resolve_plan(taps, cfg, grid_variant_nx(in), grid_variant_ny(in),
                          grid_variant_nz(in), nullptr, nullptr);
    n.taps = std::move(taps);
    n.cfg = plan->config;
    n.plan = plan->blocking;
    n.backend = exec.route(*plan);
    if (n.backend == ExecutionBackend::block_parallel) {
      RunOptions ro;
      ro.workers = w.block_workers;
      n.workers = resolved_block_workers(ro, n.plan);
    }
    n.iterations = iterations;
    n.repeats = repeats;
    n.input = &in;
    n.expected = expected;
    runs.push_back(std::move(n));
  };
  for (const JobKind& k : w.kinds) {
    if (!k.is_program()) {
      add(k.name, k.taps, k.config, k.input, k.iterations, 1, &k.expected);
      continue;
    }
    const ProgramSpec& p = *k.program;
    for (const std::size_t idx : p.schedule()) {
      const KernelNode& node = p.nodes[idx];
      add(k.name + ":" + node.name, p.stamped_taps(idx), node.config,
          p.find_field(node.reads)->data, node.iterations, p.steps, nullptr);
    }
  }
  return runs;
}

template <typename GridT>
GridT grid_like(const GridT& g, std::vector<float> storage) {
  if constexpr (std::is_same_v<GridT, Grid3D<float>>) {
    return GridT(g.nx(), g.ny(), g.nz(), std::move(storage));
  } else {
    return GridT(g.nx(), g.ny(), std::move(storage));
  }
}

/// Rungs kernel / stream_block: every pass's blocks on `n.workers` threads
/// claiming block indices, ping-ponging over pooled scratch exactly like
/// the pass does -- minus the pass machinery itself. The PE chains, lane
/// buffers and coefficients are built before the span opens.
struct BlockRig {
  explicit BlockRig(const NodeRun& node)
      : n(node),
        kernel(n.taps.boundary().is_clamp()
                   ? KernelRegistry::instance().find(n.taps, n.cfg)
                   : nullptr),
        pes(std::size_t(n.workers)),
        va(pes.size(), std::vector<float>(std::size_t(n.cfg.parvec))),
        vb(pes.size(), std::vector<float>(std::size_t(n.cfg.parvec))) {
    for (const Tap& t : n.taps.taps()) coeffs.push_back(t.coeff);
    for (auto& chain : pes) {
      for (int k = 0; k < n.cfg.partime; ++k) chain.emplace_back(n.taps, n.cfg, k);
    }
  }

  template <typename GridT>
  RunStats run(GridT& grid, BufferPool& pool, bool dispatch) {
    std::vector<RunStats> stats(pes.size());
    BufferPool::Lease lease(pool, grid.size());
    GridT scratch = grid_like(grid, std::move(lease.buffer()));
    GridT* cur = &grid;
    GridT* nxt = &scratch;
    for (int remaining = n.iterations; remaining > 0;) {
      const int steps = std::min(remaining, n.cfg.partime);
      const auto block = [&](std::size_t w, std::int64_t b) {
        const BlockExtent blk = block_extent(n.plan, b);
        if (dispatch) {
          stream_block(pes[w], n.plan, blk, *cur, *nxt, steps, va[w], vb[w],
                       stats[w]);
        } else if (kernel == nullptr) {
          stream_block_generic(pes[w], n.plan, blk, *cur, *nxt, steps, va[w],
                               vb[w], stats[w]);
        } else if constexpr (std::is_same_v<GridT, Grid3D<float>>) {
          kernel->run_3d(n.plan, blk, *cur, *nxt, steps, coeffs.data(),
                         stats[w], nullptr);
        } else {
          kernel->run_2d(n.plan, blk, *cur, *nxt, steps, coeffs.data(),
                         stats[w], nullptr);
        }
      };
      if (n.workers == 1) {
        for (std::int64_t b = 0; b < n.plan.total_blocks(); ++b) block(0, b);
      } else {
        std::atomic<std::int64_t> next{0};
        std::vector<std::jthread> threads;
        for (std::size_t w = 0; w < pes.size(); ++w) {
          threads.emplace_back([&, w] {
            for (std::int64_t b;
                 (b = next.fetch_add(1)) < n.plan.total_blocks();) {
              block(w, b);
            }
          });
        }
      }
      std::swap(cur, nxt);
      remaining -= steps;
    }
    if (cur != &grid) std::swap(grid, scratch);
    lease.buffer() = scratch.release_storage();
    RunStats total;
    for (const RunStats& st : stats) total.accumulate(st);
    return total;
  }

  const NodeRun& n;
  const SpecializedKernel* kernel;
  std::vector<std::vector<ProcessingElement>> pes;
  std::vector<std::vector<float>> va, vb;
  std::vector<float> coeffs;
};

template <typename GridT>
RunStats run_pass(const NodeRun& n, GridT& grid, BufferPool& pool, bool sync,
                  int block_workers) {
  BufferPool::Lease lease(pool, grid.size());
  if (!sync && n.backend == ExecutionBackend::block_parallel) {
    RunOptions ro;
    ro.workers = block_workers;
    ro.scratch = &lease.buffer();
    ro.pool = &pool;
    return run_block_parallel(n.taps, n.cfg, grid, n.iterations, ro);
  }
  StencilAccelerator accel(n.taps, n.cfg);
  return accel.run(grid, n.iterations, &lease.buffer());
}

/// Per-rep, per-rung totals over the workload's job set.
struct RepTimes {
  double ns[kRungs] = {};
  double pass_worker_ns = 0;  ///< sum of pass time x routed workers
  RunStats pass_stats;
};

class Ladder {
 public:
  Ladder(Workload& w, Telemetry& trace)
      : w_(w), trace_(trace), runs_(node_runs(w)),
        exec_(services(plans_, pool_, local_tel_, w.block_workers)) {
    for (int r = 0; r < kRungs; ++r) {
      trace_.tracer().set_thread_name(kLane + r,
                                      std::string("ladder.") + kRungNames[r]);
    }
  }

  /// One rep over every rung, counting outputs that are not bit-exact.
  RepTimes rep(EngineCluster& cluster, StencilEngine& engine) {
    RepTimes t;
    for (NodeRun& n : runs_) {
      for (const Rung r : {kKernel, kStreamBlock, kPass, kSync}) {
        for (int i = 0; i < n.repeats; ++i) node_rung(n, r, t);
      }
    }
    for (const JobKind& k : w_.kinds) {
      job_rung(k, kProgram, t, [&](JobSpec& spec) { return program_job(k, spec); });
      job_rung(k, kEngine, t, [&](JobSpec& spec) {
        JobHandle h = engine.submit(std::move(spec));
        return std::move(h.wait());
      });
      job_rung(k, kCluster, t, [&](JobSpec& spec) {
        JobHandle h = cluster.submit(std::move(spec));
        return std::move(h.wait());
      });
    }
    return t;
  }

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t inexact() const { return inexact_; }
  [[nodiscard]] const std::vector<NodeRun>& runs() const { return runs_; }

 private:
  static constexpr int kLane = 100;

  template <typename Fn>
  double span(Rung r, const std::string& what, Fn&& fn) {
    Tracer& tr = trace_.tracer();
    const std::int64_t start = tr.now_ns();
    fn();
    const std::int64_t dur = tr.now_ns() - start;
    tr.complete(std::string("ladder.") + kRungNames[r] + ":" + what, "ladder",
                kLane + r, start, dur);
    return double(dur);
  }

  void node_rung(NodeRun& n, Rung r, RepTimes& t) {
    GridVariant grid = *n.input;  // fresh input, outside the span
    std::optional<BlockRig> rig;
    if (r == kKernel || r == kStreamBlock) rig.emplace(n);
    RunStats stats;
    const double ns = span(r, n.name, [&] {
      std::visit(
          [&](auto& g) {
            if (rig) {
              stats = rig->run(g, pool_, r == kStreamBlock);
            } else {
              stats = run_pass(n, g, pool_, r == kSync, w_.block_workers);
            }
          },
          grid);
    });
    t.ns[r] += ns;
    if (r == kPass) {
      t.pass_worker_ns += ns * n.workers;
      t.pass_stats.accumulate(stats);
    }
    ++attempted_;
    if (n.expected) {
      if (!grids_equal(*n.expected, grid)) ++inexact_;
    } else if (!n.output) {
      n.output = std::move(grid);
    } else if (!grids_equal(*n.output, grid)) {
      ++inexact_;
    }
  }

  JobResult program_job(const JobKind& k, JobSpec& spec) {
    JobResult r;
    if (k.is_program()) {
      ProgramOutcome o = exec_.run(*k.program, nullptr, 0);
      r.fields = std::move(o.fields);
      return r;
    }
    std::visit(
        [&](auto& g) {
          const auto plan = exec_.resolve_plan(
              spec.taps, spec.config, grid_variant_nx(spec.grid),
              grid_variant_ny(spec.grid), grid_variant_nz(spec.grid), nullptr,
              nullptr);
          exec_.run_planned(spec.taps, plan->config, exec_.route(*plan), g,
                            spec.iterations, nullptr);
        },
        spec.grid);
    r.grid = std::move(spec.grid);
    return r;
  }

  template <typename Fn>
  void job_rung(const JobKind& k, Rung r, RepTimes& t, Fn&& fn) {
    JobSpec spec = make_spec(k, w_, nullptr);
    JobResult result;
    t.ns[r] += span(r, k.name, [&] { result = fn(spec); });
    ++attempted_;
    if (!result_matches(k, result)) ++inexact_;
  }

  Workload& w_;
  Telemetry& trace_;
  std::vector<NodeRun> runs_;
  PlanCache plans_;
  BufferPool pool_;
  Telemetry local_tel_;
  ProgramExecutor exec_;
  std::int64_t attempted_ = 0;
  std::int64_t inexact_ = 0;
};

}  // namespace

LadderResult run_ladder(Workload& w, Telemetry& trace, double triad) {
  Ladder ladder(w, trace);
  ClusterOptions copts = w.cluster;
  copts.telemetry = nullptr;
  EngineCluster cluster(copts);
  EngineOptions eopts = w.cluster.engine;
  eopts.telemetry = nullptr;
  StencilEngine engine(eopts);

  ladder.rep(cluster, engine);  // warm-up: pools, caches, first-touch pages
  std::vector<RepTimes> reps;
  for (int i = 0; i < w.ladder_reps; ++i) reps.push_back(ladder.rep(cluster, engine));

  const double jobs = double(w.kinds.size());
  const auto per_job_ms = [&](Rung r) {
    std::vector<double> v;
    for (const RepTimes& t : reps) v.push_back(t.ns[r] * 1e-6 / jobs);
    return median(v);
  };
  std::vector<double> pass_worker;
  for (const RepTimes& t : reps) pass_worker.push_back(t.pass_worker_ns);

  double cells = 0;
  for (const JobKind& k : w.kinds) cells += k.cell_updates;
  cells /= jobs;
  // Computed, not measured: every streamed cell read once from memory and
  // every valid cell written once per pass, 4 bytes each.
  double bytes = 0, updates = 0;
  for (const NodeRun& n : ladder.runs()) {
    const int passes = (n.iterations + n.cfg.partime - 1) / n.cfg.partime;
    bytes += 4.0 * n.repeats * passes *
             double(n.plan.cells_streamed + n.plan.valid_cells);
    updates += double(n.repeats) * n.iterations * double(n.plan.valid_cells);
  }

  const double k_ms = per_job_ms(kKernel), sb_ms = per_job_ms(kStreamBlock),
               pass_ms = per_job_ms(kPass), sync_ms = per_job_ms(kSync),
               prog_ms = per_job_ms(kProgram), eng_ms = per_job_ms(kEngine),
               clu_ms = per_job_ms(kCluster);
  LadderResult out;
  MetricSet& m = out.metrics;
  const double kernel_mcups = cells / k_ms * 1e-3;
  const double bytes_per_cell = bytes / updates;
  m.add("kernels.mcells_per_s", kernel_mcups, "Mcup/s");
  m.add("kernels.bytes_per_cell", bytes_per_cell, "B/cell");
  m.add("kernels.roofline_frac",
        triad > 0 ? kernel_mcups * 1e6 * bytes_per_cell / (triad * 1e9) : 0.0,
        "ratio");
  m.add("core.stream_block_self_ms", sb_ms - k_ms, "ms");
  m.add("core.pass_self_ms", pass_ms - sb_ms, "ms");
  m.add("core.redundancy", reps.back().pass_stats.redundancy(), "ratio");
  m.add("core.sync_mcells_per_s", cells / sync_ms * 1e-3, "Mcup/s");
  m.add("core.parallel_efficiency",
        sync_ms * 1e6 * jobs / median(pass_worker), "ratio");
  m.add("program.node_ms", pass_ms, "ms");
  m.add("program.self_ms", prog_ms - pass_ms, "ms");
  m.add("engine.self_ms", eng_ms - prog_ms, "ms");
  m.add("cluster.self_us", (clu_ms - eng_ms) * 1e3, "us");
  for (int r = 0; r < kRungs; ++r) {
    out.rungs.add(kRungNames[r], per_job_ms(Rung(r)), "ms/job");
  }
  out.cluster_ms_per_job = clu_ms;
  out.attempted = ladder.attempted();
  out.inexact = ladder.inexact();
  return out;
}

}  // namespace perfbench
