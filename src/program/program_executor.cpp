#include "program/program_executor.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/cancellation.hpp"
#include "common/expect.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "engine/circuit_breaker.hpp"
#include "engine/run.hpp"
#include "grid/leased_grid.hpp"
#include "kernels/pointwise.hpp"
#include "telemetry/telemetry.hpp"
#include "tune/host_autotuner.hpp"

namespace fpga_stencil {
namespace {

/// Everything resolved once per node before the timestep loop starts:
/// the boundary-stamped taps and, for a windowed node, the plan's config
/// with the node's telemetry hook restored and the routed backend. Reused
/// across all steps, so plan-cache/tuner accounting ticks once per
/// windowed node per program run. A pointwise node runs as a map and
/// resolves no plan.
struct ResolvedNode {
  // TapSet has no default ctor; the placeholder is overwritten by
  // stamped_taps before any use.
  TapSet taps{2, 1, {Tap{0, 0, 0, 1.0f}}};
  AcceleratorConfig cfg;
  std::shared_ptr<const CachedPlan> plan;
  ExecutionBackend backend = ExecutionBackend::sync_sim;
  bool pointwise = false;
  bool owns = false;  ///< runs in place on its field (owning_flags)
  std::uint64_t probe = 0;  ///< its backend's half-open probe slot, if any
  int in_field = 0;
  int out_field = 0;
};

/// For each node: whether it owns its field -- reads and writes it with
/// assign, and no other node reads or writes it -- so it may advance the
/// field's front buffer in place.
std::vector<bool> owning_flags(const ProgramSpec& program) {
  std::vector<bool> owns(program.nodes.size(), false);
  for (std::size_t i = 0; i < program.nodes.size(); ++i) {
    const KernelNode& n = program.nodes[i];
    owns[i] = n.reads == n.writes && n.combine == CombineOp::assign &&
              std::none_of(program.nodes.begin(), program.nodes.end(),
                           [&](const KernelNode& o) {
                             return &o != &n && (o.reads == n.writes ||
                                                 o.writes == n.writes);
                           });
  }
  return owns;
}

/// One field's step state: `front` holds the step-start value, `back`
/// collects this step's writes. Back is a pool lease; front is the
/// field's initial grid (handed over, or a pooled copy), whose storage
/// leaves with the result.
template <typename GridT>
struct FieldBuffers {
  FieldBuffers(BufferPool& pool, GridT init)
      : front(std::move(init)), back(pool, front) {}
  GridT front;
  LeasedGrid<GridT> back;
  bool written = false;
};

}  // namespace

ProgramExecutor::ProgramExecutor(Services services)
    : services_(std::move(services)) {
  FPGASTENCIL_EXPECT(services_.plans != nullptr,
                     "ProgramExecutor requires a PlanCache");
  FPGASTENCIL_EXPECT(services_.pool != nullptr,
                     "ProgramExecutor requires a BufferPool");
  FPGASTENCIL_EXPECT(services_.telemetry != nullptr,
                     "ProgramExecutor requires a Telemetry sink");
}

std::string ProgramExecutor::m(const char* suffix) const {
  return services_.metrics_prefix + "." + suffix;
}

std::shared_ptr<const CachedPlan> ProgramExecutor::resolve_plan(
    const TapSet& taps, const AcceleratorConfig& cfg, std::int64_t nx,
    std::int64_t ny, std::int64_t nz, const CancellationToken* token,
    bool* hit_out) {
  bool hit = false;
  const PlanAutotune autotune{services_.autotune, services_.tuner, token};
  const std::shared_ptr<const CachedPlan> plan =
      services_.plans->lookup_or_build(taps, cfg, nx, ny, nz, &hit, autotune);
  MetricsRegistry& metrics = services_.telemetry->metrics();
  metrics.counter(hit ? m("plan_cache_hit") : m("plan_cache_miss")).add(1);
  if (plan->tuned) {
    // tuner.cache_hit counts every lookup served by an already-tuned plan
    // (plan-cache hit, or a build whose winner came from the TuningCache);
    // tuner.cache_miss counts the builds that probed.
    const bool probed = !hit && !plan->tuned_from_cache;
    metrics.counter(probed ? m("tuner.cache_miss") : m("tuner.cache_hit"))
        .add(1);
    if (probed) {
      metrics.counter(m("tuner.search_runs")).add(1);
      metrics.counter(m("tuner.search_candidates"))
          .add(plan->tuner_candidates_probed);
      metrics.counter(m("tuner.search_ns")).add(plan->tuner_search_ns);
    }
    if (plan->tuned_baseline_mcells > 0.0) {
      metrics.gauge(m("tuner.gain_milli"))
          .set(std::int64_t(plan->tuned_mcells / plan->tuned_baseline_mcells *
                            1000.0));
    }
  }
  if (hit_out) *hit_out = hit;
  return plan;
}

ExecutionBackend ProgramExecutor::route(const CachedPlan& plan) const {
  return services_.backend == ExecutionBackend::automatic
             ? automatic_backend(services_.boards,
                                 services_.injector != nullptr,
                                 services_.workers, plan.blocking)
             : services_.backend;
}

namespace {

/// The owning-node arm: `grid` advanced `iterations` steps in place on
/// `backend`, with `scratch` as the ping-pong storage. sync_sim,
/// block_parallel, concurrent and resilient run through run_backend(),
/// the switch run() shares; the cluster model runs here, since only
/// engine jobs carry boards/device/link.
template <typename GridT>
RunStats run_owned(const ProgramExecutor::Services& s, const TapSet& taps,
                   const AcceleratorConfig& cfg, ExecutionBackend backend,
                   GridT& grid, int iterations, std::vector<float>* scratch,
                   const CancellationToken* token, ClusterStats& cluster) {
  if (backend == ExecutionBackend::cluster) {
    // The cluster is a timing model (no block loop to poll); honor a
    // pre-run trip, then run to completion.
    if (token) token->throw_if_cancelled();
    MultiFpgaCluster boards(
        s.boards, taps, cfg,
        s.device.name.empty() ? arria10_gx1150() : s.device, s.link);
    cluster = boards.run(grid, iterations);
    // The cluster reports modeled timing, not streaming counts;
    // synthesize the valid-cell work for the job metrics.
    RunStats stats;
    stats.passes = cluster.passes;
    stats.time_steps = iterations;
    stats.cells_written = std::int64_t(grid.size()) * iterations;
    return stats;
  }
  // A resilient run starts from the job's policy, every other backend
  // from fault-free defaults; the job's own knobs win either way.
  ResilienceOptions ropts = backend == ExecutionBackend::resilient
                                ? s.resilience
                                : ResilienceOptions{.base = RunOptions{}};
  RunOptions& base = ropts.base;
  base.channel_depth = s.channel_depth;
  base.workers = s.workers;
  base.pool = s.pool;  // per-worker lane scratch
  if (s.injector) base.injector = s.injector;
  if (s.watchdog_deadline.count() > 0) {
    base.watchdog_deadline = s.watchdog_deadline;
  }
  base.scratch = scratch;
  if (token) base.cancel = *token;
  return run_backend(backend, taps, cfg, grid, iterations, ropts);
}

/// Runs one windowed node: `src` (a field buffer) advanced `iterations`
/// steps on the node's routed backend, the last pass storing into `dst`
/// (its destination's back buffer) with `store`. A node whose input is
/// its own destination buffer first copies the input into a pooled lease:
/// a block's halo reads cells that neighbouring blocks of the same pass
/// may already have stored.
template <typename GridT>
RunStats run_node(const ProgramExecutor::Services& services,
                  const ResolvedNode& rn, int iterations, const GridT& src,
                  GridT& dst, const StoreOp& store,
                  const CancellationToken* token) {
  std::optional<LeasedGrid<GridT>> copy;
  const GridT* in = &src;
  if (&src == &dst) {
    copy.emplace(*services.pool, src);
    std::copy(src.data(), src.data() + src.size(), copy->grid().data());
    in = &copy->grid();
  }
  if (rn.backend == ExecutionBackend::block_parallel) {
    RunOptions ropts;
    ropts.workers = services.workers;
    ropts.pool = services.pool;  // lane and spare-grid scratch
    if (token) ropts.cancel = *token;
    return run_block_parallel_into(rn.taps, rn.cfg, *in, dst, iterations,
                                   store, ropts);
  }
  return StencilAccelerator(rn.taps, rn.cfg)
      .run_into(*in, dst, iterations, store, services.pool, token);
}

/// The timestep loop over `GridT` fields: every node, in schedule order,
/// advances its field in place (an owner) or its resolved input into its
/// destination's back buffer; written fields swap at the end of each step.
/// `running` is the backend of the node in flight; `adopt` hands over the
/// initial grids.
template <typename GridT>
void run_steps(const ProgramExecutor::Services& services,
               const ProgramSpec& program, ProgramSpec* adopt,
               const std::vector<std::size_t>& order,
               const std::vector<bool>& reads_back,
               const std::vector<ResolvedNode>& resolved,
               const CancellationToken* token, int worker_id,
               ExecutionBackend& running, ProgramOutcome& out) {
  std::vector<std::unique_ptr<FieldBuffers<GridT>>> fields;
  for (std::size_t i = 0; i < program.fields.size(); ++i) {
    GridT front;
    if (adopt) {
      front = std::move(std::get<GridT>(adopt->fields[i].data));
    } else {
      // A pooled copy, whose storage leaves the pool with the result.
      const GridT& init = std::get<GridT>(program.fields[i].data);
      LeasedGrid<GridT> copy(*services.pool, init);
      std::copy(init.data(), init.data() + init.size(), copy.grid().data());
      front = std::move(copy.grid());
    }
    fields.push_back(std::make_unique<FieldBuffers<GridT>>(*services.pool,
                                                           std::move(front)));
  }

  Tracer& tracer = services.telemetry->tracer();
  const std::string span_base = services.metrics_prefix + ".program.node:";
  for (int step = 0; step < program.steps; ++step) {
    if (token) token->throw_if_cancelled();
    for (const std::size_t idx : order) {
      const KernelNode& node = program.nodes[idx];
      const ResolvedNode& rn = resolved[idx];
      FieldBuffers<GridT>& in = *fields[std::size_t(rn.in_field)];
      FieldBuffers<GridT>& dst = *fields[std::size_t(rn.out_field)];
      // Hooked nodes only: the tracer keeps every event for its owner's
      // lifetime.
      Tracer::Span span;
      if (node.config.telemetry) {
        span = tracer.span(span_base + node.name, worker_id,
                           services.metrics_prefix);
      }
      running = rn.backend;

      if (rn.owns && !rn.pointwise) {
        // In place on front, back's storage as scratch; the swap then
        // leaves the result in back, like any other write of the step.
        std::vector<float> scratch = dst.back.grid().release_storage();
        out.stats.accumulate(run_owned(services, rn.taps, rn.cfg, rn.backend,
                                       dst.front, node.iterations, &scratch,
                                       token, out.cluster));
        dst.back.grid() = grid_over(dst.front, std::move(scratch));
        std::swap(dst.front, dst.back.grid());
      } else {
        // The first writer of the step adds onto front, later ones onto
        // back itself.
        const GridT& src = reads_back[idx] ? in.back.grid() : in.front;
        GridT& target = dst.back.grid();
        const GridT& prev = dst.written ? dst.back.grid() : dst.front;
        const StoreOp store = node.combine == CombineOp::add
                                  ? StoreOp::add(prev.data())
                                  : StoreOp::assign();
        out.stats.accumulate(
            rn.pointwise
                ? run_pointwise(src.data(), target.data(),
                                std::int64_t(target.size()),
                                rn.taps.taps()[0].coeff, node.iterations,
                                store)
                : run_node(services, rn, node.iterations, src, target,
                           store, token));
      }
      dst.written = true;
      ++out.nodes_executed;
    }
    for (const auto& f : fields) {
      if (f->written) {
        std::swap(f->front, f->back.grid());
        f->written = false;
      }
    }
    ++out.steps_executed;
  }

  // Move the final field states out; the back leases return to the pool,
  // keeping outstanding() balanced.
  out.fields.reserve(program.fields.size());
  for (std::size_t i = 0; i < program.fields.size(); ++i) {
    out.fields.emplace_back(program.fields[i].name,
                            std::move(fields[i]->front));
  }
}

}  // namespace

template <typename GridT>
RunStats ProgramExecutor::run_planned(const TapSet& taps,
                                      const AcceleratorConfig& cfg,
                                      ExecutionBackend backend, GridT& grid,
                                      int iterations,
                                      const CancellationToken* token) {
  BufferPool::Lease scratch(*services_.pool, grid.size());
  ClusterStats cluster;
  return run_owned(services_, taps, cfg, backend, grid, iterations,
                   &scratch.buffer(), token, cluster);
}

template RunStats ProgramExecutor::run_planned<Grid2D<float>>(
    const TapSet&, const AcceleratorConfig&, ExecutionBackend,
    Grid2D<float>&, int, const CancellationToken*);
template RunStats ProgramExecutor::run_planned<Grid3D<float>>(
    const TapSet&, const AcceleratorConfig&, ExecutionBackend,
    Grid3D<float>&, int, const CancellationToken*);

ProgramOutcome ProgramExecutor::run(const ProgramSpec& program,
                                    const CancellationToken* token,
                                    int worker_id) {
  return run_program(program, nullptr, token, worker_id);
}

ProgramOutcome ProgramExecutor::run(ProgramSpec&& program,
                                    const CancellationToken* token,
                                    int worker_id) {
  return run_program(program, &program, token, worker_id);
}

ProgramOutcome ProgramExecutor::run_program(const ProgramSpec& program,
                                            ProgramSpec* adopt,
                                            const CancellationToken* token,
                                            int worker_id) {
  program.validate();
  const std::vector<std::size_t> order = program.schedule();
  const std::vector<bool> reads_back = detail::reads_back_flags(program);
  const std::vector<bool> owns = owning_flags(program);

  ProgramOutcome out;
  out.fingerprint = program.fingerprint();

  // Resolve every windowed node's plan once, in schedule order; the
  // timestep loop reuses the handles, so a program run costs exactly one
  // plan-cache lookup (and at most one autotune probe) per node, however
  // many steps it advances.
  std::vector<ResolvedNode> resolved(program.nodes.size());
  for (const std::size_t idx : order) {
    const KernelNode& node = program.nodes[idx];
    ResolvedNode& rn = resolved[idx];
    rn.in_field = program.field_index(node.reads);
    rn.out_field = program.field_index(node.writes);
    rn.taps = program.stamped_taps(idx);
    rn.pointwise = is_pointwise(rn.taps, node.iterations);
    rn.owns = owns[idx];
    if (rn.pointwise) continue;
    const GridVariant& in = program.fields[std::size_t(rn.in_field)].data;
    bool hit = false;
    rn.plan = resolve_plan(rn.taps, node.config, grid_variant_nx(in),
                           grid_variant_ny(in), grid_variant_nz(in), token,
                           &hit);
    out.all_plans_cached = out.all_plans_cached && hit;
    out.any_plan_tuned = out.any_plan_tuned || rn.plan->tuned;
    // The cached config is hook-free; restore the node's telemetry hook.
    rn.cfg = rn.plan->config;
    rn.cfg.telemetry = node.config.telemetry;
    rn.backend = route(*rn.plan);
    FPGASTENCIL_EXPECT(rn.owns || rn.backend == ExecutionBackend::sync_sim ||
                           rn.backend == ExecutionBackend::block_parallel,
                       "a node sharing its field runs on a single board");
  }

  // The breaker has the last word per windowed node, once every plan
  // resolved (so a ConfigError above never strands a half-open probe).
  MetricsRegistry& metrics = services_.telemetry->metrics();
  for (const std::size_t idx : order) {
    ResolvedNode& rn = resolved[idx];
    if (rn.pointwise) continue;
    if (services_.breaker) {
      const CircuitBreaker::Decision routed =
          services_.breaker->route(rn.backend);
      rn.backend = routed.backend;
      rn.probe = routed.probe;
      if (routed.rerouted) {
        out.rerouted = true;
        metrics.counter(m("breaker_rerouted")).add(1);
        services_.telemetry->tracer().instant(
            m("breaker_reroute"), worker_id, services_.metrics_prefix);
      }
    }
    if (rn.backend != ExecutionBackend::sync_sim) out.backend = rn.backend;
  }

  // Every arm that ends the run early hands back the probe slots its
  // nodes took, except on `charged`, the backend on_failure already
  // charged (which frees its slot).
  const auto release_probes = [&](ExecutionBackend charged) {
    if (!services_.breaker) return;
    for (const ResolvedNode& rn : resolved) {
      if (rn.probe != 0 && rn.backend != charged) {
        services_.breaker->release_probe(rn.backend, rn.probe);
      }
    }
  };
  ExecutionBackend running = ExecutionBackend::automatic;
  try {
    if (program.dims() == 2) {
      run_steps<Grid2D<float>>(services_, program, adopt, order, reads_back,
                               resolved, token, worker_id, running, out);
    } else {
      run_steps<Grid3D<float>>(services_, program, adopt, order, reads_back,
                               resolved, token, worker_id, running, out);
    }
  } catch (const CancelledError&) {
    // Says nothing about the backend's health.
    release_probes(ExecutionBackend::automatic);
    throw;
  } catch (const ConfigError&) {
    release_probes(ExecutionBackend::automatic);  // the spec's fault
    throw;
  } catch (...) {
    if (services_.breaker) services_.breaker->on_failure(running);
    release_probes(running);
    throw;
  }
  if (services_.breaker) {
    for (const ResolvedNode& rn : resolved) {
      if (!rn.pointwise) services_.breaker->on_success(rn.backend);
    }
  }

  metrics.counter(m("program.nodes_scheduled")).add(out.nodes_executed);
  metrics.counter(m("program.steps")).add(out.steps_executed);
  return out;
}

}  // namespace fpga_stencil
