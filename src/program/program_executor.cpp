#include "program/program_executor.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/cancellation.hpp"
#include "common/expect.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "telemetry/telemetry.hpp"
#include "tune/host_autotuner.hpp"

namespace fpga_stencil {
namespace {

/// Everything resolved once per node before the timestep loop starts:
/// the boundary-stamped taps, the plan's config with the node's telemetry
/// hook restored, and the routed backend. Reused across all steps, so
/// plan-cache/tuner accounting ticks once per node per program run.
struct ResolvedNode {
  // TapSet has no default ctor; the placeholder is overwritten by
  // stamped_taps before any use.
  TapSet taps{2, 1, {Tap{0, 0, 0, 1.0f}}};
  AcceleratorConfig cfg;
  std::shared_ptr<const CachedPlan> plan;
  ExecutionBackend backend = ExecutionBackend::sync_sim;
  int in_field = 0;
  int out_field = 0;
};

/// Per-field runtime state. front/back are pool leases so every byte a
/// program touches comes from (and returns to) the engine's BufferPool.
struct FieldState {
  std::unique_ptr<BufferPool::Lease> front;
  std::unique_ptr<BufferPool::Lease> back;
  bool written = false;
  std::int64_t nx = 0, ny = 0, nz = 1, cells = 0;
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
  ExecutionBackend backend = services_.backend;
  if (backend == ExecutionBackend::automatic) {
    const std::int64_t p = requested_block_workers(services_.workers);
    backend = (p >= 2 && plan.blocking.total_blocks() >= 2 * p)
                  ? ExecutionBackend::block_parallel
                  : ExecutionBackend::sync_sim;
  }
  return backend;
}

namespace {

/// `scratch` donates the executor's ping-pong storage; null leases it
/// from the pool for the call.
template <typename GridT>
RunStats run_planned_impl(const ProgramExecutor::Services& services,
                          const TapSet& taps, const AcceleratorConfig& cfg,
                          ExecutionBackend backend, GridT& grid,
                          int iterations, const CancellationToken* token,
                          const NodeRunOptions& opts,
                          std::vector<float>* scratch = nullptr) {
  FPGASTENCIL_EXPECT(backend == ExecutionBackend::sync_sim ||
                         backend == ExecutionBackend::block_parallel,
                     "run_planned handles the single-board backends only");
  std::optional<BufferPool::Lease> lease;
  if (scratch == nullptr) {
    lease.emplace(*services.pool, grid.size());
    scratch = &lease->buffer();
  }
  if (backend == ExecutionBackend::block_parallel) {
    RunOptions ropts;
    ropts.workers = services.workers;
    ropts.injector = opts.injector;
    ropts.watchdog_deadline = opts.watchdog_deadline;
    ropts.scratch = scratch;
    ropts.pool = services.pool;  // per-worker lane scratch
    if (token) ropts.cancel = *token;
    return run_block_parallel(taps, cfg, grid, iterations, ropts);
  }
  StencilAccelerator accel(taps, cfg);
  return accel.run(grid, iterations, scratch, token);
}

template <typename GridT>
GridT field_grid(const FieldState& shape, std::vector<float> storage) {
  if constexpr (std::is_same_v<GridT, Grid3D<float>>) {
    return GridT(shape.nx, shape.ny, shape.nz, std::move(storage));
  } else {
    return GridT(shape.nx, shape.ny, std::move(storage));
  }
}

/// Advances one node's input `src` (a field buffer) into `work`. The
/// first pass streams straight out of `src`: its storage is lent to the
/// executor's grid with `work` as the scratch side, so the input is
/// never copied and comes back unmodified (a pass only reads its input),
/// on unwind too. Passes after the first ping-pong between `work` and a
/// pooled scratch lease.
template <typename GridT>
RunStats run_node(const ProgramExecutor::Services& services,
                  const ResolvedNode& rn, int iterations,
                  const FieldState& shape, std::vector<float>& src,
                  std::vector<float>& work, const CancellationToken* token) {
  if (iterations == 0) {  // the identity: the result is the input
    std::copy(src.begin(), src.end(), work.begin());
    return {};
  }
  const int first = std::min(iterations, rn.cfg.partime);
  GridT grid = field_grid<GridT>(shape, std::move(src));
  RunStats stats;
  try {
    stats = run_planned_impl(services, rn.taps, rn.cfg, rn.backend, grid,
                             first, token, NodeRunOptions(), &work);
  } catch (...) {
    src = grid.release_storage();  // an aborted pass never wrote it
    throw;
  }
  // The one pass swapped the sides: `work` holds the input, `grid` the
  // result.
  src = std::move(work);
  work = grid.release_storage();
  if (iterations > first) {
    GridT rest = field_grid<GridT>(shape, std::move(work));
    stats.accumulate(run_planned_impl(services, rn.taps, rn.cfg, rn.backend,
                                      rest, iterations - first, token,
                                      NodeRunOptions()));
    work = rest.release_storage();
  }
  return stats;
}

}  // namespace

RunStats ProgramExecutor::run_planned(const TapSet& taps,
                                      const AcceleratorConfig& cfg,
                                      ExecutionBackend backend,
                                      Grid2D<float>& grid, int iterations,
                                      const CancellationToken* token,
                                      const NodeRunOptions& opts) {
  return run_planned_impl(services_, taps, cfg, backend, grid, iterations,
                          token, opts);
}

RunStats ProgramExecutor::run_planned(const TapSet& taps,
                                      const AcceleratorConfig& cfg,
                                      ExecutionBackend backend,
                                      Grid3D<float>& grid, int iterations,
                                      const CancellationToken* token,
                                      const NodeRunOptions& opts) {
  return run_planned_impl(services_, taps, cfg, backend, grid, iterations,
                          token, opts);
}

ProgramOutcome ProgramExecutor::run(const ProgramSpec& program,
                                    const CancellationToken* token,
                                    int worker_id) {
  program.validate();
  const std::vector<std::size_t> order = program.schedule();
  const std::vector<bool> reads_back = detail::reads_back_flags(program);
  const int dims = program.dims();

  ProgramOutcome out;
  out.fingerprint = program.fingerprint();

  std::vector<FieldState> states(program.fields.size());
  for (std::size_t i = 0; i < program.fields.size(); ++i) {
    const FieldSpec& f = program.fields[i];
    FieldState& s = states[i];
    s.nx = grid_variant_nx(f.data);
    s.ny = grid_variant_ny(f.data);
    s.nz = grid_variant_nz(f.data);
    s.cells = grid_variant_cells(f.data);
    s.front =
        std::make_unique<BufferPool::Lease>(*services_.pool, std::size_t(s.cells));
    s.back =
        std::make_unique<BufferPool::Lease>(*services_.pool, std::size_t(s.cells));
    const float* data = grid_variant_data(f.data);
    std::copy(data, data + s.cells, s.front->buffer().data());
  }

  // Resolve every node plan once, in schedule order; the timestep loop
  // reuses the handles, so a program run costs exactly one plan-cache
  // lookup (and at most one autotune probe) per node, however many steps
  // it advances.
  std::vector<ResolvedNode> resolved(program.nodes.size());
  for (const std::size_t idx : order) {
    const KernelNode& node = program.nodes[idx];
    ResolvedNode& rn = resolved[idx];
    rn.in_field = program.field_index(node.reads);
    rn.out_field = program.field_index(node.writes);
    const FieldState& in = states[std::size_t(rn.in_field)];
    rn.taps = program.stamped_taps(idx);
    bool hit = false;
    rn.plan =
        resolve_plan(rn.taps, node.config, in.nx, in.ny, in.nz, token, &hit);
    out.all_plans_cached = out.all_plans_cached && hit;
    out.any_plan_tuned = out.any_plan_tuned || rn.plan->tuned;
    // The cached config is hook-free; restore the node's telemetry hook.
    rn.cfg = rn.plan->config;
    rn.cfg.telemetry = node.config.telemetry;
    rn.backend = route(*rn.plan);
  }

  Tracer& tracer = services_.telemetry->tracer();
  const std::string span_base = m("program.node") + ":";
  for (int step = 0; step < program.steps; ++step) {
    if (token) token->throw_if_cancelled();
    for (const std::size_t idx : order) {
      const KernelNode& node = program.nodes[idx];
      const ResolvedNode& rn = resolved[idx];
      FieldState& in = states[std::size_t(rn.in_field)];
      FieldState& dst = states[std::size_t(rn.out_field)];
      // Hooked nodes only: the tracer keeps every event for its owner's
      // lifetime.
      Tracer::Span span;
      if (rn.cfg.telemetry) {
        span = tracer.span(span_base + node.name, worker_id,
                           services_.metrics_prefix);
      }

      // Advance the resolved input into a pooled work buffer.
      BufferPool::Lease work(*services_.pool, std::size_t(in.cells));
      std::vector<float>& src =
          (reads_back[idx] ? in.back : in.front)->buffer();
      out.stats.accumulate(
          dims == 2 ? run_node<Grid2D<float>>(services_, rn, node.iterations,
                                              in, src, work.buffer(), token)
                    : run_node<Grid3D<float>>(services_, rn, node.iterations,
                                              in, src, work.buffer(), token));
      detail::combine_field(node.combine, dst.written,
                            dst.front->buffer().data(), work.buffer().data(),
                            dst.back->buffer().data(), dst.cells);
      dst.written = true;
      ++out.nodes_executed;
    }
    for (FieldState& s : states) {
      if (s.written) {
        std::swap(s.front, s.back);
        s.written = false;
      }
    }
    ++out.steps_executed;
  }

  MetricsRegistry& metrics = services_.telemetry->metrics();
  metrics.counter(m("program.nodes_scheduled")).add(out.nodes_executed);
  metrics.counter(m("program.steps")).add(out.steps_executed);

  // Move the final field states out of their leases; the leases then
  // return (empty) to the pool, keeping outstanding() balanced.
  out.fields.reserve(program.fields.size());
  for (std::size_t i = 0; i < program.fields.size(); ++i) {
    FieldState& s = states[i];
    std::vector<float> storage = std::move(s.front->buffer());
    if (dims == 2) {
      out.fields.emplace_back(program.fields[i].name,
                              Grid2D<float>(s.nx, s.ny, std::move(storage)));
    } else {
      out.fields.emplace_back(
          program.fields[i].name,
          Grid3D<float>(s.nx, s.ny, s.nz, std::move(storage)));
    }
  }
  return out;
}

}  // namespace fpga_stencil
