#include "program/program_executor.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/cancellation.hpp"
#include "common/expect.hpp"
#include "core/block_parallel_accelerator.hpp"
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
  int in_field = 0;
  int out_field = 0;
};

/// One field's step state: `front` holds the step-start value, `back`
/// collects this step's writes. Both are pool leases, so every byte a
/// program touches comes from (and returns to) the engine's BufferPool.
template <typename GridT>
struct FieldBuffers {
  FieldBuffers(BufferPool& pool, const GridT& init)
      : front(pool, init), back(pool, init) {
    std::copy(init.data(), init.data() + init.size(), front.grid().data());
  }
  LeasedGrid<GridT> front;
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
             ? single_board_backend(services_.workers, plan.blocking)
             : services_.backend;
}

namespace {

template <typename GridT>
RunStats run_planned_impl(const ProgramExecutor::Services& services,
                          const TapSet& taps, const AcceleratorConfig& cfg,
                          ExecutionBackend backend, GridT& grid,
                          int iterations, const CancellationToken* token,
                          const NodeRunOptions& opts) {
  FPGASTENCIL_EXPECT(backend == ExecutionBackend::sync_sim ||
                         backend == ExecutionBackend::block_parallel,
                     "run_planned handles the single-board backends only");
  BufferPool::Lease scratch(*services.pool, grid.size());
  if (backend == ExecutionBackend::block_parallel) {
    RunOptions ropts;
    ropts.workers = services.workers;
    ropts.injector = opts.injector;
    ropts.watchdog_deadline = opts.watchdog_deadline;
    ropts.scratch = &scratch.buffer();
    ropts.pool = services.pool;  // per-worker lane scratch
    if (token) ropts.cancel = *token;
    return run_block_parallel(taps, cfg, grid, iterations, ropts);
  }
  StencilAccelerator accel(taps, cfg);
  return accel.run(grid, iterations, &scratch.buffer(), token);
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
/// advances its resolved input straight into its destination's back
/// buffer; written fields swap at the end of each step.
template <typename GridT>
void run_steps(const ProgramExecutor::Services& services,
               const ProgramSpec& program,
               const std::vector<std::size_t>& order,
               const std::vector<bool>& reads_back,
               const std::vector<ResolvedNode>& resolved,
               const CancellationToken* token, int worker_id,
               ProgramOutcome& out) {
  std::vector<std::unique_ptr<FieldBuffers<GridT>>> fields;
  for (const FieldSpec& f : program.fields) {
    fields.push_back(std::make_unique<FieldBuffers<GridT>>(
        *services.pool, std::get<GridT>(f.data)));
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

      // The first writer of the step adds onto front, later ones onto
      // back itself.
      const GridT& src = reads_back[idx] ? in.back.grid() : in.front.grid();
      GridT& target = dst.back.grid();
      const GridT& prev = dst.written ? dst.back.grid() : dst.front.grid();
      const StoreOp store = node.combine == CombineOp::add
                                ? StoreOp::add(prev.data())
                                : StoreOp::assign();
      out.stats.accumulate(
          rn.pointwise
              ? run_pointwise(src.data(), target.data(),
                              std::int64_t(target.size()),
                              rn.taps.taps()[0].coeff, node.iterations, store)
              : run_node(services, rn, node.iterations, src, target, store,
                         token));
      dst.written = true;
      ++out.nodes_executed;
    }
    for (const auto& f : fields) {
      if (f->written) {
        std::swap(f->front.grid(), f->back.grid());
        f->written = false;
      }
    }
    ++out.steps_executed;
  }

  // Move the final field states out of their leases; the leases then
  // return (empty) to the pool, keeping outstanding() balanced.
  out.fields.reserve(program.fields.size());
  for (std::size_t i = 0; i < program.fields.size(); ++i) {
    out.fields.emplace_back(program.fields[i].name,
                            std::move(fields[i]->front.grid()));
  }
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
    if (rn.backend == ExecutionBackend::block_parallel) {
      out.backend = ExecutionBackend::block_parallel;
    }
  }

  if (program.dims() == 2) {
    run_steps<Grid2D<float>>(services_, program, order, reads_back, resolved,
                             token, worker_id, out);
  } else {
    run_steps<Grid3D<float>>(services_, program, order, reads_back, resolved,
                             token, worker_id, out);
  }

  MetricsRegistry& metrics = services_.telemetry->metrics();
  metrics.counter(m("program.nodes_scheduled")).add(out.nodes_executed);
  metrics.counter(m("program.steps")).add(out.steps_executed);
  return out;
}

}  // namespace fpga_stencil
