#include "core/block_parallel_accelerator.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/stopwatch.hpp"
#include "core/block_streamer.hpp"
#include "core/pass_chain.hpp"
#include "fault/fault_injector.hpp"
#include "fault/watchdog.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {

int requested_block_workers(int workers) {
  if (workers > 0) return workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ExecutionBackend single_board_backend(int workers, const BlockingPlan& plan) {
  const std::int64_t p = requested_block_workers(workers);
  return p >= 2 && plan.total_blocks() >= 2 * p
             ? ExecutionBackend::block_parallel
             : ExecutionBackend::sync_sim;
}

int resolved_block_workers(const RunOptions& options,
                           const BlockingPlan& plan) {
  const std::int64_t requested = requested_block_workers(options.workers);
  return static_cast<int>(
      std::max<std::int64_t>(1, std::min(requested, plan.total_blocks())));
}

namespace {

/// State the coordinator publishes to the pool for one pass. The start
/// barrier makes the plain fields visible to the workers; the finish
/// barrier hands them back (so only next_block is ever contended).
template <typename GridT>
struct PassState {
  const GridT* in = nullptr;
  GridT* out = nullptr;
  int steps = 0;
  StoreOp store;
  std::atomic<std::int64_t> next_block{0};
  bool done = false;  ///< set before the start barrier to retire the pool
};

template <typename GridT>
BlockingPlan plan_for(const AcceleratorConfig& cfg, const GridT& grid) {
  if constexpr (std::is_same_v<GridT, Grid3D<float>>) {
    return make_blocking_plan(cfg, grid.nx(), grid.ny(), grid.nz());
  } else {
    return make_blocking_plan(cfg, grid.nx(), grid.ny());
  }
}

/// The configuration a run executes: validated, stage_lag resolved, the
/// options' telemetry hook preferred.
template <typename GridT>
AcceleratorConfig run_config(const TapSet& taps, const AcceleratorConfig& cfg0,
                             int iterations, const RunOptions& opts) {
  constexpr bool is_3d = std::is_same_v<GridT, Grid3D<float>>;
  FPGASTENCIL_EXPECT(cfg0.dims == (is_3d ? 3 : 2),
                     "grid dimensionality does not match the configuration");
  FPGASTENCIL_EXPECT(iterations >= 0, "iterations must be non-negative");
  AcceleratorConfig cfg = resolve_stage_lag(taps, cfg0);
  if (opts.telemetry) cfg.telemetry = opts.telemetry;
  return cfg;
}

/// The pass chain from `in` to `out` (core/pass_chain.hpp), every pass's
/// blocks fanned out over one worker pool that lives for the whole chain.
template <typename GridT>
RunStats run_chain_parallel(const TapSet& taps, const AcceleratorConfig& cfg,
                            const GridT& in, GridT& out, GridT* spare0,
                            GridT* spare1, int iterations,
                            const StoreOp& store, const RunOptions& opts,
                            const GridT*& done) {
  Telemetry* const tel = cfg.telemetry;
  const BlockingPlan plan = plan_for(cfg, in);
  const int workers = resolved_block_workers(opts, plan);

  RunStats stats;
  const std::size_t pool_size = static_cast<std::size_t>(workers);
  PassState<GridT> pass;
  std::barrier<> start(workers + 1);
  std::barrier<> finish(workers + 1);
  std::vector<RunStats> worker_stats(pool_size);
  std::vector<std::int64_t> worker_busy_ns(pool_size, 0);
  std::vector<std::exception_ptr> worker_errors(pool_size);

  // Cooperative unwind machinery. `aborted` stops every worker's claim
  // loop; the watchdog (when armed) sets it and opens the injector's
  // stall gate so a hung worker wakes, claims nothing more, and reaches
  // the finish barrier -- the two-barrier pass protocol never deadlocks.
  FaultInjector* const fi = opts.injector;
  if (fi) fi->reset_stalls();  // re-arm the gate; no thread is parked yet
  const CancellationToken* const cancel =
      opts.cancel.valid() ? &opts.cancel : nullptr;
  std::atomic<bool> aborted{false};
  const auto unwind = [&] {
    aborted.store(true, std::memory_order_release);
    if (tel) tel->tracer().instant("block_parallel_unwind", 0,
                                   "block_parallel");
    if (fi) fi->release_stalls();
  };
  std::optional<Watchdog> dog;
  if (opts.watchdog_deadline.count() > 0) {
    dog.emplace(opts.watchdog_deadline, unwind);
  }

  const auto worker_fn = [&](int w) {
    // Private pipeline replica: own PE chain (shift-register state is
    // per-block, reset by begin_block) and own ping-pong lane buffers.
    std::vector<ProcessingElement> pes;
    std::optional<BufferPool::Lease> lease;
    std::vector<float> local_lanes;
    std::span<float> va;
    std::span<float> vb;
    try {
      pes.reserve(std::size_t(cfg.partime));
      for (int k = 0; k < cfg.partime; ++k) pes.emplace_back(taps, cfg, k);
      const std::size_t lane = std::size_t(cfg.parvec);
      if (opts.pool) {
        lease.emplace(*opts.pool, 2 * lane);
        va = std::span<float>(lease->buffer()).first(lane);
        vb = std::span<float>(lease->buffer()).subspan(lane, lane);
      } else {
        local_lanes.resize(2 * lane);
        va = std::span<float>(local_lanes).first(lane);
        vb = std::span<float>(local_lanes).subspan(lane, lane);
      }
    } catch (...) {
      // The worker must keep participating in the barriers even when its
      // setup failed, or the coordinator would deadlock; it just claims
      // no blocks. The error surfaces after the pass.
      worker_errors[std::size_t(w)] = std::current_exception();
    }
    for (;;) {
      start.arrive_and_wait();
      if (pass.done) return;
      if (!worker_errors[std::size_t(w)]) {
        const Stopwatch busy_clock;
        Tracer::Span span;
        if (tel) {
          span = tel->tracer().span("block_parallel.worker", w,
                                    "block_parallel");
        }
        try {
          for (;;) {
            if (aborted.load(std::memory_order_acquire)) break;
            if (cancel) cancel->throw_if_cancelled();
            if (fi && fi->should_fire(FaultSite::kernel_hang)) {
              // Park on the stall gate exactly like a hung PE; only the
              // watchdog's unwind releases it. Claim nothing afterwards.
              fi->stall_until_released();
              if (aborted.load(std::memory_order_acquire)) break;
            }
            const std::int64_t b =
                pass.next_block.fetch_add(1, std::memory_order_relaxed);
            if (b >= plan.total_blocks()) break;
            stream_block(pes, plan, block_extent(plan, b), *pass.in,
                         *pass.out, pass.steps, va, vb,
                         worker_stats[std::size_t(w)], cancel, pass.store);
            if (dog) dog->kick();
          }
        } catch (...) {
          // Cancellation or a streaming error: stop the siblings too so
          // the pass unwinds at block granularity, then report through
          // the per-worker slot (first worker by index wins the rethrow).
          aborted.store(true, std::memory_order_release);
          if (fi) fi->release_stalls();
          worker_errors[std::size_t(w)] = std::current_exception();
        }
        if (tel) span.end();
        worker_busy_ns[std::size_t(w)] += busy_clock.nanoseconds();
      }
      finish.arrive_and_wait();
    }
  };

  const Stopwatch run_clock;
  std::vector<std::thread> pool_threads;
  pool_threads.reserve(std::size_t(workers));
  for (int w = 0; w < workers; ++w) pool_threads.emplace_back(worker_fn, w);
  const auto retire_pool = [&] {
    pass.done = true;
    start.arrive_and_wait();
    if (dog) dog->stop();
    for (std::thread& t : pool_threads) t.join();
  };

  std::int64_t written_so_far = 0;
  try {
    run_pass_chain(
        in, out, spare0, spare1, iterations, cfg.partime, store, done,
        [&](const GridT& src, GridT& dst, int steps, const StoreOp& st) {
          pass.in = &src;
          pass.out = &dst;
          pass.steps = steps;
          pass.store = st;
          pass.next_block.store(0, std::memory_order_relaxed);
          const Stopwatch pass_clock;
          start.arrive_and_wait();   // release the pass to the pool
          finish.arrive_and_wait();  // every block of the pass has retired
          // Unwound mid-pass (cancel, deadline, watchdog trip, or a worker
          // error): the first worker's error by index wins; with none,
          // the watchdog unwound a stalled pass (the hung worker parked on
          // the gate, its siblings drained the remaining blocks).
          for (const std::exception_ptr& e : worker_errors) {
            if (e) std::rethrow_exception(e);
          }
          if (aborted.load(std::memory_order_acquire)) {
            throw PassAbortedError(
                "block-parallel pass unwound by watchdog (no progress "
                "within deadline)");
          }
          stats.time_steps += steps;
          ++stats.passes;
          if (tel) {
            std::int64_t written = 0;
            for (const RunStats& ws : worker_stats) written += ws.cells_written;
            record_pass_metrics(*tel, "block_parallel",
                                written - written_so_far,
                                pass_clock.nanoseconds());
            written_so_far = written;
          }
        });
  } catch (...) {
    retire_pool();
    throw;
  }
  retire_pool();

  // Merge in worker-index order so the aggregate is deterministic too.
  for (const RunStats& ws : worker_stats) {
    stats.cells_streamed += ws.cells_streamed;
    stats.cells_written += ws.cells_written;
    stats.vectors_processed += ws.vectors_processed;
    stats.block_passes += ws.block_passes;
  }

  if (tel) {
    MetricsRegistry& m = tel->metrics();
    m.gauge("block_parallel.workers").set(workers);
    m.counter("block_parallel.blocks").add(stats.block_passes);
    const std::int64_t run_ns = run_clock.nanoseconds();
    if (run_ns > 0) {
      m.gauge("block_parallel.blocks_per_s")
          .set(stats.block_passes * 1'000'000'000 / run_ns);
    }
    // Redundant work actually incurred (streamed/written, eq. 2), in
    // thousandths -- the registry is integer-only.
    m.gauge("block_parallel.redundancy_milli")
        .set(std::int64_t(stats.redundancy() * 1000.0));
    Histogram& busy = m.histogram("block_parallel.worker_busy_ns",
                                  default_latency_bounds_ns());
    for (const std::int64_t ns : worker_busy_ns) busy.observe(ns);
  }
  return stats;
}

}  // namespace

template <typename GridT>
RunStats run_block_parallel(const TapSet& taps, const AcceleratorConfig& cfg,
                            GridT& grid, int iterations,
                            const RunOptions& options) {
  const AcceleratorConfig rcfg =
      run_config<GridT>(taps, cfg, iterations, options);
  if (iterations == 0) return {};
  // An aborted run leaves the caller's grid holding the last completed
  // pass and drops the scratch storage (options.scratch stays empty, the
  // documented abort contract; the pool lease still flows back through
  // the caller).
  return in_place_chain(
      grid, pass_count(iterations, rcfg.partime), options.scratch,
      [&](GridT& out, GridT* spare0, GridT* spare1, const GridT*& done) {
        return run_chain_parallel(taps, rcfg, grid, out, spare0, spare1,
                                  iterations, StoreOp::assign(), options,
                                  done);
      });
}

template <typename GridT>
RunStats run_block_parallel_into(const TapSet& taps,
                                 const AcceleratorConfig& cfg,
                                 const GridT& in, GridT& out, int iterations,
                                 const StoreOp& store,
                                 const RunOptions& options) {
  const AcceleratorConfig rcfg =
      run_config<GridT>(taps, cfg, iterations, options);
  FPGASTENCIL_EXPECT(iterations > 0,
                     "run_block_parallel_into needs at least one step");
  FPGASTENCIL_EXPECT(in.size() == out.size() && in.data() != out.data(),
                     "run_block_parallel_into needs an output the input's "
                     "size, elsewhere");
  const int passes = pass_count(iterations, rcfg.partime);
  ChainSpares<GridT> spares(in, passes, options.pool);
  const GridT* done = nullptr;
  return run_chain_parallel(taps, rcfg, in, out, spares.get(0), spares.get(1),
                            iterations, store, options, done);
}

template RunStats run_block_parallel<Grid2D<float>>(const TapSet&,
                                                    const AcceleratorConfig&,
                                                    Grid2D<float>&, int,
                                                    const RunOptions&);
template RunStats run_block_parallel<Grid3D<float>>(const TapSet&,
                                                    const AcceleratorConfig&,
                                                    Grid3D<float>&, int,
                                                    const RunOptions&);
template RunStats run_block_parallel_into<Grid2D<float>>(
    const TapSet&, const AcceleratorConfig&, const Grid2D<float>&,
    Grid2D<float>&, int, const StoreOp&, const RunOptions&);
template RunStats run_block_parallel_into<Grid3D<float>>(
    const TapSet&, const AcceleratorConfig&, const Grid3D<float>&,
    Grid3D<float>&, int, const StoreOp&, const RunOptions&);

}  // namespace fpga_stencil
