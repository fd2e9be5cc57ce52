// The specialized kernel subsystem's contract: every KernelRegistry entry
// is bit-exact with the scalar interpreter (the semantic reference), the
// registry gives canonical star/box orders their constexpr-table entries
// and every other tap set a runtime table, off-envelope configurations
// fall back to the interpreter, and dispatch is observable through
// telemetry and the plan cache.
//
// The exactness sweep runs the whole envelope -- star/box x 2D/3D x
// radius 1-4 x parvec {1,4,8,16} -- through StencilAccelerator twice
// (dispatch on / forced interpreter) on grids chosen so every block shape
// occurs: interior blocks, partial tail blocks in each blocked dimension,
// and a tail pass with fewer steps than partime. The runtime-table cases
// run custom tap sets under every non-periodic boundary against the
// reference model on sync and block-parallel. The ISA cases run every
// entry's baseline and AVX2 instantiations (whichever the CPU supports)
// against the interpreter, whichever one the registry picked, with the
// last pass assigning, adding onto a separate grid, and adding onto its
// own output. The run cases check that a pass handed over as one run of
// blocks (computed as merged tiles) matches the same pass as one call per
// block, on every 2D and 3D entry and ISA, including runs that the
// kernels' window budget splits into several tiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>

#include "common/math_util.hpp"
#include "core/block_parallel_accelerator.hpp"
#include "core/stencil_accelerator.hpp"
#include "grid/grid_compare.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/kernel_workspace.hpp"
#include "stencil/box_stencil.hpp"
#include "stencil/reference.hpp"
#include "stencil/star_stencil.hpp"
#include "telemetry/telemetry.hpp"

namespace fpga_stencil {
namespace {

constexpr int kRadii[] = {1, 2, 3, 4};
constexpr int kParvecs[] = {1, 4, 8, 16};

TapSet envelope_taps(StencilShape shape, int dims, int radius,
                     std::uint64_t seed = 99) {
  if (shape == StencilShape::kStar) {
    return StarStencil::make_benchmark(dims, radius, seed).to_taps();
  }
  return make_box_stencil(dims, radius, seed);
}

/// The same taps in reverse order: a non-canonical set.
TapSet reversed(const TapSet& taps) {
  return TapSet(taps.dims(), taps.radius(),
                {taps.taps().rbegin(), taps.taps().rend()});
}

/// Small config with every block-shape stress: bsize_x = 32 is a
/// multiple of every envelope parvec, partime = 2 with the grid sizes
/// below yields interior + partial-tail blocks and (iterations = 3) a
/// short final pass.
AcceleratorConfig envelope_config(int dims, int radius, int parvec,
                                  int partime = 2) {
  AcceleratorConfig cfg;
  cfg.dims = dims;
  cfg.radius = radius;
  cfg.parvec = parvec;
  cfg.partime = partime;
  cfg.bsize_x = 32;
  cfg.bsize_y = dims == 3 ? 2 * partime * radius + 5 : 1;
  return cfg;
}

struct ExactnessResult {
  CompareResult cmp;
  RunStats specialized;
  RunStats generic;
};

ExactnessResult run_both_2d(const TapSet& taps, AcceleratorConfig cfg,
                            std::int64_t nx, std::int64_t ny, int iters) {
  Grid2D<float> a(nx, ny), b(nx, ny);
  a.fill_random(7, -1.0f, 1.0f);
  b = a;
  cfg.use_specialized_kernels = true;
  StencilAccelerator fast(taps, cfg);
  ExactnessResult r;
  r.specialized = fast.run(a, iters);
  cfg.use_specialized_kernels = false;
  StencilAccelerator slow(taps, cfg);
  r.generic = slow.run(b, iters);
  r.cmp = compare_exact(a, b);
  return r;
}

ExactnessResult run_both_3d(const TapSet& taps, AcceleratorConfig cfg,
                            std::int64_t nx, std::int64_t ny, std::int64_t nz,
                            int iters) {
  Grid3D<float> a(nx, ny, nz), b(nx, ny, nz);
  a.fill_random(11, -1.0f, 1.0f);
  b = a;
  cfg.use_specialized_kernels = true;
  StencilAccelerator fast(taps, cfg);
  ExactnessResult r;
  r.specialized = fast.run(a, iters);
  cfg.use_specialized_kernels = false;
  StencilAccelerator slow(taps, cfg);
  r.generic = slow.run(b, iters);
  r.cmp = compare_exact(a, b);
  return r;
}

/// The four per-block RunStats fields kernels and interpreter share.
void expect_block_stats_equal(const RunStats& got, const RunStats& want,
                              const std::string& label) {
  EXPECT_EQ(got.cells_streamed, want.cells_streamed) << label;
  EXPECT_EQ(got.vectors_processed, want.vectors_processed) << label;
  EXPECT_EQ(got.block_passes, want.block_passes) << label;
  EXPECT_EQ(got.cells_written, want.cells_written) << label;
}

void expect_stats_parity(const ExactnessResult& r, const std::string& label) {
  EXPECT_TRUE(r.cmp.identical()) << label << ": " << r.cmp.summary();
  expect_block_stats_equal(r.specialized, r.generic, label);
}

TEST(KernelRegistry, CoversExactlyTheEnvelope) {
  const KernelRegistry& reg = KernelRegistry::instance();
  EXPECT_EQ(reg.entries().size(), 96u);
  for (StencilShape shape :
       {StencilShape::kStar, StencilShape::kBox, StencilShape::kTable}) {
    for (int dims : {2, 3}) {
      for (int rad : kRadii) {
        for (int pv : kParvecs) {
          const SpecializedKernel* k = reg.lookup(shape, dims, rad, pv);
          ASSERT_NE(k, nullptr);
          EXPECT_EQ(k->shape, shape);
          EXPECT_EQ(k->dims, dims);
          EXPECT_EQ(k->radius, rad);
          EXPECT_EQ(k->parvec, pv);
          EXPECT_NE(dims == 2 ? (void*)k->fn_2d : (void*)k->fn_3d, nullptr);
          EXPECT_NE(std::string(k->name).find(stencil_shape_name(shape)),
                    std::string::npos);
          EXPECT_EQ(k->table, nullptr);  // families are unbound
        }
      }
    }
  }
  EXPECT_EQ(reg.lookup(StencilShape::kStar, 2, 5, 4), nullptr);  // radius 5
  EXPECT_EQ(reg.lookup(StencilShape::kStar, 2, 1, 2), nullptr);  // parvec 2
}

TEST(KernelRegistry, FindMatchesCanonicalOrdersOnly) {
  const KernelRegistry& reg = KernelRegistry::instance();
  for (int dims : {2, 3}) {
    for (int rad : kRadii) {
      const TapSet star = envelope_taps(StencilShape::kStar, dims, rad);
      const TapSet box = envelope_taps(StencilShape::kBox, dims, rad);
      EXPECT_TRUE(matches_canonical_star(star));
      EXPECT_FALSE(matches_canonical_box(star));
      EXPECT_TRUE(matches_canonical_box(box));
      EXPECT_FALSE(matches_canonical_star(box));
      const AcceleratorConfig cfg = envelope_config(dims, rad, 4);
      EXPECT_NE(reg.find(star, cfg), nullptr);
      EXPECT_NE(reg.find(box, cfg), nullptr);

      // Same taps, reversed order: a different stencil bit-wise, so it
      // must never match a canonical entry (those hard-code the
      // accumulation order); it resolves to the runtime-table family,
      // bound to its own offsets once.
      const TapSet custom = reversed(star);
      const SpecializedKernel* k = reg.find(custom, cfg);
      ASSERT_NE(k, nullptr);
      EXPECT_EQ(k->shape, StencilShape::kTable);
      EXPECT_EQ(k->dims, dims);
      EXPECT_EQ(k->radius, rad);
      EXPECT_NE(k, reg.find(star, cfg));
      EXPECT_NE(k, reg.lookup(StencilShape::kTable, dims, rad, 4));
      ASSERT_NE(k->table, nullptr);
      ASSERT_EQ(k->table->dx.size(), custom.size());
      EXPECT_EQ(k->table->dx.front(), custom.taps().front().dx);
      EXPECT_EQ(reg.find(custom, cfg), k);

      // Every boundary but periodic dispatches.
      for (const BoundaryCondition bc :
           {BoundaryCondition::reflective(), BoundaryCondition::dirichlet(1)}) {
        EXPECT_EQ(reg.find(star.with_boundary(bc), cfg), reg.find(star, cfg));
        EXPECT_EQ(reg.find(custom.with_boundary(bc), cfg), k);
      }
      const BoundaryCondition wrap = BoundaryCondition::periodic();
      EXPECT_EQ(reg.find(star.with_boundary(wrap), cfg), nullptr);
      EXPECT_EQ(reg.find(custom.with_boundary(wrap), cfg), nullptr);
    }
  }
}

TEST(KernelDispatch, EnvelopeExactness2D) {
  for (StencilShape shape : {StencilShape::kStar, StencilShape::kBox}) {
    for (int rad : kRadii) {
      for (int pv : kParvecs) {
        const AcceleratorConfig cfg = envelope_config(2, rad, pv);
        const TapSet taps = envelope_taps(shape, 2, rad);
        const ExactnessResult r = run_both_2d(taps, cfg, 45, 23, 3);
        expect_stats_parity(r, std::string(stencil_shape_name(shape)) +
                                   " 2D r" + std::to_string(rad) + " v" +
                                   std::to_string(pv));
      }
    }
  }
}

TEST(KernelDispatch, EnvelopeExactness3D) {
  for (StencilShape shape : {StencilShape::kStar, StencilShape::kBox}) {
    for (int rad : kRadii) {
      for (int pv : kParvecs) {
        const AcceleratorConfig cfg = envelope_config(3, rad, pv);
        const TapSet taps = envelope_taps(shape, 3, rad);
        const ExactnessResult r = run_both_3d(taps, cfg, 45, 27, 9, 3);
        expect_stats_parity(r, std::string(stencil_shape_name(shape)) +
                                   " 3D r" + std::to_string(rad) + " v" +
                                   std::to_string(pv));
      }
    }
  }
}

TEST(KernelDispatch, DeepTemporalChainAndPartialTail) {
  // partime 4 with iterations 6: a full 4-step pass then a 2-step tail,
  // halo 16 > radius so the influence-cone bound is exercised away from
  // its tight case.
  AcceleratorConfig cfg = envelope_config(3, 4, 8, 4);
  cfg.bsize_x = 48;
  cfg.bsize_y = 2 * cfg.partime * cfg.radius + 3;
  const TapSet taps = envelope_taps(StencilShape::kStar, 3, 4);
  const ExactnessResult r = run_both_3d(taps, cfg, 52, 40, 11, 6);
  expect_stats_parity(r, "star 3D r4 v8 partime4");
}

/// Runs `taps` over `base` on sync and block-parallel and expects the
/// reference model's bits, with every block on a specialized kernel.
template <typename GridT>
void expect_kernels_match_reference(const TapSet& taps, AcceleratorConfig cfg,
                                    int iters, GridT base,
                                    const std::string& label) {
  Telemetry tel;
  cfg.telemetry = &tel;
  base.fill_random(23, -1.0f, 1.0f);
  GridT want = base;
  reference_run(taps, want, iters);
  GridT sync = base;
  StencilAccelerator(taps, cfg).run(sync, iters);
  const CompareResult s = compare_exact(sync, want);
  EXPECT_TRUE(s.identical()) << label << " sync: " << s.summary();
  GridT par = base;
  RunOptions opts;
  opts.workers = 3;
  (void)run_block_parallel(taps, cfg, par, iters, opts);
  const CompareResult p = compare_exact(par, want);
  EXPECT_TRUE(p.identical()) << label << " block_parallel: " << p.summary();
  EXPECT_GT(tel.metrics().counter("kernels.dispatch_specialized").value(), 0)
      << label;
  EXPECT_EQ(tel.metrics().counter("kernels.dispatch_fallback").value(), 0)
      << label;
}

/// One runtime-table case on grids with ragged tails: no extent is a
/// multiple of the block's compute size or of any envelope parvec.
void expect_table_case(const TapSet& taps, const AcceleratorConfig& cfg,
                       int iters, const std::string& label) {
  ASSERT_EQ(KernelRegistry::instance().find(taps, cfg)->shape,
            StencilShape::kTable)
      << label;
  if (cfg.dims == 2) {
    expect_kernels_match_reference(taps, cfg, iters, Grid2D<float>(45, 23),
                                   label);
  } else {
    expect_kernels_match_reference(taps, cfg, iters,
                                   Grid3D<float>(45, 27, 9), label);
  }
}

TEST(KernelDispatch, RuntimeTablesMatchReferenceOnEveryBoundary) {
  const BoundaryCondition bcs[] = {BoundaryCondition::clamp(),
                                   BoundaryCondition::reflective(),
                                   BoundaryCondition::dirichlet(0.0f),
                                   BoundaryCondition::dirichlet(0.75f)};
  const auto pair = [](Tap a, Tap b) { return TapSet(2, 1, {a, b}); };
  // The FDTD E/H curl halves, a 1-tap scale, and reversed stars.
  const std::vector<std::pair<std::string, TapSet>> sets = {
      {"fdtd_hx", pair({0, 0, 0, -0.5f}, {0, 1, 0, 0.5f})},
      {"fdtd_hy", pair({0, 0, 0, 0.5f}, {1, 0, 0, -0.5f})},
      {"fdtd_ez_x", pair({0, 0, 0, 0.5f}, {-1, 0, 0, -0.5f})},
      {"fdtd_ez_y", pair({0, 0, 0, -0.5f}, {0, -1, 0, 0.5f})},
      {"one_tap_3d", TapSet(3, 1, {Tap{0, 0, 0, -0.9375f}})},
      {"reversed_star_2d_r2",
       reversed(envelope_taps(StencilShape::kStar, 2, 2))},
      {"reversed_star_3d_r3",
       reversed(envelope_taps(StencilShape::kStar, 3, 3))},
  };
  for (const auto& [name, taps] : sets) {
    for (const BoundaryCondition& bc : bcs) {
      for (int pv : kParvecs) {
        expect_table_case(taps.with_boundary(bc),
                          envelope_config(taps.dims(), taps.radius(), pv), 3,
                          name + " " + bc.describe() + " v" +
                              std::to_string(pv));
      }
    }
  }
}

TEST(KernelDispatch, RuntimeTableDeepChainRefillsGhostsPerStage) {
  // partime 4 with iterations 6 (a full pass, then a 2-step tail): every
  // stage's ghost margin must come from that stage's own values.
  const TapSet taps = reversed(envelope_taps(StencilShape::kStar, 3, 2));
  for (const BoundaryCondition& bc :
       {BoundaryCondition::reflective(), BoundaryCondition::dirichlet(0.5f)}) {
    AcceleratorConfig cfg = envelope_config(3, 2, 8, 4);
    cfg.bsize_x = 40;
    cfg.bsize_y = 2 * cfg.partime * cfg.radius + 3;
    expect_table_case(taps.with_boundary(bc), cfg, 6,
                      "reversed star 3D r2 v8 partime4 " + bc.describe());
  }
}

TEST(KernelDispatch, DegenerateExtentsMatchReference) {
  // Extents down to one cell (clamp, dirichlet) or radius + 1 (the
  // reflective minimum): both edges' ghost margins land in one block and
  // the stream-axis source table spans the whole grid.
  for (int rad : kRadii) {
    const TapSet star2 = envelope_taps(StencilShape::kStar, 2, rad);
    const TapSet star3 = envelope_taps(StencilShape::kStar, 3, rad);
    const std::int64_t m = rad + 1;
    for (const BoundaryCondition& bc :
         {BoundaryCondition::clamp(), BoundaryCondition::dirichlet(0.5f),
          BoundaryCondition::reflective()}) {
      const bool mirror = bc.kind == BoundaryKind::reflective;
      const std::int64_t lo = mirror ? m : 1;
      for (const TapSet& taps : {star2, reversed(star2)}) {
        const std::string label = "2D r" + std::to_string(rad) + " " +
                                  bc.describe() + " " +
                                  std::to_string(taps.size()) + " taps";
        const AcceleratorConfig cfg = envelope_config(2, rad, 4);
        for (const auto& [nx, ny] :
             {std::pair{lo, lo}, std::pair{lo, m + 6}, std::pair{m + 6, lo}}) {
          expect_kernels_match_reference(taps.with_boundary(bc), cfg, 3,
                                         Grid2D<float>(nx, ny), label);
        }
      }
      for (const TapSet& taps : {star3, reversed(star3)}) {
        const std::string label = "3D r" + std::to_string(rad) + " " +
                                  bc.describe() + " " +
                                  std::to_string(taps.size()) + " taps";
        const AcceleratorConfig cfg = envelope_config(3, rad, 4);
        expect_kernels_match_reference(taps.with_boundary(bc), cfg, 3,
                                       Grid3D<float>(lo, lo, lo), label);
        expect_kernels_match_reference(taps.with_boundary(bc), cfg, 3,
                                       Grid3D<float>(m + 5, lo, m + 2), label);
      }
    }
  }
}

/// How a sweep's last pass stores: assign, add onto a separate `prev`
/// grid, or add onto the output itself (prev == out).
enum class StoreCase { kAssign, kAddPrev, kAddOut };
constexpr StoreCase kStoreCases[] = {StoreCase::kAssign, StoreCase::kAddPrev,
                                     StoreCase::kAddOut};

const char* store_case_name(StoreCase c) {
  switch (c) {
    case StoreCase::kAssign: return "assign";
    case StoreCase::kAddPrev: return "add prev";
    case StoreCase::kAddOut: return "add onto out";
  }
  return "?";
}

/// The output grid a sweep starts from and the store its last pass uses:
/// `prev` holds the values an add reads; for kAddOut they start in `out`.
template <typename GridT>
StoreOp start_store(StoreCase c, const GridT& prev, GridT& out) {
  out = prev;
  if (c == StoreCase::kAssign) return StoreOp::assign();
  if (c == StoreCase::kAddPrev) {
    std::fill(out.data(), out.data() + out.size(), -7.0f);  // never read
    return StoreOp::add(prev.data());
  }
  return StoreOp::add(out.data());
}

/// How run_kernel_passes hands a pass's blocks to the kernel: one call
/// per block, claimed by one worker or several (block-parallel), or the
/// whole pass as one run call (the sync simulator).
enum class PassCalls { kPerBlock, kOneRun };

/// `iters` steps of `taps` from `in` on `k` alone, pass by pass as the
/// executors run them: every block of the plan reads the current grid and
/// retires its compute region into the next one; the last pass stores into
/// `out` with `store`. Returns the kernel calls' summed stats.
template <typename GridT>
RunStats run_kernel_passes(const SpecializedKernel& k, const TapSet& taps,
                           const AcceleratorConfig& cfg, const GridT& in,
                           GridT& out, int iters, int workers,
                           const StoreOp& store,
                           PassCalls calls = PassCalls::kPerBlock) {
  constexpr bool k3d = std::is_same_v<GridT, Grid3D<float>>;
  // The executors' plan: stage lag resolved from the tap set.
  const AcceleratorConfig resolved = resolve_stage_lag(taps, cfg);
  BlockingPlan plan;
  if constexpr (k3d) {
    plan = make_blocking_plan(resolved, in.nx(), in.ny(), in.nz());
  } else {
    plan = make_blocking_plan(resolved, in.nx(), in.ny());
  }
  std::vector<float> coeffs;
  for (const Tap& t : taps.taps()) coeffs.push_back(t.coeff);
  std::vector<RunStats> stats(std::size_t(std::max(workers, 1)));
  GridT cur = in;
  GridT next = in;
  for (int remaining = iters; remaining > 0;) {
    const int steps = std::min(remaining, cfg.partime);
    remaining -= steps;
    GridT& dst = remaining == 0 ? out : next;
    const StoreOp st = remaining == 0 ? store : StoreOp::assign();
    if (calls == PassCalls::kOneRun) {
      if constexpr (k3d) {
        k.run_3d(plan, 0, plan.total_blocks(), cur, dst, steps, coeffs.data(),
                 stats[0], nullptr, taps.boundary(), st);
      } else {
        k.run_2d(plan, 0, plan.total_blocks(), cur, dst, steps, coeffs.data(),
                 stats[0], nullptr, taps.boundary(), st);
      }
      std::swap(cur, next);
      continue;
    }
    std::atomic<std::int64_t> claim{0};
    const auto worker = [&](RunStats& ws) {
      for (std::int64_t b; (b = claim.fetch_add(1)) < plan.total_blocks();) {
        const BlockExtent blk = block_extent(plan, b);
        if constexpr (k3d) {
          k.run_3d(plan, blk, cur, dst, steps, coeffs.data(), ws, nullptr,
                   taps.boundary(), st);
        } else {
          k.run_2d(plan, blk, cur, dst, steps, coeffs.data(), ws, nullptr,
                   taps.boundary(), st);
        }
      }
    };
    {
      std::vector<std::jthread> helpers;
      for (int w = 1; w < workers; ++w) {
        helpers.emplace_back(worker, std::ref(stats[std::size_t(w)]));
      }
      worker(stats[0]);
    }
    std::swap(cur, next);
  }
  RunStats total;
  for (const RunStats& ws : stats) total.accumulate(ws);
  return total;
}

/// `isa`'s entry for (taps, parvec) against the interpreter's `want` for
/// store case `c`, on one worker and on three.
template <typename GridT>
void expect_isa_matches(KernelIsa isa, const TapSet& taps, int parvec,
                        StoreCase c, const GridT& base, const GridT& prev,
                        const GridT& want) {
  const AcceleratorConfig cfg =
      envelope_config(taps.dims(), taps.radius(), parvec);
  const SpecializedKernel* found = KernelRegistry::instance().find(taps, cfg);
  ASSERT_NE(found, nullptr);
  const SpecializedKernel k = kernels_detail::with_isa(*found, isa);
  for (const int workers : {1, 3}) {
    GridT got;
    const StoreOp store = start_store(c, prev, got);
    run_kernel_passes(k, taps, cfg, base, got, 3, workers, store);
    const CompareResult cmp = compare_exact(got, want);
    EXPECT_TRUE(cmp.identical())
        << found->name << " " << kernel_isa_name(isa) << " "
        << taps.boundary().describe() << " " << store_case_name(c) << " on "
        << workers << " worker(s): " << cmp.summary();
  }
}

/// Every registry entry compiled for `isa` -- star and box on their
/// canonical tables, the runtime-table families on a reversed star --
/// against the interpreter on the tail-stressing grids (partime 2 over
/// three steps: a full pass, then a partial one), under clamp, reflective
/// and dirichlet boundaries, with every store case of the last pass. The
/// interpreter's bits do not depend on parvec, so each tap set runs on it
/// once per op.
void expect_every_entry_exact_on(KernelIsa isa) {
  std::size_t entries = 0;
  for (StencilShape shape :
       {StencilShape::kStar, StencilShape::kBox, StencilShape::kTable}) {
    const bool table = shape == StencilShape::kTable;
    for (int dims : {2, 3}) {
      for (int rad : kRadii) {
        const TapSet canonical =
            envelope_taps(table ? StencilShape::kStar : shape, dims, rad);
        for (const BoundaryCondition& bc :
             {BoundaryCondition::clamp(), BoundaryCondition::reflective(),
              BoundaryCondition::dirichlet(0.75f)}) {
          const TapSet taps =
              (table ? reversed(canonical) : canonical).with_boundary(bc);
          AcceleratorConfig interp = envelope_config(dims, rad, 1);
          interp.use_specialized_kernels = false;
          const auto sweep = [&](auto base) {
            base.fill_random(31, -1.0f, 1.0f);
            auto prev = base;
            prev.fill_random(32, -1.0f, 1.0f);
            // Both add cases store prev + result from the same prev values.
            auto want_assign = base;
            auto want_add = prev;
            StencilAccelerator interpreter(taps, interp);
            interpreter.run_into(base, want_assign, 3, StoreOp::assign());
            interpreter.run_into(base, want_add, 3, StoreOp::add(prev.data()));
            for (int pv : kParvecs) {
              for (const StoreCase c : kStoreCases) {
                expect_isa_matches(
                    isa, taps, pv, c, base, prev,
                    c == StoreCase::kAssign ? want_assign : want_add);
              }
            }
          };
          if (dims == 2) {
            sweep(Grid2D<float>(45, 23));
          } else {
            sweep(Grid3D<float>(45, 27, 9));
          }
        }
        entries += std::size(kParvecs);
      }
    }
  }
  EXPECT_EQ(entries, KernelRegistry::instance().entries().size());
}

TEST(KernelIsa, RegistryPicksTheWidestSupportedIsa) {
  EXPECT_TRUE(cpu_supports(KernelIsa::kBaseline));
  const KernelIsa want = cpu_supports(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                                        : KernelIsa::kBaseline;
  EXPECT_EQ(KernelRegistry::instance().isa(), want);
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx2), "avx2");
  // The two instantiations are distinct code, so the parity sweeps below
  // really run both.
  const SpecializedKernel& k = KernelRegistry::instance().entries().front();
  EXPECT_NE(kernels_detail::with_isa(k, KernelIsa::kBaseline).fn_2d,
            kernels_detail::with_isa(k, KernelIsa::kAvx2).fn_2d);
}

TEST(KernelIsa, BaselineEntriesMatchInterpreter) {
  expect_every_entry_exact_on(KernelIsa::kBaseline);
}

TEST(KernelIsa, Avx2EntriesMatchInterpreter) {
  if (!cpu_supports(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "this CPU lacks AVX2, so the AVX2 row loop cannot run "
                    "here; kernels_no_fma still checks its code";
  }
  expect_every_entry_exact_on(KernelIsa::kAvx2);
}

/// The ISAs this CPU runs.
std::vector<KernelIsa> supported_isas() {
  std::vector<KernelIsa> isas;
  for (const KernelIsa isa : {KernelIsa::kBaseline, KernelIsa::kAvx2}) {
    if (cpu_supports(isa)) isas.push_back(isa);
  }
  return isas;
}

/// `taps`, which the registry gives `shape` entries, on `interp`'s block
/// geometry, `iters` steps from `base`: at every parvec and on every ISA
/// the CPU supports, each pass as one run call `==` the same pass as one
/// call per block `==` the interpreter, with equal RunStats, for each of
/// `stores` (add cases add onto `prev`). The interpreter's bits do not
/// depend on parvec or ISA, so it runs once per op.
template <typename GridT>
void expect_runs_match(const TapSet& taps, StencilShape shape,
                       AcceleratorConfig interp, int iters, const GridT& base,
                       const GridT& prev, std::span<const StoreCase> stores,
                       const std::string& where) {
  interp.use_specialized_kernels = false;
  StencilAccelerator interpreter(taps, interp);
  const auto has = [&](bool add) {
    return std::any_of(stores.begin(), stores.end(), [&](StoreCase c) {
      return (c != StoreCase::kAssign) == add;
    });
  };
  GridT want_assign = base;
  GridT want_add = prev;
  RunStats want_stats;
  if (has(false)) {
    want_stats =
        interpreter.run_into(base, want_assign, iters, StoreOp::assign());
  }
  if (has(true)) {
    want_stats = interpreter.run_into(base, want_add, iters,
                                      StoreOp::add(prev.data()));
  }
  for (int pv : kParvecs) {
    AcceleratorConfig cfg = interp;
    cfg.parvec = pv;
    cfg.use_specialized_kernels = true;
    const SpecializedKernel* found = KernelRegistry::instance().find(taps, cfg);
    ASSERT_NE(found, nullptr) << where;
    ASSERT_EQ(found->shape, shape) << where;
    for (const KernelIsa isa : supported_isas()) {
      const SpecializedKernel k = kernels_detail::with_isa(*found, isa);
      for (const StoreCase c : stores) {
        const std::string label = std::string(found->name) + " " +
                                  kernel_isa_name(isa) + " " +
                                  store_case_name(c) + " " + where;
        GridT run_out, block_out;
        const StoreOp run_store = start_store(c, prev, run_out);
        const StoreOp block_store = start_store(c, prev, block_out);
        const RunStats run_stats = run_kernel_passes(
            k, taps, cfg, base, run_out, iters, 1, run_store,
            PassCalls::kOneRun);
        const RunStats block_stats = run_kernel_passes(
            k, taps, cfg, base, block_out, iters, 1, block_store);
        const CompareResult vs_blocks = compare_exact(run_out, block_out);
        EXPECT_TRUE(vs_blocks.identical())
            << label << " run vs one-block: " << vs_blocks.summary();
        const CompareResult vs_interp = compare_exact(
            block_out, c == StoreCase::kAssign ? want_assign : want_add);
        EXPECT_TRUE(vs_interp.identical())
            << label << " one-block vs interpreter: " << vs_interp.summary();
        expect_block_stats_equal(run_stats, block_stats,
                                 label + " run vs one-block");
        // The interpreter streamed one-cell vectors.
        RunStats want_at_pv = want_stats;
        want_at_pv.vectors_processed = want_stats.cells_streamed / pv;
        expect_block_stats_equal(block_stats, want_at_pv,
                                 label + " one-block vs interpreter");
      }
    }
  }
}

/// The tap set of registry family `shape` at (dims, rad) under `bc`: the
/// canonical star or box, or a reversed star for the runtime tables.
TapSet family_taps(StencilShape shape, int dims, int rad,
                   const BoundaryCondition& bc) {
  const bool table = shape == StencilShape::kTable;
  const TapSet canonical =
      envelope_taps(table ? StencilShape::kStar : shape, dims, rad);
  return (table ? reversed(canonical) : canonical).with_boundary(bc);
}

constexpr StencilShape kShapes[] = {StencilShape::kStar, StencilShape::kBox,
                                    StencilShape::kTable};
const BoundaryCondition kKernelBoundaries[] = {
    BoundaryCondition::clamp(), BoundaryCondition::reflective(),
    BoundaryCondition::dirichlet(0.75f)};

std::string partime_grid_label(const BoundaryCondition& bc, int partime,
                               std::int64_t nx, std::int64_t ny,
                               std::int64_t nz = 1) {
  std::string s = bc.describe() + " partime " + std::to_string(partime) +
                  " " + std::to_string(nx) + "x" + std::to_string(ny);
  return nz > 1 ? s + "x" + std::to_string(nz) : s;
}

/// Every 2D registry entry -- star and box on their canonical tables, the
/// runtime-table families on a reversed star -- on every ISA the CPU
/// supports: a pass as one run call `==` one call per block `==` the
/// interpreter (expect_runs_match). Partime 1-4, each with a short last
/// pass (2p - 1 steps), on a grid of many blocks with a ragged last one
/// and on a grid narrower than one block, under clamp, reflective and
/// dirichlet, with every store case of the last pass.
TEST(KernelRuns, RunCallsMatchOneBlockCallsAndInterpreter) {
  std::size_t entries = 0;
  for (const StencilShape shape : kShapes) {
    for (int rad : kRadii) {
      entries += std::size(kParvecs);
      for (const BoundaryCondition& bc : kKernelBoundaries) {
        const TapSet taps = family_taps(shape, 2, rad, bc);
        for (int partime = 1; partime <= 4; ++partime) {
          const int iters = partime == 1 ? 2 : 2 * partime - 1;
          AcceleratorConfig interp = envelope_config(2, rad, 1, partime);
          interp.bsize_x = round_up<std::int64_t>(2 * partime * rad + 8, 16);
          const std::int64_t csize = interp.csize_x();
          for (const auto& [nx, ny] : {std::pair{5 * csize + csize / 2 + 1, 11},
                                       std::pair{std::int64_t(rad) + 2, 9}}) {
            Grid2D<float> base(nx, ny);
            base.fill_random(41, -1.0f, 1.0f);
            Grid2D<float> prev = base;
            prev.fill_random(42, -1.0f, 1.0f);
            expect_runs_match(taps, shape, interp, iters, base, prev,
                              kStoreCases,
                              partime_grid_label(bc, partime, nx, ny));
          }
        }
      }
    }
  }
  // Every 2D entry: half the registry.
  EXPECT_EQ(2 * entries, KernelRegistry::instance().entries().size());
}

/// The 3D twin: every 3D registry entry on every ISA the CPU supports,
/// partime 1-4 each with a short last pass, on a grid of 3x3 blocks with
/// ragged last blocks in x and y and on a grid narrower than one block in
/// both, where a run computes its blocks as one merged tile. The boundary
/// and the last pass's store op rotate with partime, so every entry meets
/// clamp, reflective and dirichlet and every store case while the
/// interpreter runs one op per tap set, partime and grid.
TEST(KernelRuns, Runs3DMatchOneBlockCallsAndInterpreter) {
  std::size_t entries = 0;
  for (const StencilShape shape : kShapes) {
    for (int rad : kRadii) {
      entries += std::size(kParvecs);
      for (int partime = 1; partime <= 4; ++partime) {
        const BoundaryCondition& bc = kKernelBoundaries[(partime + rad) % 3];
        const StoreCase store = kStoreCases[(partime + int(shape)) % 3];
        const TapSet taps = family_taps(shape, 3, rad, bc);
        const int iters = partime == 1 ? 2 : 2 * partime - 1;
        AcceleratorConfig interp = envelope_config(3, rad, 1, partime);
        interp.bsize_x = round_up<std::int64_t>(2 * partime * rad + 8, 16);
        interp.bsize_y = 2 * partime * rad + rad + 3;
        const std::int64_t cx = interp.csize_x(), cy = interp.csize_y();
        const std::int64_t narrow = rad + 2;
        for (const auto& [nx, ny, nz] :
             {std::tuple{2 * cx + cx / 2 + 1, 2 * cy + cy / 2 + 1,
                         std::int64_t(rad) + 3},
              std::tuple{narrow, narrow, narrow}}) {
          Grid3D<float> base(nx, ny, nz);
          base.fill_random(44, -1.0f, 1.0f);
          Grid3D<float> prev = base;
          prev.fill_random(45, -1.0f, 1.0f);
          expect_runs_match(taps, shape, interp, iters, base, prev,
                            std::span<const StoreCase>(&store, 1),
                            partime_grid_label(bc, partime, nx, ny, nz));
        }
      }
    }
  }
  // Every 3D entry: the other half.
  EXPECT_EQ(2 * entries, KernelRegistry::instance().entries().size());
}

/// Floats of windows a merged tile may keep live (kRunWindowBudget).
constexpr std::size_t kWindowBudget = 256 * 1024 / sizeof(float);

/// `iters` steps of `taps` from `base` on the registry's kernel, each pass
/// one run call, on a fresh thread: the same bits and RunStats as one call
/// per block and the reference's bits, with every pass counting the plan's
/// `plan_blocks` blocks. Returns the floats the thread's kernel workspace
/// grew to -- the largest tile's windows plus its dirichlet ghost plane.
template <typename GridT>
std::size_t expect_run_exact(const TapSet& taps, const AcceleratorConfig& cfg,
                             const GridT& base, int iters,
                             std::int64_t plan_blocks,
                             const std::string& label) {
  GridT want = base;
  reference_run(taps, want, iters);
  const SpecializedKernel* k = KernelRegistry::instance().find(taps, cfg);
  EXPECT_NE(k, nullptr) << label;
  if (k == nullptr) return 0;
  GridT run_out = base, block_out = base;
  RunStats run_stats;
  std::size_t slab = 0;
  std::jthread([&] {
    run_stats = run_kernel_passes(*k, taps, cfg, base, run_out, iters, 1,
                                  StoreOp::assign(), PassCalls::kOneRun);
    slab = tls_kernel_workspace().slab_cells();
  }).join();
  const RunStats block_stats = run_kernel_passes(
      *k, taps, cfg, base, block_out, iters, 1, StoreOp::assign());
  EXPECT_TRUE(compare_exact(run_out, want).identical()) << label;
  EXPECT_TRUE(compare_exact(block_out, want).identical()) << label;
  expect_block_stats_equal(run_stats, block_stats, label);
  const std::int64_t passes = (iters + cfg.partime - 1) / cfg.partime;
  EXPECT_EQ(run_stats.block_passes, passes * plan_blocks) << label;
  return slab;
}

TEST(KernelRuns, RunsPastTheWindowBudgetSplitExact) {
  // Every case ends on a 1-step pass. A tile of `steps` stages keeps
  // steps * (2r + 1) window planes plus one ghost plane, so a pass that
  // splits grows the workspace past one block's windows but at most to
  // the budget plus one plane (at most a (2r + 1)-th of it), and a block
  // past the budget runs alone: the workspace holds exactly its windows
  // and ghost plane.
  const auto one_block = [](const AcceleratorConfig& cfg) {
    const std::int64_t plane =
        (cfg.bsize_x + 2 * cfg.radius) *
        (cfg.dims == 3 ? cfg.bsize_y + 2 * cfg.radius : 1);
    return std::size_t((cfg.partime * (2 * cfg.radius + 1) + 1) * plane);
  };
  const auto expect_split = [&](std::size_t slab, const AcceleratorConfig& cfg,
                                const std::string& label) {
    EXPECT_GT(slab, one_block(cfg)) << label << ": no blocks merged";
    EXPECT_LE(slab, kWindowBudget + kWindowBudget / (2 * cfg.radius + 1))
        << label << ": a tile's windows outgrew the budget";
  };

  // 2D, radius 4. bsize_x 4096 at partime 8: one block's windows (8
  // stages of 9 rows of 4104 floats, 1.2 MB) exceed the budget, so each
  // block runs alone. bsize_x 512 at partime 4: a tile of three blocks
  // fits, so a seven-block pass splits into tiles of 2, 2 and 3 blocks.
  const TapSet taps2 = envelope_taps(StencilShape::kStar, 2, 4)
                           .with_boundary(BoundaryCondition::reflective());
  for (const auto& [bsize, partime, blocks] :
       {std::tuple{4096, 8, 3}, std::tuple{512, 4, 7}}) {
    AcceleratorConfig cfg = envelope_config(2, 4, 16, partime);
    cfg.bsize_x = bsize;
    Grid2D<float> base((blocks - 1) * cfg.csize_x() + 37, 10);
    base.fill_random(43, -1.0f, 1.0f);
    const std::string label = "2D bsize_x " + std::to_string(bsize);
    const std::size_t slab =
        expect_run_exact(taps2, cfg, base, partime + 1, blocks, label);
    if (bsize == 4096) {
      EXPECT_EQ(slab, one_block(cfg)) << label;
    } else {
      expect_split(slab, cfg, label);
    }
  }

  // 3D, radius 1, dirichlet. 32x32 blocks at partime 2 on 5x5 blocks: a
  // whole block-row fits but only two rows of it, so the 2-step pass
  // splits into tiles of 1, 2 and 2 block-rows. 160x144 blocks at partime
  // 4: even the 1-step pass's windows of one block (3 planes of 162x146
  // floats, 277 KiB) exceed the budget, so each of the 2x2 blocks runs
  // alone.
  const TapSet taps3 = envelope_taps(StencilShape::kStar, 3, 1)
                           .with_boundary(BoundaryCondition::dirichlet(0.25f));
  for (const auto& [bx, by, partime] :
       {std::tuple{32, 32, 2}, std::tuple{160, 144, 4}}) {
    AcceleratorConfig cfg = envelope_config(3, 1, 8, partime);
    cfg.bsize_x = bx;
    cfg.bsize_y = by;
    const bool alone = bx == 160;
    const std::int64_t blocks = alone ? 2 : 5;
    Grid3D<float> base((blocks - 1) * cfg.csize_x() + 13,
                       (blocks - 1) * cfg.csize_y() + 11, 6);
    base.fill_random(46, -1.0f, 1.0f);
    const std::string label =
        "3D " + std::to_string(bx) + "x" + std::to_string(by);
    const std::size_t slab =
        expect_run_exact(taps3, cfg, base, partime + 1, blocks * blocks,
                         label);
    if (alone) {
      EXPECT_EQ(slab, one_block(cfg)) << label;
    } else {
      expect_split(slab, cfg, label);
    }
  }
}

TEST(KernelRuns, SyncPassTicksDispatchOncePerBlock) {
  // A sync pass is one run call, but the dispatch counters still count
  // blocks: 200 columns at csize 28 are 8 blocks, and 3 steps at partime
  // 2 are 2 passes.
  for (const bool specialized : {true, false}) {
    AcceleratorConfig cfg = envelope_config(2, 1, 4);
    cfg.use_specialized_kernels = specialized;
    Telemetry tel;
    cfg.telemetry = &tel;
    Grid2D<float> g(200, 20);
    g.fill_random(3);
    const RunStats stats =
        StencilAccelerator(envelope_taps(StencilShape::kStar, 2, 1), cfg)
            .run(g, 3);
    EXPECT_EQ(stats.block_passes, 16);
    EXPECT_EQ(tel.metrics().counter("kernels.dispatch_specialized").value(),
              specialized ? 16 : 0);
    EXPECT_EQ(tel.metrics().counter("kernels.dispatch_fallback").value(),
              specialized ? 0 : 16);
  }
}

TEST(KernelDispatch, OffEnvelopeFallsBackBitExact) {
  // parvec 2 is off-envelope: both runs take the interpreter, results
  // identical, and telemetry shows fallback dispatches only.
  AcceleratorConfig cfg = envelope_config(2, 2, 2);
  Telemetry tel;
  cfg.telemetry = &tel;
  const TapSet taps = envelope_taps(StencilShape::kStar, 2, 2);
  EXPECT_EQ(KernelRegistry::instance().find(taps, cfg), nullptr);
  const ExactnessResult r = run_both_2d(taps, cfg, 45, 23, 3);
  expect_stats_parity(r, "star 2D r2 v2 (off-envelope)");
  EXPECT_GT(tel.metrics().counter("kernels.dispatch_fallback").value(), 0);
  EXPECT_EQ(tel.metrics().counter("kernels.dispatch_specialized").value(), 0);
}

TEST(KernelDispatch, TelemetryCountsSpecializedDispatch) {
  AcceleratorConfig cfg = envelope_config(2, 1, 4);
  Telemetry tel;
  cfg.telemetry = &tel;
  const TapSet taps = envelope_taps(StencilShape::kStar, 2, 1);
  Grid2D<float> g(40, 20);
  g.fill_random(3);
  StencilAccelerator accel(taps, cfg);
  (void)accel.run(g, 2);
  EXPECT_GT(tel.metrics().counter("kernels.dispatch_specialized").value(), 0);
  EXPECT_EQ(tel.metrics().counter("kernels.dispatch_fallback").value(), 0);
  // Per-kernel throughput gauge was published under the kernel's name.
  EXPECT_GE(tel.metrics().gauge("kernels.star_2d_r1_v4.cells_per_s").value(),
            0);
}

TEST(KernelDispatch, BlockParallelUsesSpecializedPathBitExact) {
  AcceleratorConfig cfg = envelope_config(3, 2, 4);
  const TapSet taps = envelope_taps(StencilShape::kStar, 3, 2);
  Grid3D<float> sync_grid(45, 27, 9), par_grid(45, 27, 9);
  sync_grid.fill_random(5, -1.0f, 1.0f);
  par_grid = sync_grid;

  StencilAccelerator accel(taps, cfg);
  (void)accel.run(sync_grid, 3);

  RunOptions opts;
  opts.workers = 3;
  (void)run_block_parallel(taps, cfg, par_grid, 3, opts);

  const CompareResult cmp = compare_exact(sync_grid, par_grid);
  EXPECT_TRUE(cmp.identical()) << cmp.summary();
}

TEST(KernelDispatch, CancellationAbortsSpecializedBlock) {
  AcceleratorConfig cfg = envelope_config(3, 2, 8);
  const TapSet taps = envelope_taps(StencilShape::kStar, 3, 2);
  Grid3D<float> g(45, 27, 9);
  g.fill_random(13);
  const Grid3D<float> before = g;

  const CancellationToken token = CancellationToken::make();
  token.request_cancel();
  StencilAccelerator accel(taps, cfg);
  EXPECT_THROW(accel.run(g, 2, nullptr, &token), CancelledError);
  // The aborted pass never published: the grid still holds the input.
  const CompareResult cmp = compare_exact(g, before);
  EXPECT_TRUE(cmp.identical()) << cmp.summary();
}

}  // namespace
}  // namespace fpga_stencil
