// Static dispatch table of compile-time-specialized stencil kernels.
//
// The paper's throughput comes from baking the stencil's taps, radius,
// and vector width into the generated OpenCL pipeline at synthesis time;
// the host-side analogue is a C++ template (`run_specialized`, kernels/
// run_specialized.hpp) instantiated over the supported envelope
//
//   table  in {star, box, runtime}  x  dims in {2, 3}  x  radius in {1..4}
//                                   x  parvec in {1, 4, 8, 16}
//
// = 96 entries, registered here in a process-lifetime table. `find`
// resolves a (TapSet, AcceleratorConfig) pair structurally: a tap set in
// exactly the canonical star or box order gets that shape's constexpr-
// table entry; any other tap set gets the runtime-table family of its
// (dims, radius, parvec), bound to the set's offsets. Every boundary
// condition but periodic dispatches (the kernels fill ghost margins for
// clamp, reflective and dirichlet). Periodic boundaries, parvec 2,
// radius 5+ and over-long tap lists return null, and the caller falls
// back to the scalar interpreter (`stream_block_generic`), which remains
// the semantic reference.
//
// Matching is structural, not fingerprint-equality: coefficients and the
// boundary condition are runtime data (passed to the kernel per call),
// so one entry serves every coefficient set and boundary of its shape
// point. A runtime-table binding is interned once per distinct offset
// list and lives as long as the registry, so find() results can be
// cached in plans and called directly. The PlanCache still keys plans by
// the full tap fingerprint and caches the resolved `SpecializedKernel*`
// alongside the BlockingPlan.
//
// The registry also picks the instruction set once, when it is built:
// every entry point is the AVX2 instantiation when the CPU supports AVX2,
// the baseline x86-64 one otherwise (and on every other target). Both
// compute the same bits, so the choice only changes speed; the host
// profile records it (HostProfile::kernel_isa) and tuned plans are keyed
// by it.
//
// Every kernel is bit-exact with the interpreter by construction (same
// boundary values, same per-cell accumulation order; see docs/KERNELS.md)
// and tests/kernels_test.cpp verifies each entry on each ISA the CPU
// supports.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernels/run_specialized.hpp"

namespace fpga_stencil {

/// One registered instantiation point of `run_specialized`, or a
/// runtime-table family bound to one tap set's offsets.
struct SpecializedKernel {
  StencilShape shape = StencilShape::kStar;
  int dims = 2;
  int radius = 1;
  int parvec = 1;
  SpecializedKernel2DFn fn_2d = nullptr;  ///< set when dims == 2
  SpecializedKernel3DFn fn_3d = nullptr;  ///< set when dims == 3
  const char* name = "";                   ///< e.g. "star_3d_r4_v16"
  /// The offsets a kTable entry returned by find() runs; null for the
  /// canonical entries and for the unbound families entries() lists.
  const KernelTapTable* table = nullptr;

  /// One pass over the run of `count` consecutive blocks of `plan` from
  /// block `first` (see run_specialized). `coeffs` are in the matched tap
  /// set's order; `bc` is any boundary but periodic; `store` says how
  /// retired cells land in `out`.
  void run_2d(const BlockingPlan& plan, std::int64_t first,
              std::int64_t count, const Grid2D<float>& in, Grid2D<float>& out,
              int steps, const float* coeffs, RunStats& stats,
              const CancellationToken* cancel,
              const BoundaryCondition& bc = {},
              const StoreOp& store = {}) const;
  void run_3d(const BlockingPlan& plan, std::int64_t first,
              std::int64_t count, const Grid3D<float>& in, Grid3D<float>& out,
              int steps, const float* coeffs, RunStats& stats,
              const CancellationToken* cancel,
              const BoundaryCondition& bc = {},
              const StoreOp& store = {}) const;

  /// One block pass: the count-1 run of `blk`, which must be
  /// block_extent(plan, blk.index).
  void run_2d(const BlockingPlan& plan, const BlockExtent& blk,
              const Grid2D<float>& in, Grid2D<float>& out, int steps,
              const float* coeffs, RunStats& stats,
              const CancellationToken* cancel,
              const BoundaryCondition& bc = {},
              const StoreOp& store = {}) const;
  void run_3d(const BlockingPlan& plan, const BlockExtent& blk,
              const Grid3D<float>& in, Grid3D<float>& out, int steps,
              const float* coeffs, RunStats& stats,
              const CancellationToken* cancel,
              const BoundaryCondition& bc = {},
              const StoreOp& store = {}) const;

 private:
  [[nodiscard]] KernelArgs args(const float* coeffs,
                                const BoundaryCondition& bc,
                                const StoreOp& store) const;
};

/// True when `taps` is exactly the canonical star order for its (dims,
/// radius): center first, then per ring i = 1..radius the axis pairs
/// W(-i), E(+i), S(-i), N(+i) [, B(-i), A(+i) in 3D] -- the order
/// StarStencil::to_taps emits.
[[nodiscard]] bool matches_canonical_star(const TapSet& taps);

/// True when `taps` is exactly the canonical box order: all (2r+1)^dims
/// offsets in row-major (dz, dy, dx) ascending order, as make_box_stencil
/// emits.
[[nodiscard]] bool matches_canonical_box(const TapSet& taps);

/// True when this CPU runs code compiled for `isa` (kAvx2: an x86-64 CPU
/// and OS with AVX2 enabled).
[[nodiscard]] bool cpu_supports(KernelIsa isa);

class KernelRegistry {
 public:
  /// Distinct runtime tables interned before find() stops binding new
  /// ones (they then run on the interpreter): bounds the registry in a
  /// long-lived process fed arbitrary tap sets.
  static constexpr std::size_t kMaxBoundTables = 1024;

  KernelRegistry(const KernelRegistry&) = delete;
  KernelRegistry& operator=(const KernelRegistry&) = delete;

  /// The process-wide table. Construction is thread-safe (C++ static
  /// local), the envelope entries are immutable afterwards, and bound
  /// runtime tables are never freed or moved, so handles can be shared
  /// freely across threads and cached in plans.
  [[nodiscard]] static const KernelRegistry& instance();

  /// Resolves the specialized kernel for a (taps, config) pair, or null
  /// when the pair must run on the interpreter. Structural match only --
  /// never inspects coefficients, grid extents, or block sizes.
  [[nodiscard]] const SpecializedKernel* find(
      const TapSet& taps, const AcceleratorConfig& cfg) const;

  /// Exact envelope lookup (tests, benches); kTable returns the unbound
  /// family.
  [[nodiscard]] const SpecializedKernel* lookup(StencilShape shape, int dims,
                                                int radius, int parvec) const;

  [[nodiscard]] std::span<const SpecializedKernel> entries() const {
    return entries_;
  }

  /// The ISA every entry point runs: the widest one cpu_supports().
  [[nodiscard]] KernelIsa isa() const { return isa_; }

 private:
  KernelRegistry();

  void add_entry(StencilShape shape, int dims, int radius, int parvec);

  /// The family bound to `taps`' offsets, interned on first use.
  const SpecializedKernel* bind(const SpecializedKernel& family,
                                const TapSet& taps) const;

  struct Bound {
    SpecializedKernel kernel;
    KernelTapTable table;
  };

  KernelIsa isa_ = cpu_supports(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                                  : KernelIsa::kBaseline;
  std::vector<SpecializedKernel> entries_;
  std::vector<std::string> names_;  ///< owns SpecializedKernel::name storage
  mutable std::mutex bound_mu_;     ///< guards bound_
  mutable std::unordered_multimap<std::uint64_t, std::unique_ptr<Bound>>
      bound_;  ///< keyed by a hash of (family, offsets)
};

namespace kernels_detail {

/// `k` (an entry, bound or not) with the entry points of `isa` instead of
/// the registry's pick: lets tests run every ISA the CPU supports.
[[nodiscard]] SpecializedKernel with_isa(SpecializedKernel k, KernelIsa isa);

}  // namespace kernels_detail

}  // namespace fpga_stencil
