#include "kernels/kernel_registry.hpp"

#include <string>

#include "common/expect.hpp"

namespace fpga_stencil {
namespace {

void fnv_mix(std::uint64_t& h, std::uint64_t value) {
  h ^= value;
  h *= 1099511628211ull;
}

template <StencilShape Shape, int Rad, int Dims, int ParVec>
void set_entry_points(SpecializedKernel& k, KernelIsa isa) {
  constexpr KernelIsa kAvx2 = KernelIsa::kAvx2;
  constexpr KernelIsa kBase = KernelIsa::kBaseline;
  if constexpr (Dims == 2) {
    k.fn_2d = isa == kAvx2 ? &run_specialized<Shape, Rad, 2, ParVec, kAvx2>
                           : &run_specialized<Shape, Rad, 2, ParVec, kBase>;
  } else {
    k.fn_3d = isa == kAvx2 ? &run_specialized<Shape, Rad, 3, ParVec, kAvx2>
                           : &run_specialized<Shape, Rad, 3, ParVec, kBase>;
  }
}

}  // namespace

const char* kernel_isa_name(KernelIsa isa) {
  if (isa == KernelIsa::kAvx2) return "avx2";
#if defined(__x86_64__)
  return "x86-64";
#else
  return "baseline";
#endif
}

bool cpu_supports(KernelIsa isa) {
  if (isa == KernelIsa::kBaseline) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SpecializedKernel kernels_detail::with_isa(SpecializedKernel k,
                                           KernelIsa isa) {
#define FPGASTENCIL_SET_ENTRY_POINTS(SHAPE, RAD, DIMS, PARVEC)             \
  if (k.shape == StencilShape::SHAPE && k.radius == RAD && k.dims == DIMS && \
      k.parvec == PARVEC) {                                                \
    set_entry_points<StencilShape::SHAPE, RAD, DIMS, PARVEC>(k, isa);      \
    return k;                                                              \
  }
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_SET_ENTRY_POINTS, kStar, 2)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_SET_ENTRY_POINTS, kStar, 3)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_SET_ENTRY_POINTS, kBox, 2)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_SET_ENTRY_POINTS, kBox, 3)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_SET_ENTRY_POINTS, kTable, 2)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_SET_ENTRY_POINTS, kTable, 3)
#undef FPGASTENCIL_SET_ENTRY_POINTS
  FPGASTENCIL_EXPECT(false, "with_isa: not an envelope point");
  return k;
}

bool matches_canonical_star(const TapSet& taps) {
  const int dims = taps.dims();
  const int rad = taps.radius();
  const std::vector<Tap>& ts = taps.taps();
  if (ts.size() != std::size_t(1 + 2 * dims * rad)) return false;
  std::size_t t = 0;
  const auto next_is = [&](std::int64_t dx, std::int64_t dy, std::int64_t dz) {
    const Tap& tap = ts[t++];
    return tap.dx == dx && tap.dy == dy && tap.dz == dz;
  };
  if (!next_is(0, 0, 0)) return false;
  for (int i = 1; i <= rad; ++i) {
    if (!next_is(-i, 0, 0) || !next_is(i, 0, 0) || !next_is(0, -i, 0) ||
        !next_is(0, i, 0)) {
      return false;
    }
    if (dims == 3 && (!next_is(0, 0, -i) || !next_is(0, 0, i))) return false;
  }
  return true;
}

bool matches_canonical_box(const TapSet& taps) {
  const int dims = taps.dims();
  const int rad = taps.radius();
  const std::vector<Tap>& ts = taps.taps();
  const std::int64_t side = 2 * std::int64_t(rad) + 1;
  std::int64_t expect = side * side;
  if (dims == 3) expect *= side;
  if (std::int64_t(ts.size()) != expect) return false;
  std::size_t t = 0;
  const int zr = dims == 3 ? rad : 0;
  for (int dz = -zr; dz <= zr; ++dz) {
    for (int dy = -rad; dy <= rad; ++dy) {
      for (int dx = -rad; dx <= rad; ++dx) {
        const Tap& tap = ts[t++];
        if (tap.dx != dx || tap.dy != dy || tap.dz != dz) return false;
      }
    }
  }
  return true;
}

KernelArgs SpecializedKernel::args(const float* coeffs,
                                   const BoundaryCondition& bc,
                                   const StoreOp& store) const {
  FPGASTENCIL_EXPECT(shape != StencilShape::kTable || table != nullptr,
                     "runtime-table kernel called without a bound table");
  FPGASTENCIL_EXPECT(bc.kind != BoundaryKind::periodic,
                     "specialized kernels do not run periodic boundaries");
  FPGASTENCIL_EXPECT(!store.is_add() || store.prev != nullptr,
                     "an add store needs a prev buffer");
  return KernelArgs{coeffs, table, bc, store};
}

void SpecializedKernel::run_2d(const BlockingPlan& plan, std::int64_t first,
                               std::int64_t count, const Grid2D<float>& in,
                               Grid2D<float>& out, int steps,
                               const float* coeffs, RunStats& stats,
                               const CancellationToken* cancel,
                               const BoundaryCondition& bc,
                               const StoreOp& store) const {
  fn_2d(plan, first, count, in, out, steps, args(coeffs, bc, store), stats,
        cancel);
}

void SpecializedKernel::run_3d(const BlockingPlan& plan, std::int64_t first,
                               std::int64_t count, const Grid3D<float>& in,
                               Grid3D<float>& out, int steps,
                               const float* coeffs, RunStats& stats,
                               const CancellationToken* cancel,
                               const BoundaryCondition& bc,
                               const StoreOp& store) const {
  fn_3d(plan, first, count, in, out, steps, args(coeffs, bc, store), stats,
        cancel);
}

void SpecializedKernel::run_2d(const BlockingPlan& plan,
                               const BlockExtent& blk, const Grid2D<float>& in,
                               Grid2D<float>& out, int steps,
                               const float* coeffs, RunStats& stats,
                               const CancellationToken* cancel,
                               const BoundaryCondition& bc,
                               const StoreOp& store) const {
  run_2d(plan, blk.index, 1, in, out, steps, coeffs, stats, cancel, bc, store);
}

void SpecializedKernel::run_3d(const BlockingPlan& plan,
                               const BlockExtent& blk, const Grid3D<float>& in,
                               Grid3D<float>& out, int steps,
                               const float* coeffs, RunStats& stats,
                               const CancellationToken* cancel,
                               const BoundaryCondition& bc,
                               const StoreOp& store) const {
  run_3d(plan, blk.index, 1, in, out, steps, coeffs, stats, cancel, bc, store);
}

void KernelRegistry::add_entry(StencilShape shape, int dims, int radius,
                               int parvec) {
  SpecializedKernel k;
  k.shape = shape;
  k.dims = dims;
  k.radius = radius;
  k.parvec = parvec;
  // names_ is reserved to the envelope size up front, so the c_str()
  // stays stable for the registry's (process) lifetime.
  names_.push_back(std::string(stencil_shape_name(shape)) + "_" +
                   std::to_string(dims) + "d_r" + std::to_string(radius) +
                   "_v" + std::to_string(parvec));
  k.name = names_.back().c_str();
  entries_.push_back(kernels_detail::with_isa(k, isa_));
}

KernelRegistry::KernelRegistry() {
  constexpr std::size_t kEnvelopePoints = 96;
  entries_.reserve(kEnvelopePoints);
  names_.reserve(kEnvelopePoints);
#define FPGASTENCIL_REGISTER_KERNEL(SHAPE, RAD, DIMS, PARVEC) \
  add_entry(StencilShape::SHAPE, DIMS, RAD, PARVEC);
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_REGISTER_KERNEL, kStar, 2)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_REGISTER_KERNEL, kStar, 3)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_REGISTER_KERNEL, kBox, 2)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_REGISTER_KERNEL, kBox, 3)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_REGISTER_KERNEL, kTable, 2)
  FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_REGISTER_KERNEL, kTable, 3)
#undef FPGASTENCIL_REGISTER_KERNEL
}

const KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry registry;
  return registry;
}

const SpecializedKernel* KernelRegistry::find(
    const TapSet& taps, const AcceleratorConfig& cfg) const {
  // Periodic wraps reach planes and columns a block's rolling window
  // never holds; those stay on the interpreter's wrap-extended stream.
  if (cfg.dims != taps.dims() ||
      taps.boundary().kind == BoundaryKind::periodic) {
    return nullptr;
  }
  if (matches_canonical_star(taps)) {
    return lookup(StencilShape::kStar, taps.dims(), taps.radius(), cfg.parvec);
  }
  if (matches_canonical_box(taps)) {
    return lookup(StencilShape::kBox, taps.dims(), taps.radius(), cfg.parvec);
  }
  const SpecializedKernel* family =
      lookup(StencilShape::kTable, taps.dims(), taps.radius(), cfg.parvec);
  if (family == nullptr || taps.size() > std::size_t(kMaxTableTaps)) {
    return nullptr;
  }
  return bind(*family, taps);
}

const SpecializedKernel* KernelRegistry::lookup(StencilShape shape, int dims,
                                                int radius, int parvec) const {
  for (const SpecializedKernel& k : entries_) {
    if (k.shape == shape && k.dims == dims && k.radius == radius &&
        k.parvec == parvec) {
      return &k;
    }
  }
  return nullptr;
}

const SpecializedKernel* KernelRegistry::bind(const SpecializedKernel& family,
                                              const TapSet& taps) const {
  std::uint64_t h = 1469598103934665603ull;
  fnv_mix(h, std::uint64_t(reinterpret_cast<std::uintptr_t>(&family)));
  for (const Tap& t : taps.taps()) {
    fnv_mix(h, std::uint64_t(t.dx));
    fnv_mix(h, std::uint64_t(t.dy));
    fnv_mix(h, std::uint64_t(t.dz));
  }
  const auto same = [&](const Bound& b) {
    if (b.kernel.fn_2d != family.fn_2d || b.kernel.fn_3d != family.fn_3d ||
        b.table.dx.size() != taps.size()) {
      return false;
    }
    for (std::size_t t = 0; t < taps.size(); ++t) {
      const Tap& tap = taps.taps()[t];
      if (b.table.dx[t] != tap.dx || b.table.dy[t] != tap.dy ||
          b.table.dz[t] != tap.dz) {
        return false;
      }
    }
    return true;
  };

  std::lock_guard<std::mutex> lock(bound_mu_);
  const auto [first, last] = bound_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (same(*it->second)) return &it->second->kernel;
  }
  if (bound_.size() >= kMaxBoundTables) return nullptr;
  auto b = std::make_unique<Bound>();
  for (const Tap& t : taps.taps()) {
    b->table.dx.push_back(int(t.dx));
    b->table.dy.push_back(int(t.dy));
    b->table.dz.push_back(int(t.dz));
  }
  b->kernel = family;
  b->kernel.table = &b->table;
  return &bound_.emplace(h, std::move(b))->second->kernel;
}

}  // namespace fpga_stencil
