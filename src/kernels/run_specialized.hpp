// `run_specialized<Shape, Rad, Dims, ParVec, Isa>`: one overlapped block
// pass over a run of consecutive blocks, with the tap table, radius,
// dimensionality, vector width and instruction set baked in at compile
// time. A run's adjacent blocks compute as a few merged tiles, each a
// single block with one halo instead of one per merged block.
//
// This is the host-side analogue of the paper's synthesized pipeline. The
// scalar interpreter (`stream_block_generic`) walks a ring-buffer shift
// register cell by cell with per-tap bounds checks; a specialized kernel
// instead keeps a structure-of-arrays rolling window of planes (3D) /
// rows (2D) per temporal stage (PlanarShiftRegister) and updates each
// output row in ParVec-wide chunks whose lanes live in native-width
// vector registers.
//
// Tap tables come in two kinds. The canonical star and box orders are
// constexpr tables (Shape kStar / kBox): their tap loops have constexpr
// trip counts. Any other tap set runs on a kTable instantiation that
// reads its offsets from a runtime KernelTapTable. Boundaries are a
// ghost-margin fill (clamp, reflective, dirichlet; see
// run_specialized_impl.hpp), so no tap loop carries a border branch.
//
// Every envelope point is instantiated once per KernelIsa, and the
// KernelRegistry picks the widest ISA the CPU supports when it is built.
// Neither ISA fuses multiply+add (the library builds with
// -ffp-contract=off and AVX2 does not imply FMA), and IEEE single-
// precision mul and add round identically at any vector width, so both
// compute the same bits.
//
// Bit-exactness contract (verified per entry and ISA by
// tests/kernels_test.cpp and per boundary by tests/boundary_test.cpp):
// for every cell the accumulation is `acc = c[0]*tap0; acc += c[t]*tapt`
// in the tap set's order, each out-of-grid tap reading exactly the value
// the interpreter's border select-chain picks. Cells no valid output can
// observe are don't-care: a stage computes only the influence cone of
// the block's retired region, and block-edge lanes read padding where the
// interpreter reads wrapped shift-register rows (see docs/KERNELS.md for
// the influence-cone argument that this is sound).
//
// Instantiations for the supported envelope live in star_kernels_*.cpp /
// box_kernels_*.cpp / table_kernels_*.cpp and are reachable through the
// KernelRegistry; this header only declares the template and the
// envelope's extern templates, so including it never re-instantiates
// kernel code.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "stencil/accel_config.hpp"
#include "stencil/store_op.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

template <typename T>
class Grid2D;
template <typename T>
class Grid3D;
class CancellationToken;
struct RunStats;

/// Where a kernel's tap offsets come from: the canonical star or box
/// order (constexpr tables), or a runtime KernelTapTable for any other
/// tap set.
enum class StencilShape { kStar, kBox, kTable };

[[nodiscard]] constexpr const char* stencil_shape_name(StencilShape s) {
  switch (s) {
    case StencilShape::kStar: return "star";
    case StencilShape::kBox: return "box";
    case StencilShape::kTable: return "table";
  }
  return "?";
}

/// Most taps a runtime table may carry: the radius-4 3D box. A longer
/// tap set repeats offsets and runs on the interpreter.
inline constexpr int kMaxTableTaps = 9 * 9 * 9;

/// The tap offsets of a non-canonical tap set, in accumulation order.
struct KernelTapTable {
  std::vector<int> dx, dy, dz;
};

/// The instruction set a kernel's row loop is compiled for: baseline
/// x86-64 (4-lane SSE vectors; the plain build on other targets) or AVX2
/// (8-lane vectors, x86-64 only).
enum class KernelIsa { kBaseline, kAvx2 };

/// "x86-64" ("baseline" on other targets) or "avx2".
[[nodiscard]] const char* kernel_isa_name(KernelIsa isa);

/// What a kernel reads besides the grids.
struct KernelArgs {
  const float* coeffs = nullptr;          ///< one per tap, accumulation order
  const KernelTapTable* table = nullptr;  ///< kTable kernels only
  BoundaryCondition boundary;             ///< clamp, reflective or dirichlet
  StoreOp store;  ///< how the last stage retires each cell into `out`
};

template <int Dims>
using GridOf = std::conditional_t<Dims == 3, Grid3D<float>, Grid2D<float>>;

/// Runs one pass of `steps` (<= cfg.partime) time steps over the run of
/// `count` consecutive blocks of `plan` from block `first` (a whole sync
/// pass is one run; a single block is the count-1 run), storing each
/// block's valid compute region into `out` with `args.store` (and nothing
/// else: neighbouring blocks write the rest of `out` concurrently under
/// block_parallel). The run computes as merged tiles: rectangles of its
/// blocks, each as large as the window budget allows, computed as one
/// block (run_specialized_impl.hpp). Stats accounting matches the
/// interpreter field for field, per plan block (cells_streamed,
/// vectors_processed, block_passes, cells_written), and a non-null
/// `cancel` token is polled once per streamed plane/row of each tile -- at
/// least as often as the interpreter's one-block-time cancellation bound
/// requires. A periodic boundary is a precondition violation (the
/// registry never resolves one to a kernel), and so is an `Isa` the CPU
/// lacks.
template <StencilShape Shape, int Rad, int Dims, int ParVec, KernelIsa Isa>
void run_specialized(const BlockingPlan& plan, std::int64_t first,
                     std::int64_t count, const GridOf<Dims>& in,
                     GridOf<Dims>& out, int steps, const KernelArgs& args,
                     RunStats& stats, const CancellationToken* cancel);

using SpecializedKernel2DFn = void (*)(const BlockingPlan&, std::int64_t,
                                       std::int64_t, const Grid2D<float>&,
                                       Grid2D<float>&, int, const KernelArgs&,
                                       RunStats&, const CancellationToken*);
using SpecializedKernel3DFn = void (*)(const BlockingPlan&, std::int64_t,
                                       std::int64_t, const Grid3D<float>&,
                                       Grid3D<float>&, int, const KernelArgs&,
                                       RunStats&, const CancellationToken*);

// The envelope's explicit instantiations (one TU per shape x dims so a
// change to one family recompiles only that file).
#define FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(X, SHAPE, DIMS) \
  X(SHAPE, 1, DIMS, 1)                                     \
  X(SHAPE, 1, DIMS, 4)                                     \
  X(SHAPE, 1, DIMS, 8)                                     \
  X(SHAPE, 1, DIMS, 16)                                    \
  X(SHAPE, 2, DIMS, 1)                                     \
  X(SHAPE, 2, DIMS, 4)                                     \
  X(SHAPE, 2, DIMS, 8)                                     \
  X(SHAPE, 2, DIMS, 16)                                    \
  X(SHAPE, 3, DIMS, 1)                                     \
  X(SHAPE, 3, DIMS, 4)                                     \
  X(SHAPE, 3, DIMS, 8)                                     \
  X(SHAPE, 3, DIMS, 16)                                    \
  X(SHAPE, 4, DIMS, 1)                                     \
  X(SHAPE, 4, DIMS, 4)                                     \
  X(SHAPE, 4, DIMS, 8)                                     \
  X(SHAPE, 4, DIMS, 16)

/// `template void run_specialized<...>(...);` for one envelope point and
/// ISA: `extern` below, bare in the instantiation TUs.
#define FPGASTENCIL_KERNEL_INSTANCE(SHAPE, RAD, DIMS, PARVEC, ISA)         \
  template void run_specialized<StencilShape::SHAPE, RAD, DIMS, PARVEC,    \
                                KernelIsa::ISA>(                           \
      const BlockingPlan&, std::int64_t, std::int64_t, const GridOf<DIMS>&, \
      GridOf<DIMS>&, int, const KernelArgs&, RunStats&,                    \
      const CancellationToken*);

#define FPGASTENCIL_EXTERN_KERNEL(SHAPE, RAD, DIMS, PARVEC)                \
  extern FPGASTENCIL_KERNEL_INSTANCE(SHAPE, RAD, DIMS, PARVEC, kBaseline) \
  extern FPGASTENCIL_KERNEL_INSTANCE(SHAPE, RAD, DIMS, PARVEC, kAvx2)

FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kStar, 2)
FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kStar, 3)
FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kBox, 2)
FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kBox, 3)
FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kTable, 2)
FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_EXTERN_KERNEL, kTable, 3)

#undef FPGASTENCIL_EXTERN_KERNEL

}  // namespace fpga_stencil
