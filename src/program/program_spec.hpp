// Stencil program IR: multi-field DAGs with boundary conditions
// (docs/PROGRAMS.md).
//
// A ProgramSpec names a set of grid fields -- each with its own initial
// data and BoundaryCondition -- and a DAG of KernelNodes, each applying
// one tap set to one field and combining the result into another. The
// program advances all fields together for `steps` timesteps; within a
// step the nodes run in a deterministic topological order of the
// explicit `after` edges. This is the vocabulary coupled multi-field
// workloads (FDTD E/H updates, damped wave equations) submit through the
// one front door: JobSpec carries a shared_ptr<const ProgramSpec> and
// StencilEngine / EngineCluster execute it via ProgramExecutor.
//
// Semantics per timestep (the contract ProgramExecutor and the golden
// reference model both implement, bit-for-bit):
//   - every field has a `front` buffer: its state at the start of the
//     step, immutable until the step ends;
//   - a node writing field f targets f's `back` buffer. The first writer
//     initializes it (assign: back = result; add: back = front + result,
//     elementwise in index order); later writers must be `add` and do
//     back += result;
//   - a node reading field f reads back(f) when it transitively depends
//     (via `after`) on a writer of f this step, else front(f);
//   - at the end of the step every written field swaps back into front.
// Validation (ProgramSpec::validate) rejects every program whose result
// would depend on scheduling tie-breaks rather than declared edges.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "grid/grid.hpp"
#include "stencil/accel_config.hpp"
#include "stencil/store_op.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

/// Either grid dimensionality, by value. Engine jobs and program fields
/// work on whichever alternative is held; cfg.dims must agree.
using GridVariant = std::variant<Grid2D<float>, Grid3D<float>>;

/// Extents of whichever grid the variant holds (nz == 1 for 2D).
[[nodiscard]] std::int64_t grid_variant_nx(const GridVariant& g);
[[nodiscard]] std::int64_t grid_variant_ny(const GridVariant& g);
[[nodiscard]] std::int64_t grid_variant_nz(const GridVariant& g);
[[nodiscard]] int grid_variant_dims(const GridVariant& g);
[[nodiscard]] std::int64_t grid_variant_cells(const GridVariant& g);
[[nodiscard]] const float* grid_variant_data(const GridVariant& g);

/// One named grid the program evolves.
struct FieldSpec {
  std::string name;
  /// Initial state; the extents are the field's shape for the whole run.
  GridVariant data;
  /// Resolves every out-of-grid tap of every node that reads this field;
  /// stamped onto the node's TapSet before planning, so fingerprints and
  /// PlanCache keys carry it.
  BoundaryCondition boundary{};
  /// Scratch field: participates in the computation but is excluded from
  /// chunked result delivery (JobSpec::sink). Still returned in
  /// JobResult::fields.
  bool work = false;
};

/// One stencil application: read one field through a tap set, combine the
/// result into another (possibly the same) field.
struct KernelNode {
  std::string name;
  /// The stencil. Its BoundaryCondition is ignored as written -- the read
  /// field's boundary is stamped on before planning (stamped_taps()).
  TapSet taps;
  /// Per-node accelerator geometry (dims must match the fields').
  AcceleratorConfig config;
  std::string reads;   ///< input field name
  std::string writes;  ///< output field name
  /// How the result lands in the output field's back buffer: assign
  /// (back = result; at most one per field per step, first) or add
  /// (back += result; back = front + result for the first writer).
  CombineOp combine = CombineOp::assign;
  /// Fused time steps of this node per program step (the temporal-blocking
  /// depth handed to the backend); usually 1 for coupled systems.
  int iterations = 1;
  /// Nodes that must complete earlier in the same step (DAG edges).
  std::vector<std::string> after;
};

/// A validated multi-field stencil program.
struct ProgramSpec {
  std::vector<FieldSpec> fields;
  std::vector<KernelNode> nodes;
  /// Program timesteps: every node runs once per step (in DAG order).
  int steps = 1;

  [[nodiscard]] const FieldSpec* find_field(std::string_view name) const;
  [[nodiscard]] int field_index(std::string_view name) const;  ///< -1 if absent
  [[nodiscard]] int node_index(std::string_view name) const;   ///< -1 if absent
  /// Dimensionality of the program (all fields agree; validated).
  [[nodiscard]] int dims() const;

  /// Node `i`'s taps with the read field's BoundaryCondition stamped on --
  /// the tap set that is actually planned and executed.
  [[nodiscard]] TapSet stamped_taps(std::size_t i) const;

  /// Full structural validation; throws ConfigError with a message naming
  /// the offending field/node on the first violation. Checks: non-empty
  /// unique names, known field references, dims/extent agreement, acyclic
  /// `after` edges, writer ordering (all writers of one field totally
  /// ordered by the dependency relation; at most one assign writer and it
  /// precedes every add), reader determinism (a reader that depends on one
  /// writer is ordered against all of them), work fields never read before
  /// a depended-on write, and reflective fields with extents > radius.
  void validate() const;

  /// Deterministic topological order of `nodes` (Kahn's algorithm, ties
  /// broken by declaration index). Throws ConfigError on a cycle.
  [[nodiscard]] std::vector<std::size_t> schedule() const;

  /// closure[i][j]: node i transitively depends on node j via `after`.
  /// Drives read-front-vs-back resolution and the validation rules above.
  [[nodiscard]] std::vector<std::vector<bool>> dependency_closure() const;

  /// Program identity: FNV over the field shapes/boundaries and the DAG
  /// of node fingerprints (taps + geometry + edges). The PlanCache key of
  /// the whole program, and what EngineCluster routes program jobs by.
  /// Deliberately excludes `steps` and field *values*, mirroring how
  /// single-stencil route keys exclude iterations and grid contents.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Adapter collapsing the classic single-stencil job shape onto the
/// program IR: one field ("u", carrying the tap set's own boundary
/// condition), one assign node ("stencil") reading and writing it with
/// all `iterations` fused, one program step. Running this program is
/// equivalent (bit-for-bit) to the corresponding direct run -- the
/// equivalence test in tests/program_test.cpp pins it.
[[nodiscard]] ProgramSpec single_stencil_program(TapSet taps,
                                                 AcceleratorConfig config,
                                                 GridVariant grid,
                                                 int iterations);

namespace detail {

/// Elementwise combine of one node's result into a field's back buffer,
/// as the reference model applies it. ProgramExecutor stores the same
/// thing per retired cell instead (StoreOp: one add, prev first), with
/// no separate pass. `initialized` says whether an earlier writer already
/// populated `back` this step; `front` is the step-start state (used by
/// the first `add`).
void combine_field(CombineOp op, bool initialized, const float* front,
                   const float* result, float* back, std::int64_t cells);

/// For each node: whether it reads its input field's back buffer (it
/// transitively depends on a writer of that field this step) rather than
/// front. Shared by ProgramExecutor and the reference model so both
/// resolve reads identically.
[[nodiscard]] std::vector<bool> reads_back_flags(const ProgramSpec& program);

}  // namespace detail

}  // namespace fpga_stencil
