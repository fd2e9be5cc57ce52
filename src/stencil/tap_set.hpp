// Generic stencil tap sets.
//
// The paper's architecture is presented for star stencils, but nothing in
// the deep-pipeline design is star-specific: any stencil whose taps fit in
// the shift-register window streams the same way (related work [19]
// accelerates a first-order 3D *cubic* stencil on the same architecture).
// A TapSet is the generalization: an *ordered* list of (offset,
// coefficient) taps. The order is the floating-point accumulation order --
// part of the contract, because the library's executors must agree
// bit-for-bit.
//
// StarStencil lowers to a TapSet in its canonical order; BoxStencil emits
// row-major offset order. The ProcessingElement executes any TapSet whose
// offsets are bounded by its radius.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expect.hpp"

namespace fpga_stencil {

struct Tap {
  std::int64_t dx = 0;
  std::int64_t dy = 0;
  std::int64_t dz = 0;
  float coeff = 0.0f;
};

/// How a tap that reaches outside the grid resolves (docs/PROGRAMS.md).
/// The boundary condition is part of the *stencil*, not the executor: it
/// travels on the TapSet so fingerprints, plan-cache keys, and routing
/// all see it. `clamp` is the paper's generated-code behavior and the
/// default everywhere -- a clamp tap set fingerprints exactly as it did
/// before boundary conditions existed, so warm TuningCache / PlanCache
/// entries survive the upgrade.
enum class BoundaryKind : std::uint8_t {
  clamp = 0,      ///< out-of-grid coordinates clamp per axis (paper default)
  periodic = 1,   ///< coordinates wrap modulo the grid extents
  reflective = 2, ///< mirror about the boundary cell: -k -> k, n-1+k -> n-1-k
  dirichlet = 3,  ///< out-of-grid taps read a fixed value
};

[[nodiscard]] constexpr const char* boundary_kind_name(BoundaryKind k) {
  switch (k) {
    case BoundaryKind::clamp: return "clamp";
    case BoundaryKind::periodic: return "periodic";
    case BoundaryKind::reflective: return "reflective";
    case BoundaryKind::dirichlet: return "dirichlet";
  }
  return "?";
}

/// A boundary condition: the kind plus, for dirichlet, the ghost value
/// every out-of-grid tap reads. The value is ignored (and kept at 0) for
/// the other kinds so value-identity comparisons stay trivial.
struct BoundaryCondition {
  BoundaryKind kind = BoundaryKind::clamp;
  float value = 0.0f;  ///< dirichlet ghost value; 0 otherwise

  [[nodiscard]] static BoundaryCondition clamp() { return {}; }
  [[nodiscard]] static BoundaryCondition periodic() {
    return {BoundaryKind::periodic, 0.0f};
  }
  [[nodiscard]] static BoundaryCondition reflective() {
    return {BoundaryKind::reflective, 0.0f};
  }
  [[nodiscard]] static BoundaryCondition dirichlet(float v) {
    return {BoundaryKind::dirichlet, v};
  }

  [[nodiscard]] bool is_clamp() const { return kind == BoundaryKind::clamp; }
  bool operator==(const BoundaryCondition&) const = default;

  /// "clamp", "periodic", "reflective", or "dirichlet(<value>)" -- the
  /// describe() vocabulary job labels and docs use.
  [[nodiscard]] std::string describe() const;
};

/// Ordered stencil taps. The first tap is conventionally the center, but
/// any shape is legal as long as offsets are within +-radius per axis.
class TapSet {
 public:
  /// `radius` bounds |dx|, |dy|, |dz| of every tap and determines the
  /// blocking halo (per stage) and the shift-register reach. `boundary`
  /// defaults to clamp, the paper's generated-code behavior.
  TapSet(int dims, int radius, std::vector<Tap> taps,
         BoundaryCondition boundary = {});

  [[nodiscard]] int dims() const { return dims_; }
  [[nodiscard]] int radius() const { return radius_; }
  [[nodiscard]] const std::vector<Tap>& taps() const { return taps_; }
  [[nodiscard]] std::size_t size() const { return taps_.size(); }
  [[nodiscard]] const BoundaryCondition& boundary() const { return boundary_; }

  /// Builder-style copy with a different boundary condition: program
  /// nodes stamp the read field's BC onto their taps this way, so the
  /// fingerprint (and hence PlanCache key and cluster route) carries it.
  [[nodiscard]] TapSet with_boundary(BoundaryCondition bc) const {
    TapSet t = *this;
    t.boundary_ = bc;
    if (t.boundary_.kind != BoundaryKind::dirichlet) t.boundary_.value = 0.0f;
    return t;
  }

  /// Flat shift-register offset of tap `t` for a given block geometry
  /// (row_cells = bsize_x in 2D, bsize_x*bsize_y in 3D).
  [[nodiscard]] std::int64_t flat_offset(const Tap& t, std::int64_t bsize_x,
                                         std::int64_t row_cells) const;

  /// The flat offsets [back, fwd] (back <= 0 <= fwd) a tap can read once
  /// the boundary remaps it at a border. Clamp pulls each axis of a tap
  /// toward the center, so an axis offset d reads anywhere from 0 to d;
  /// reflective mirrors it, anywhere from -|d| to |d|; dirichlet and
  /// periodic taps read only their plain offsets. A remap can carry an
  /// asymmetric tap past every plain offset -- clamp turns (-2, 1) at
  /// x = 0 into (0, 1) -- so the interpreter's shift register and stage
  /// lag are sized from this, not from the plain offsets' extremes.
  struct FlatReach {
    std::int64_t back = 0, fwd = 0;
  };
  [[nodiscard]] FlatReach remapped_reach(std::int64_t bsize_x,
                                         std::int64_t row_cells) const;

  /// Sum of all coefficients (stability diagnostics).
  [[nodiscard]] double coefficient_sum() const;

  /// FLOPs per cell update: one multiply per tap plus one add per tap
  /// beyond the first.
  [[nodiscard]] std::int64_t flops_per_cell() const {
    return 2 * std::int64_t(taps_.size()) - 1;
  }

  /// DSPs per cell update on Arria-10-class devices: one FMA-capable DSP
  /// per tap (the final multiply has no following add but still occupies
  /// one DSP) -- the generalization of 4*rad+1 / 6*rad+1.
  [[nodiscard]] std::int64_t dsps_per_cell() const {
    return std::int64_t(taps_.size());
  }

 private:
  int dims_;
  int radius_;
  std::vector<Tap> taps_;
  BoundaryCondition boundary_;
};

}  // namespace fpga_stencil
