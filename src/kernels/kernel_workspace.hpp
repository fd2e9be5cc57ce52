// Thread-local scratch for specialized kernels.
//
// A specialized pass needs one slab holding, for the tile it computes (a
// block, or a run's adjacent blocks merged while their windows fit the
// run window budget), `steps` rolling windows of 2*Rad + 1 planes, plus
// one constant plane (the dirichlet ghost source), and the coefficient
// array in tap order. Allocating per tile would dominate small blocks and
// show up as malloc contention under the block-parallel pool, so each
// worker thread keeps one workspace that grows monotonically to the
// largest tile it has seen -- the same lifetime discipline as the pool
// workers' lane buffers, but fully internal to the kernels library
// (callers never thread it through).
#pragma once

#include <cstddef>
#include <vector>

namespace fpga_stencil {

class KernelWorkspace {
 public:
  /// A slab of at least `cells` floats (contents unspecified; kernels
  /// fully overwrite the planes they read). The pointer is invalidated by
  /// the next ensure() call with a larger size.
  [[nodiscard]] float* ensure(std::size_t cells) {
    if (slab_.size() < cells) slab_.resize(cells);
    return slab_.data();
  }

  /// Reusable coefficient staging buffer (dispatch copies TapSet
  /// coefficients here in accumulation order).
  [[nodiscard]] std::vector<float>& coefficients() { return coefficients_; }

  [[nodiscard]] std::size_t slab_cells() const { return slab_.size(); }

 private:
  std::vector<float> slab_;
  std::vector<float> coefficients_;
};

/// The calling thread's workspace (function-local thread_local, so the
/// buffer dies with the thread, not the process).
[[nodiscard]] KernelWorkspace& tls_kernel_workspace();

}  // namespace fpga_stencil
