// YASK-like CPU stencil baseline.
//
// Mirrors how the paper benchmarks Xeon / Xeon Phi with the YASK framework
// (Section IV.B):
//   * the allocated grid is *bigger* than the input grid so out-of-bound
//     neighbors are read from memory rather than branch-handled -- our
//     padded grids replicate the border into a radius-wide halo, which
//     under the paper's clamp boundary condition yields results bit-exact
//     with the naive reference,
//   * spatial cache blocking with a vectorizable inner x loop (taps outer
//     over fixed-width strips of accumulators),
//   * parallelization over blocks: one std::thread per core, each over a
//     contiguous run of blocks (OpenMP's static schedule, without the
//     runtime, which thread sanitizers cannot see into),
//   * a built-in auto-tuner that times candidate block sizes and picks the
//     best (YASK's automatic tuning step).
//
// YASK's vector folding is a register-level layout transform that needs
// AVX-512 scatter/gather tricks; we keep the standard simd-over-x layout
// and document the substitution in DESIGN.md. The measured *shape* --
// memory-bound, GCell/s flat in the radius -- is what the comparison needs.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/grid.hpp"
#include "stencil/star_stencil.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

/// 2D grid with a radius-wide replicated halo on every side.
class PaddedGrid2D {
 public:
  PaddedGrid2D(std::int64_t nx, std::int64_t ny, int rad);

  [[nodiscard]] std::int64_t nx() const { return nx_; }
  [[nodiscard]] std::int64_t ny() const { return ny_; }
  [[nodiscard]] int radius() const { return rad_; }
  [[nodiscard]] std::int64_t pitch() const { return pitch_; }

  /// Interior cell access (0 <= x < nx, 0 <= y < ny).
  float& at(std::int64_t x, std::int64_t y) {
    return data_[index(x, y)];
  }
  [[nodiscard]] const float& at(std::int64_t x, std::int64_t y) const {
    return data_[index(x, y)];
  }

  /// Pointer to the interior origin; neighbors at +-i and +-i*pitch() are
  /// always readable thanks to the halo.
  [[nodiscard]] const float* interior() const { return data_.data() + origin_; }
  float* interior() { return data_.data() + origin_; }

  /// Copies border values into the halo (clamp boundary condition).
  void refresh_halo();

  void copy_from(const Grid2D<float>& g);
  void copy_to(Grid2D<float>& g) const;

 private:
  [[nodiscard]] std::size_t index(std::int64_t x, std::int64_t y) const {
    return static_cast<std::size_t>(origin_ + y * pitch_ + x);
  }

  std::int64_t nx_, ny_;
  int rad_;
  std::int64_t pitch_;
  std::int64_t origin_;
  std::vector<float> data_;
};

/// 3D analogue of PaddedGrid2D.
class PaddedGrid3D {
 public:
  PaddedGrid3D(std::int64_t nx, std::int64_t ny, std::int64_t nz, int rad);

  [[nodiscard]] std::int64_t nx() const { return nx_; }
  [[nodiscard]] std::int64_t ny() const { return ny_; }
  [[nodiscard]] std::int64_t nz() const { return nz_; }
  [[nodiscard]] int radius() const { return rad_; }
  [[nodiscard]] std::int64_t pitch_x() const { return pitch_x_; }
  [[nodiscard]] std::int64_t pitch_y() const { return pitch_y_; }

  float& at(std::int64_t x, std::int64_t y, std::int64_t z) {
    return data_[index(x, y, z)];
  }
  [[nodiscard]] const float& at(std::int64_t x, std::int64_t y,
                                std::int64_t z) const {
    return data_[index(x, y, z)];
  }

  [[nodiscard]] const float* interior() const { return data_.data() + origin_; }
  float* interior() { return data_.data() + origin_; }

  void refresh_halo();
  void copy_from(const Grid3D<float>& g);
  void copy_to(Grid3D<float>& g) const;

 private:
  [[nodiscard]] std::size_t index(std::int64_t x, std::int64_t y,
                                  std::int64_t z) const {
    return static_cast<std::size_t>(origin_ + (z * pitch_y_ + y) * pitch_x_ +
                                    x);
  }

  std::int64_t nx_, ny_, nz_;
  int rad_;
  std::int64_t pitch_x_, pitch_y_;
  std::int64_t origin_;
  std::vector<float> data_;
};

struct CpuBlockSize {
  std::int64_t bx = 0;  ///< x block (cache blocking; full rows when >= nx)
  std::int64_t by = 0;
  std::int64_t bz = 1;  ///< 3D only
};

struct CpuRunResult {
  double seconds = 0.0;
  std::int64_t cell_updates = 0;
  double gcells = 0.0;   ///< 1e9 cell updates / s
  double gflops = 0.0;
  CpuBlockSize block;    ///< the block size used
};

/// Blocked, vectorized, multithreaded stencil executor.
class YaskLikeStencil2D {
 public:
  explicit YaskLikeStencil2D(const StarStencil& stencil);
  /// Generic tap sets (box stencils, custom shapes); taps are accumulated
  /// strictly in order, so results stay bit-exact with the reference.
  explicit YaskLikeStencil2D(const TapSet& taps);

  /// One time step from `in` to `out` with cache blocking.
  void step(const PaddedGrid2D& in, PaddedGrid2D& out,
            const CpuBlockSize& block) const;

  /// `iterations` time steps in place; measures throughput.
  CpuRunResult run(Grid2D<float>& grid, int iterations,
                   const CpuBlockSize& block) const;

  /// YASK-style auto-tuner: times the candidate block sizes on the given
  /// grid and returns the fastest.
  CpuBlockSize auto_tune(std::int64_t nx, std::int64_t ny) const;

 private:
  TapSet taps_;
};

class YaskLikeStencil3D {
 public:
  explicit YaskLikeStencil3D(const StarStencil& stencil);
  /// Generic tap sets (box stencils, custom shapes).
  explicit YaskLikeStencil3D(const TapSet& taps);

  void step(const PaddedGrid3D& in, PaddedGrid3D& out,
            const CpuBlockSize& block) const;
  CpuRunResult run(Grid3D<float>& grid, int iterations,
                   const CpuBlockSize& block) const;
  CpuBlockSize auto_tune(std::int64_t nx, std::int64_t ny,
                         std::int64_t nz) const;

 private:
  TapSet taps_;
};

}  // namespace fpga_stencil
