// Row-major 2D and 3D grid containers.
//
// Conventions follow the paper: x is the fastest-varying (vectorized)
// dimension, y the next, and z (3D only) the slowest. 2D stencils stream the
// y dimension; 3D stencils stream the z dimension.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"

namespace fpga_stencil {

/// Dense row-major 2D grid: index (x, y) -> data[y * nx + x].
template <typename T>
class Grid2D {
 public:
  Grid2D() = default;
  Grid2D(std::int64_t nx, std::int64_t ny, T fill = T{})
      : nx_(nx), ny_(ny), data_(checked_size(nx, ny), fill) {}

  /// Adopts `storage` as the backing store (resized to nx*ny; existing
  /// capacity is kept, cell contents are unspecified). This is the
  /// buffer-pool hook: scratch grids recycled across jobs enter and leave
  /// through here without reallocating.
  Grid2D(std::int64_t nx, std::int64_t ny, std::vector<T>&& storage)
      : nx_(nx), ny_(ny), data_(std::move(storage)) {
    data_.resize(checked_size(nx, ny));
  }

  /// Gives the backing store back (e.g. to a buffer pool); the grid is
  /// empty afterwards.
  [[nodiscard]] std::vector<T> release_storage() {
    nx_ = ny_ = 0;
    return std::move(data_);
  }

  [[nodiscard]] std::int64_t nx() const { return nx_; }
  [[nodiscard]] std::int64_t ny() const { return ny_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  T& at(std::int64_t x, std::int64_t y) { return data_[index(x, y)]; }
  const T& at(std::int64_t x, std::int64_t y) const {
    return data_[index(x, y)];
  }

  /// Reads with the paper's boundary condition: out-of-bound coordinates
  /// fall back on the border cell.
  [[nodiscard]] const T& at_clamped(std::int64_t x, std::int64_t y) const {
    return at(clamp_index(x, 0, nx_ - 1), clamp_index(y, 0, ny_ - 1));
  }

  [[nodiscard]] bool in_bounds(std::int64_t x, std::int64_t y) const {
    return x >= 0 && x < nx_ && y >= 0 && y < ny_;
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Fills with deterministic pseudo-random values in [lo, hi).
  void fill_random(std::uint64_t seed, T lo = T(0), T hi = T(1)) {
    SplitMix64 rng(seed);
    for (T& v : data_) v = static_cast<T>(rng.next_float(float(lo), float(hi)));
  }

  /// Fills with a smooth deterministic pattern (useful for diffusion-style
  /// examples where random noise would obscure the physics).
  void fill_pattern(std::uint64_t seed = 1) {
    SplitMix64 rng(seed);
    const float px = rng.next_float(0.01f, 0.1f);
    const float py = rng.next_float(0.01f, 0.1f);
    for (std::int64_t y = 0; y < ny_; ++y) {
      for (std::int64_t x = 0; x < nx_; ++x) {
        at(x, y) = static_cast<T>(1.0f + 0.5f * float(x) * px +
                                  0.25f * float(y) * py);
      }
    }
  }

 private:
  static std::size_t checked_size(std::int64_t nx, std::int64_t ny) {
    FPGASTENCIL_EXPECT(nx > 0 && ny > 0, "grid dimensions must be positive");
    return static_cast<std::size_t>(nx * ny);
  }

  [[nodiscard]] std::size_t index(std::int64_t x, std::int64_t y) const {
    return static_cast<std::size_t>(y * nx_ + x);
  }

  std::int64_t nx_ = 0;
  std::int64_t ny_ = 0;
  std::vector<T> data_;
};

/// Dense row-major 3D grid: index (x, y, z) -> data[(z * ny + y) * nx + x].
template <typename T>
class Grid3D {
 public:
  Grid3D() = default;
  Grid3D(std::int64_t nx, std::int64_t ny, std::int64_t nz, T fill = T{})
      : nx_(nx), ny_(ny), nz_(nz), data_(checked_size(nx, ny, nz), fill) {}

  /// Adopts `storage` as the backing store; see Grid2D for the contract.
  Grid3D(std::int64_t nx, std::int64_t ny, std::int64_t nz,
         std::vector<T>&& storage)
      : nx_(nx), ny_(ny), nz_(nz), data_(std::move(storage)) {
    data_.resize(checked_size(nx, ny, nz));
  }

  [[nodiscard]] std::vector<T> release_storage() {
    nx_ = ny_ = nz_ = 0;
    return std::move(data_);
  }

  [[nodiscard]] std::int64_t nx() const { return nx_; }
  [[nodiscard]] std::int64_t ny() const { return ny_; }
  [[nodiscard]] std::int64_t nz() const { return nz_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  T& at(std::int64_t x, std::int64_t y, std::int64_t z) {
    return data_[index(x, y, z)];
  }
  const T& at(std::int64_t x, std::int64_t y, std::int64_t z) const {
    return data_[index(x, y, z)];
  }

  [[nodiscard]] const T& at_clamped(std::int64_t x, std::int64_t y,
                                    std::int64_t z) const {
    return at(clamp_index(x, 0, nx_ - 1), clamp_index(y, 0, ny_ - 1),
              clamp_index(z, 0, nz_ - 1));
  }

  [[nodiscard]] bool in_bounds(std::int64_t x, std::int64_t y,
                               std::int64_t z) const {
    return x >= 0 && x < nx_ && y >= 0 && y < ny_ && z >= 0 && z < nz_;
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  void fill_random(std::uint64_t seed, T lo = T(0), T hi = T(1)) {
    SplitMix64 rng(seed);
    for (T& v : data_) v = static_cast<T>(rng.next_float(float(lo), float(hi)));
  }

  void fill_pattern(std::uint64_t seed = 1) {
    SplitMix64 rng(seed);
    const float px = rng.next_float(0.01f, 0.1f);
    const float py = rng.next_float(0.01f, 0.1f);
    const float pz = rng.next_float(0.01f, 0.1f);
    for (std::int64_t z = 0; z < nz_; ++z) {
      for (std::int64_t y = 0; y < ny_; ++y) {
        for (std::int64_t x = 0; x < nx_; ++x) {
          at(x, y, z) = static_cast<T>(1.0f + 0.5f * float(x) * px +
                                       0.25f * float(y) * py +
                                       0.125f * float(z) * pz);
        }
      }
    }
  }

 private:
  static std::size_t checked_size(std::int64_t nx, std::int64_t ny,
                                  std::int64_t nz) {
    FPGASTENCIL_EXPECT(nx > 0 && ny > 0 && nz > 0,
                       "grid dimensions must be positive");
    return static_cast<std::size_t>(nx * ny * nz);
  }

  [[nodiscard]] std::size_t index(std::int64_t x, std::int64_t y,
                                  std::int64_t z) const {
    return static_cast<std::size_t>((z * ny_ + y) * nx_ + x);
  }

  std::int64_t nx_ = 0;
  std::int64_t ny_ = 0;
  std::int64_t nz_ = 0;
  std::vector<T> data_;
};

/// A grid with `like`'s extents over `storage`, adopted as the
/// constructors above do (so an empty vector allocates).
template <typename T>
[[nodiscard]] Grid2D<T> grid_over(const Grid2D<T>& like,
                                  std::vector<T>&& storage) {
  return Grid2D<T>(like.nx(), like.ny(), std::move(storage));
}
template <typename T>
[[nodiscard]] Grid3D<T> grid_over(const Grid3D<T>& like,
                                  std::vector<T>&& storage) {
  return Grid3D<T>(like.nx(), like.ny(), like.nz(), std::move(storage));
}

}  // namespace fpga_stencil
