// A grid over storage leased from a BufferPool for the object's lifetime:
// the scratch and field buffers of the executors, returned to the pool
// (capacity kept) however the scope ends.
#pragma once

#include <utility>

#include "common/buffer_pool.hpp"
#include "grid/grid.hpp"

namespace fpga_stencil {

template <typename GridT>
class LeasedGrid {
 public:
  /// A grid with `like`'s extents; contents unspecified.
  LeasedGrid(BufferPool& pool, const GridT& like)
      : lease_(pool, like.size()),
        grid_(grid_over(like, std::move(lease_.buffer()))) {}
  ~LeasedGrid() { lease_.buffer() = grid_.release_storage(); }
  LeasedGrid(const LeasedGrid&) = delete;
  LeasedGrid& operator=(const LeasedGrid&) = delete;

  /// The grid; moving its storage out returns an empty lease.
  [[nodiscard]] GridT& grid() { return grid_; }

 private:
  BufferPool::Lease lease_;
  GridT grid_;
};

}  // namespace fpga_stencil
