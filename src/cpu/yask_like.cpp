#include "cpu/yask_like.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/stopwatch.hpp"
#include "stencil/characteristics.hpp"

namespace fpga_stencil {

// ------------------------------------------------------------ PaddedGrid2D

PaddedGrid2D::PaddedGrid2D(std::int64_t nx, std::int64_t ny, int rad)
    : nx_(nx),
      ny_(ny),
      rad_(rad),
      pitch_(nx + 2 * rad),
      origin_(std::int64_t(rad) * (nx + 2 * rad) + rad),
      data_(static_cast<std::size_t>((nx + 2 * rad) * (ny + 2 * rad)), 0.0f) {
  FPGASTENCIL_EXPECT(nx > 0 && ny > 0 && rad >= 1, "bad padded grid shape");
}

void PaddedGrid2D::refresh_halo() {
  // Horizontal extension of every interior row, then vertical replication
  // of whole padded rows: corners end up as the corner cell, which is the
  // clamp boundary condition.
  for (std::int64_t y = 0; y < ny_; ++y) {
    float* row = data_.data() + index(0, y);
    for (int i = 1; i <= rad_; ++i) {
      row[-i] = row[0];
      row[nx_ - 1 + i] = row[nx_ - 1];
    }
  }
  const std::size_t row_bytes = static_cast<std::size_t>(pitch_);
  for (int i = 1; i <= rad_; ++i) {
    std::copy_n(data_.data() + index(-rad_, 0), row_bytes,
                data_.data() + index(-rad_, -i));
    std::copy_n(data_.data() + index(-rad_, ny_ - 1), row_bytes,
                data_.data() + index(-rad_, ny_ - 1 + i));
  }
}

void PaddedGrid2D::copy_from(const Grid2D<float>& g) {
  FPGASTENCIL_EXPECT(g.nx() == nx_ && g.ny() == ny_, "shape mismatch");
  for (std::int64_t y = 0; y < ny_; ++y) {
    std::copy_n(g.data() + y * nx_, static_cast<std::size_t>(nx_),
                data_.data() + index(0, y));
  }
}

void PaddedGrid2D::copy_to(Grid2D<float>& g) const {
  FPGASTENCIL_EXPECT(g.nx() == nx_ && g.ny() == ny_, "shape mismatch");
  for (std::int64_t y = 0; y < ny_; ++y) {
    std::copy_n(data_.data() + index(0, y), static_cast<std::size_t>(nx_),
                g.data() + y * nx_);
  }
}

// ------------------------------------------------------------ PaddedGrid3D

PaddedGrid3D::PaddedGrid3D(std::int64_t nx, std::int64_t ny, std::int64_t nz,
                           int rad)
    : nx_(nx),
      ny_(ny),
      nz_(nz),
      rad_(rad),
      pitch_x_(nx + 2 * rad),
      pitch_y_(ny + 2 * rad),
      origin_((std::int64_t(rad) * (ny + 2 * rad) + rad) * (nx + 2 * rad) +
              rad),
      data_(static_cast<std::size_t>((nx + 2 * rad) * (ny + 2 * rad) *
                                     (nz + 2 * rad)),
            0.0f) {
  FPGASTENCIL_EXPECT(nx > 0 && ny > 0 && nz > 0 && rad >= 1,
                     "bad padded grid shape");
}

void PaddedGrid3D::refresh_halo() {
  // x extension, then y replication of padded rows, then z replication of
  // padded planes -- edges and corners resolve to the clamp condition.
  for (std::int64_t z = 0; z < nz_; ++z) {
    for (std::int64_t y = 0; y < ny_; ++y) {
      float* row = data_.data() + index(0, y, z);
      for (int i = 1; i <= rad_; ++i) {
        row[-i] = row[0];
        row[nx_ - 1 + i] = row[nx_ - 1];
      }
    }
    const std::size_t row_n = static_cast<std::size_t>(pitch_x_);
    for (int i = 1; i <= rad_; ++i) {
      std::copy_n(data_.data() + index(-rad_, 0, z), row_n,
                  data_.data() + index(-rad_, -i, z));
      std::copy_n(data_.data() + index(-rad_, ny_ - 1, z), row_n,
                  data_.data() + index(-rad_, ny_ - 1 + i, z));
    }
  }
  const std::size_t plane_n =
      static_cast<std::size_t>(pitch_x_ * pitch_y_);
  for (int i = 1; i <= rad_; ++i) {
    std::copy_n(data_.data() + index(-rad_, -rad_, 0), plane_n,
                data_.data() + index(-rad_, -rad_, -i));
    std::copy_n(data_.data() + index(-rad_, -rad_, nz_ - 1), plane_n,
                data_.data() + index(-rad_, -rad_, nz_ - 1 + i));
  }
}

void PaddedGrid3D::copy_from(const Grid3D<float>& g) {
  FPGASTENCIL_EXPECT(g.nx() == nx_ && g.ny() == ny_ && g.nz() == nz_,
                     "shape mismatch");
  for (std::int64_t z = 0; z < nz_; ++z) {
    for (std::int64_t y = 0; y < ny_; ++y) {
      std::copy_n(g.data() + (z * ny_ + y) * nx_,
                  static_cast<std::size_t>(nx_), data_.data() + index(0, y, z));
    }
  }
}

void PaddedGrid3D::copy_to(Grid3D<float>& g) const {
  FPGASTENCIL_EXPECT(g.nx() == nx_ && g.ny() == ny_ && g.nz() == nz_,
                     "shape mismatch");
  for (std::int64_t z = 0; z < nz_; ++z) {
    for (std::int64_t y = 0; y < ny_; ++y) {
      std::copy_n(data_.data() + index(0, y, z),
                  static_cast<std::size_t>(nx_),
                  g.data() + (z * ny_ + y) * nx_);
    }
  }
}

// -------------------------------------------------------------- 2D kernel

namespace {

/// Packed coefficients/offsets in the TapSet's accumulation order so the
/// result is bit-exact with the naive reference. The first tap is applied
/// with `=`, the rest with `+=`.
struct PackedTaps {
  std::vector<float> coeffs;
  std::vector<std::int64_t> offsets;
};

PackedTaps pack_taps_2d(const TapSet& taps, std::int64_t pitch) {
  PackedTaps t;
  for (const Tap& tap : taps.taps()) {
    t.coeffs.push_back(tap.coeff);
    t.offsets.push_back(tap.dx + tap.dy * pitch);
  }
  return t;
}

PackedTaps pack_taps_3d(const TapSet& taps, std::int64_t pitch_x,
                        std::int64_t pitch_y) {
  PackedTaps t;
  for (const Tap& tap : taps.taps()) {
    t.coeffs.push_back(tap.coeff);
    t.offsets.push_back(tap.dx + (tap.dy + tap.dz * pitch_y) * pitch_x);
  }
  return t;
}

/// Cells [x0, x1) of one output row: acc = c0*t0; acc += ct*tt per cell,
/// in tap order. Taps run outer over fixed-width strips of accumulators,
/// so every strip loop is a plain vectorizable loop.
void stencil_row(const float* row, float* orow, std::int64_t x0,
                 std::int64_t x1, const PackedTaps& taps) {
  constexpr std::int64_t kStrip = 64;
  const float* cf = taps.coeffs.data();
  const std::int64_t* off = taps.offsets.data();
  const std::size_t ntaps = taps.coeffs.size();
  float acc[kStrip];
  for (std::int64_t xs = x0; xs < x1; xs += kStrip) {
    const std::int64_t n = std::min(kStrip, x1 - xs);
    const float* r0 = row + xs + off[0];
    for (std::int64_t i = 0; i < n; ++i) acc[i] = cf[0] * r0[i];
    for (std::size_t t = 1; t < ntaps; ++t) {
      const float c = cf[t];
      const float* rt = row + xs + off[t];
      for (std::int64_t i = 0; i < n; ++i) acc[i] += c * rt[i];
    }
    std::copy(acc, acc + n, orow + xs);
  }
}

/// Runs body(b) for every block b in [0, blocks) on up to
/// hardware_concurrency threads, each over one contiguous run of blocks:
/// the static partition (the first blocks % threads runs one longer).
template <typename Body>
void for_each_block(std::int64_t blocks, const Body& body) {
  const std::int64_t threads = std::min<std::int64_t>(
      blocks, std::max(1u, std::thread::hardware_concurrency()));
  const auto run = [&](std::int64_t t) {
    const std::int64_t q = blocks / threads, r = blocks % threads;
    const std::int64_t lo = t * q + std::min(t, r);
    const std::int64_t hi = lo + q + (t < r ? 1 : 0);
    for (std::int64_t b = lo; b < hi; ++b) body(b);
  };
  std::vector<std::jthread> pool;
  for (std::int64_t t = 1; t < threads; ++t) pool.emplace_back(run, t);
  if (threads > 0) run(0);
}

}  // namespace

YaskLikeStencil2D::YaskLikeStencil2D(const StarStencil& stencil)
    : YaskLikeStencil2D(stencil.to_taps()) {}

YaskLikeStencil2D::YaskLikeStencil2D(const TapSet& taps) : taps_(taps) {
  FPGASTENCIL_EXPECT(taps.dims() == 2, "2D executor needs a 2D tap set");
}

void YaskLikeStencil2D::step(const PaddedGrid2D& in, PaddedGrid2D& out,
                             const CpuBlockSize& block) const {
  FPGASTENCIL_EXPECT(in.nx() == out.nx() && in.ny() == out.ny(),
                     "shape mismatch");
  FPGASTENCIL_EXPECT(in.radius() >= taps_.radius(),
                     "halo smaller than the stencil radius");
  const std::int64_t nx = in.nx(), ny = in.ny(), pitch = in.pitch();
  const std::int64_t by = std::max<std::int64_t>(1, block.by);
  const std::int64_t bx = block.bx > 0 ? block.bx : nx;
  const PackedTaps taps = pack_taps_2d(taps_, pitch);
  const float* src = in.interior();
  float* dst = out.interior();

  const std::int64_t nby = (ny + by - 1) / by;
  const std::int64_t nbx = (nx + bx - 1) / bx;
  for_each_block(nby * nbx, [&](std::int64_t b) {
    const std::int64_t jb = b / nbx, ib = b % nbx;
    const std::int64_t y0 = jb * by, y1 = std::min(ny, y0 + by);
    const std::int64_t x0 = ib * bx, x1 = std::min(nx, x0 + bx);
    for (std::int64_t y = y0; y < y1; ++y) {
      stencil_row(src + y * pitch, dst + y * pitch, x0, x1, taps);
    }
  });
}

CpuRunResult YaskLikeStencil2D::run(Grid2D<float>& grid, int iterations,
                                    const CpuBlockSize& block) const {
  PaddedGrid2D a(grid.nx(), grid.ny(), taps_.radius());
  PaddedGrid2D b(grid.nx(), grid.ny(), taps_.radius());
  a.copy_from(grid);

  Stopwatch sw;
  for (int t = 0; t < iterations; ++t) {
    a.refresh_halo();
    step(a, b, block);
    std::swap(a, b);
  }
  CpuRunResult r;
  r.seconds = sw.seconds();
  r.block = block;
  r.cell_updates = grid.nx() * grid.ny() * std::int64_t(iterations);
  r.gcells = r.seconds > 0 ? double(r.cell_updates) / r.seconds / 1e9 : 0.0;
  r.gflops = r.gcells * double(taps_.flops_per_cell());
  a.copy_to(grid);
  return r;
}

CpuBlockSize YaskLikeStencil2D::auto_tune(std::int64_t nx,
                                          std::int64_t ny) const {
  Grid2D<float> probe(nx, ny);
  probe.fill_random(99);
  CpuBlockSize best;
  double best_time = std::numeric_limits<double>::max();
  for (std::int64_t by : {8, 16, 32, 64, 128}) {
    if (by > ny) break;
    Grid2D<float> work = probe;
    const CpuBlockSize cand{nx, by, 1};
    const CpuRunResult r = run(work, 2, cand);
    if (r.seconds < best_time) {
      best_time = r.seconds;
      best = cand;
    }
  }
  if (best.bx == 0) best = CpuBlockSize{nx, ny, 1};
  return best;
}

// -------------------------------------------------------------- 3D kernel

YaskLikeStencil3D::YaskLikeStencil3D(const StarStencil& stencil)
    : YaskLikeStencil3D(stencil.to_taps()) {}

YaskLikeStencil3D::YaskLikeStencil3D(const TapSet& taps) : taps_(taps) {
  FPGASTENCIL_EXPECT(taps.dims() == 3, "3D executor needs a 3D tap set");
}

void YaskLikeStencil3D::step(const PaddedGrid3D& in, PaddedGrid3D& out,
                             const CpuBlockSize& block) const {
  FPGASTENCIL_EXPECT(in.nx() == out.nx() && in.ny() == out.ny() &&
                         in.nz() == out.nz(),
                     "shape mismatch");
  FPGASTENCIL_EXPECT(in.radius() >= taps_.radius(),
                     "halo smaller than the stencil radius");
  const std::int64_t nx = in.nx(), ny = in.ny(), nz = in.nz();
  const std::int64_t px = in.pitch_x(), py = in.pitch_y();
  const std::int64_t by = std::max<std::int64_t>(1, block.by);
  const std::int64_t bz = std::max<std::int64_t>(1, block.bz);
  const PackedTaps taps = pack_taps_3d(taps_, px, py);
  const float* src = in.interior();
  float* dst = out.interior();

  const std::int64_t nbz = (nz + bz - 1) / bz;
  const std::int64_t nby = (ny + by - 1) / by;
  for_each_block(nbz * nby, [&](std::int64_t b) {
    const std::int64_t kb = b / nby, jb = b % nby;
    const std::int64_t z0 = kb * bz, z1 = std::min(nz, z0 + bz);
    const std::int64_t y0 = jb * by, y1 = std::min(ny, y0 + by);
    for (std::int64_t z = z0; z < z1; ++z) {
      for (std::int64_t y = y0; y < y1; ++y) {
        const std::int64_t r = (z * py + y) * px;
        stencil_row(src + r, dst + r, 0, nx, taps);
      }
    }
  });
}

CpuRunResult YaskLikeStencil3D::run(Grid3D<float>& grid, int iterations,
                                    const CpuBlockSize& block) const {
  PaddedGrid3D a(grid.nx(), grid.ny(), grid.nz(), taps_.radius());
  PaddedGrid3D b(grid.nx(), grid.ny(), grid.nz(), taps_.radius());
  a.copy_from(grid);

  Stopwatch sw;
  for (int t = 0; t < iterations; ++t) {
    a.refresh_halo();
    step(a, b, block);
    std::swap(a, b);
  }
  CpuRunResult r;
  r.seconds = sw.seconds();
  r.block = block;
  r.cell_updates =
      grid.nx() * grid.ny() * grid.nz() * std::int64_t(iterations);
  r.gcells = r.seconds > 0 ? double(r.cell_updates) / r.seconds / 1e9 : 0.0;
  r.gflops = r.gcells * double(taps_.flops_per_cell());
  a.copy_to(grid);
  return r;
}

CpuBlockSize YaskLikeStencil3D::auto_tune(std::int64_t nx, std::int64_t ny,
                                          std::int64_t nz) const {
  Grid3D<float> probe(nx, ny, nz);
  probe.fill_random(99);
  CpuBlockSize best;
  double best_time = std::numeric_limits<double>::max();
  for (std::int64_t bz : {4, 8, 16}) {
    for (std::int64_t by : {8, 16, 32}) {
      if (by > ny || bz > nz) continue;
      Grid3D<float> work = probe;
      const CpuBlockSize cand{nx, by, bz};
      const CpuRunResult r = run(work, 2, cand);
      if (r.seconds < best_time) {
        best_time = r.seconds;
        best = cand;
      }
    }
  }
  if (best.bx == 0) best = CpuBlockSize{nx, ny, nz};
  return best;
}

}  // namespace fpga_stencil
