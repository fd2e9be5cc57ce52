#include "kernels/pointwise.hpp"

#include <cstring>

namespace fpga_stencil {
namespace {

typedef float Lanes4 __attribute__((vector_size(16)));

/// Four cells per step in one register: every cell is loaded (with its
/// `prev`) before its store, so `in`, `out` and `prev` may alias.
template <bool Add>
void map_cells(const float* in, float* out, std::int64_t cells, float c,
               int iterations, const float* prev) {
  std::int64_t i = 0;
  for (; i + 4 <= cells; i += 4) {
    Lanes4 v;
    std::memcpy(&v, in + i, sizeof v);
    for (int k = 0; k < iterations; ++k) v = c * v;
    if constexpr (Add) {
      Lanes4 p;
      std::memcpy(&p, prev + i, sizeof p);
      v = p + v;
    }
    std::memcpy(out + i, &v, sizeof v);
  }
  for (; i < cells; ++i) {
    float v = in[i];
    for (int k = 0; k < iterations; ++k) v = c * v;
    if constexpr (Add) v = prev[i] + v;
    out[i] = v;
  }
}

}  // namespace

bool is_pointwise(const TapSet& taps, int iterations) {
  if (iterations == 0) return true;
  if (taps.size() != 1) return false;
  const Tap& t = taps.taps().front();
  return t.dx == 0 && t.dy == 0 && t.dz == 0;
}

RunStats run_pointwise(const float* in, float* out, std::int64_t cells,
                       float coeff, int iterations, const StoreOp& store) {
  if (store.is_add()) {
    map_cells<true>(in, out, cells, coeff, iterations, store.prev);
  } else {
    map_cells<false>(in, out, cells, coeff, iterations, nullptr);
  }
  RunStats stats;
  stats.time_steps = iterations;
  stats.cells_streamed = cells;
  stats.cells_written = cells;
  return stats;
}

}  // namespace fpga_stencil
