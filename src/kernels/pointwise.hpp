// The streaming map a pointwise program node runs instead of a block pass.
//
// A node whose tap set is one tap at the center, or that fuses zero
// iterations, reads no neighbour: it needs no rolling window, block or
// ghost margin, on any boundary (periodic included, since a center tap
// never leaves the grid). Per cell it applies the reference's
// `acc = c0*t0` `iterations` times, then the store op -- one pass over
// the field on the calling thread, where a windowed pass would stream
// overlapped blocks through a PE chain.
//
// It lives in the kernel library, which builds with -ffp-contract=off,
// so `prev + c*v` never fuses into a multiply-add (tests/check_no_fma.sh
// scans this code with the kernels').
#pragma once

#include <cstdint>

#include "core/stencil_accelerator.hpp"
#include "stencil/store_op.hpp"
#include "stencil/tap_set.hpp"

namespace fpga_stencil {

/// True when `iterations` steps of `taps` are a pointwise map: no
/// iterations at all, or a single tap at offset (0, 0, 0).
[[nodiscard]] bool is_pointwise(const TapSet& taps, int iterations);

/// Stores `c^iterations * in[i]` (multiplied one step at a time, as the
/// reference does) into `out[i]` with `store`, for every cell in order.
/// `in`, `out` and `store.prev` may be the same buffer. The stats count
/// `iterations` time steps and one read and one store per cell
/// (cells_streamed = cells_written = cells); a map has no block passes,
/// so passes, block_passes and vectors_processed stay 0.
RunStats run_pointwise(const float* in, float* out, std::int64_t cells,
                       float coeff, int iterations, const StoreOp& store);

}  // namespace fpga_stencil
