#include "pipeline/processing_element.hpp"

namespace fpga_stencil {
namespace {

/// Shift-register size for a tap set under a configuration: the window
/// from the oldest cell a (remapped) tap reads back to the newest loaded
/// cell.
std::int64_t sr_size_for(const TapSet& taps, const AcceleratorConfig& cfg) {
  const std::int64_t row_cells = cfg.row_cells();
  const std::int64_t lag_cells =
      std::int64_t(cfg.effective_stage_lag()) * row_cells;
  const TapSet::FlatReach reach = taps.remapped_reach(cfg.bsize_x, row_cells);
  FPGASTENCIL_EXPECT(
      reach.fwd <= lag_cells,
      "stage lag too small for the tap set's forward reach; set "
      "AcceleratorConfig::stage_lag = ceil(reach / row_cells)");
  return lag_cells - reach.back + cfg.parvec;
}

/// Single-bounce mirror about the boundary cell (reflective BC).
std::int64_t mirror_index(std::int64_t i, std::int64_t n) {
  if (i < 0) return -i;
  if (i >= n) return 2 * n - 2 - i;
  return i;
}

}  // namespace

ProcessingElement::ProcessingElement(const TapSet& taps,
                                     const AcceleratorConfig& cfg, int stage)
    : taps_(taps),
      cfg_(cfg),
      stage_(stage),
      row_cells_(cfg.row_cells()),
      lag_cells_(std::int64_t(cfg.effective_stage_lag()) * cfg.row_cells()),
      center_base_(-taps.remapped_reach(cfg.bsize_x, cfg.row_cells()).back),
      sr_(sr_size_for(taps, cfg), cfg.parvec) {
  cfg_.validate();
  FPGASTENCIL_EXPECT(stage >= 0 && stage < cfg.partime,
                     "stage must be in [0, partime)");
  FPGASTENCIL_EXPECT(taps.dims() == cfg.dims && taps.radius() <= cfg.radius,
                     "tap set and configuration disagree");

  flat_offsets_.reserve(taps_.size());
  coeffs_.reserve(taps_.size());
  for (const Tap& t : taps_.taps()) {
    flat_offsets_.push_back(taps_.flat_offset(t, cfg.bsize_x, row_cells_));
    coeffs_.push_back(t.coeff);
  }
}

ProcessingElement::ProcessingElement(const StarStencil& stencil,
                                     const AcceleratorConfig& cfg, int stage)
    : ProcessingElement(stencil.to_taps(), cfg, stage) {
  FPGASTENCIL_EXPECT(
      stencil.dims() == cfg.dims && stencil.radius() == cfg.radius,
      "stencil and configuration disagree");
}

void ProcessingElement::begin_block(const BlockContext& ctx) {
  sr_.clear();
  ctx_ = ctx;
}

void ProcessingElement::process_vector(std::int64_t q,
                                       std::span<const float> in,
                                       std::span<float> out) {
  FPGASTENCIL_ASSERT(std::int64_t(in.size()) == cfg_.parvec &&
                         std::int64_t(out.size()) == cfg_.parvec,
                     "vector width mismatch");
  sr_.shift_in(in);

  // Flat block-local stream index of the center lane 0: the newest loaded
  // cells are [q*parvec, (q+1)*parvec), and the center lags stage_lag rows.
  const std::int64_t center_flat0 = q * cfg_.parvec - lag_cells_;
  if (center_flat0 < 0) {
    // Pipeline warm-up: the register does not yet hold a full window.
    for (std::int64_t l = 0; l < cfg_.parvec; ++l) out[size_t(l)] = 0.0f;
    return;
  }

  if (ctx_.passthrough) {
    // Tail-pass delay stage: emit the lag-delayed input unchanged so the
    // stream alignment (stage_lag rows per stage) is preserved.
    for (std::int64_t l = 0; l < cfg_.parvec; ++l) {
      out[size_t(l)] = sr_.tap(center_base_ + l);
    }
    return;
  }

  for (std::int64_t l = 0; l < cfg_.parvec; ++l) {
    out[size_t(l)] = compute_lane(l, center_flat0 + l);
  }
}

float ProcessingElement::compute_lane(std::int64_t lane,
                                      std::int64_t center_flat) const {
  const int rad = cfg_.radius;
  const int lag = cfg_.effective_stage_lag();
  const std::int64_t sr_center = center_base_ + lane;
  const BoundaryCondition& bc = taps_.boundary();
  const std::size_t n = taps_.size();
  const float* cf = coeffs_.data();

  // Periodic boundaries never take a border select-chain: the read
  // kernel feeds a wrap-extended stream (block_streamer pre-pads the
  // streamed dimension and wraps every fetch modulo the grid), so each
  // lane's neighbors sit at the *plain* tap offsets -- including ghost
  // rows, whose computed values the later stages consume. Every lane,
  // ghost or not, runs the interior fast path.
  if (bc.kind == BoundaryKind::periodic) {
    const std::int64_t* off = flat_offsets_.data();
    float acc = cf[0] * sr_.tap(sr_center + off[0]);
    for (std::size_t t = 1; t < n; ++t) {
      acc += cf[t] * sr_.tap(sr_center + off[t]);
    }
    return acc;
  }

  // Decompose the block-local flat index into coordinates and recover the
  // center's global position (the collapsed-loop index arithmetic of the
  // paper's exit-condition optimization). Input stream row r of stage k
  // carries global row r - k*lag.
  std::int64_t xg, yg, zg = 0;
  if (cfg_.dims == 2) {
    const std::int64_t row = center_flat / cfg_.bsize_x;
    xg = ctx_.block_x0 + center_flat % cfg_.bsize_x;
    yg = row - std::int64_t(stage_) * lag;
    if (xg < 0 || xg >= ctx_.nx || yg < 0 || yg >= ctx_.ny) return 0.0f;
  } else {
    const std::int64_t plane = center_flat / row_cells_;
    const std::int64_t rem = center_flat % row_cells_;
    xg = ctx_.block_x0 + rem % cfg_.bsize_x;
    yg = ctx_.block_y0 + rem / cfg_.bsize_x;
    zg = plane - std::int64_t(stage_) * lag;
    if (xg < 0 || xg >= ctx_.nx || yg < 0 || yg >= ctx_.ny || zg < 0 ||
        zg >= ctx_.nz) {
      return 0.0f;
    }
  }

  // Interior fast path: no border remap possible, use precomputed offsets.
  const bool interior =
      xg >= rad && xg < ctx_.nx - rad && yg >= rad && yg < ctx_.ny - rad &&
      (cfg_.dims == 2 || (zg >= rad && zg < ctx_.nz - rad));
  if (interior) {
    const std::int64_t* off = flat_offsets_.data();
    float acc = cf[0] * sr_.tap(sr_center + off[0]);
    for (std::size_t t = 1; t < n; ++t) {
      acc += cf[t] * sr_.tap(sr_center + off[t]);
    }
    return acc;
  }

  // Border path: resolve each tap per axis by the boundary condition and
  // select the remapped coordinate's shift-register cell (the generated
  // boundary-condition code of the paper, generalized from clamp to the
  // BC select-chains). Dirichlet taps that leave the grid read the fixed
  // ghost value instead of the register.
  const auto& taps = taps_.taps();
  float acc = 0.0f;
  for (std::size_t t = 0; t < n; ++t) {
    const Tap& tap = taps[t];
    float v;
    if (bc.kind == BoundaryKind::dirichlet) {
      const std::int64_t tx = xg + tap.dx;
      const std::int64_t ty = yg + tap.dy;
      const std::int64_t tz = zg + tap.dz;
      const bool inside =
          tx >= 0 && tx < ctx_.nx && ty >= 0 && ty < ctx_.ny &&
          (cfg_.dims == 2 || (tz >= 0 && tz < ctx_.nz));
      if (inside) {
        std::int64_t delta = tap.dx + tap.dy * cfg_.bsize_x;
        if (cfg_.dims == 3) delta += tap.dz * row_cells_;
        v = sr_.tap(sr_center + delta);
      } else {
        v = bc.value;
      }
    } else if (bc.kind == BoundaryKind::reflective) {
      std::int64_t delta =
          mirror_index(xg + tap.dx, ctx_.nx) - xg +
          (mirror_index(yg + tap.dy, ctx_.ny) - yg) * cfg_.bsize_x;
      if (cfg_.dims == 3) {
        delta += (mirror_index(zg + tap.dz, ctx_.nz) - zg) * row_cells_;
      }
      v = sr_.tap(sr_center + delta);
    } else {
      std::int64_t delta =
          clamp_index(xg + tap.dx, 0, ctx_.nx - 1) - xg +
          (clamp_index(yg + tap.dy, 0, ctx_.ny - 1) - yg) * cfg_.bsize_x;
      if (cfg_.dims == 3) {
        delta += (clamp_index(zg + tap.dz, 0, ctx_.nz - 1) - zg) * row_cells_;
      }
      v = sr_.tap(sr_center + delta);
    }
    if (t == 0) {
      acc = cf[0] * v;
    } else {
      acc += cf[t] * v;
    }
  }
  return acc;
}

}  // namespace fpga_stencil
