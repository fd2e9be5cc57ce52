// How a stencil pass retires its result into its output buffer.
//
// The paper's write kernel hands every finished cell straight to external
// memory. A program node (docs/PROGRAMS.md) does the same, except that its
// result may be added to what the destination field already holds this
// step. StoreOp names that choice once, below every executor: the
// specialized kernels' last stage, the interpreter's write step, the
// pointwise map and both single-board pass entry points apply it per
// retired cell, so there is no second pass over the field to combine.
#pragma once

#include <cstdint>

namespace fpga_stencil {

/// How a result lands in its destination.
enum class CombineOp : std::uint8_t {
  assign,  ///< dst = result
  add,     ///< dst = prev + result
};

/// The store applied to every retired cell. `assign` writes the result;
/// `add` writes `prev[i] + result`: one IEEE add with `prev` as the first
/// operand, the same operation as an elementwise `prev + result` loop.
/// `prev` has the output's extents and layout and may be the output
/// buffer itself: each cell reads its own `prev` before its store, and no
/// other cell's.
struct StoreOp {
  CombineOp op = CombineOp::assign;
  const float* prev = nullptr;  ///< add only

  [[nodiscard]] static constexpr StoreOp assign() { return {}; }
  [[nodiscard]] static constexpr StoreOp add(const float* prev) {
    return {CombineOp::add, prev};
  }
  [[nodiscard]] constexpr bool is_add() const { return op == CombineOp::add; }
};

}  // namespace fpga_stencil
