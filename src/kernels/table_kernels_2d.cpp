// Explicit instantiations: runtime tap tables, 2D, radius 1-4 x parvec
// {1,4,8,16} x ISA {baseline, avx2}. One TU per (shape, dims) family
// keeps rebuilds local and lets the optimizer specialize each point
// independently.
#include "kernels/run_specialized_impl.hpp"

namespace fpga_stencil {

FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_INSTANTIATE_KERNEL, kTable, 2)

}  // namespace fpga_stencil
