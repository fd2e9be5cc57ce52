// Explicit instantiations: runtime tap tables, 3D, radius 1-4 x parvec
// {1,4,8,16} x ISA {baseline, avx2}.
#include "kernels/run_specialized_impl.hpp"

namespace fpga_stencil {

FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_INSTANTIATE_KERNEL, kTable, 3)

}  // namespace fpga_stencil
