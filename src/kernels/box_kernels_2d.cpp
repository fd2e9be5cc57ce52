// Explicit instantiations: box stencils, 2D, radius 1-4 x parvec
// {1,4,8,16} x ISA {baseline, avx2}. Box tap counts grow as (2r+1)^2;
// the tap loop in compute_row is a runtime loop over the constexpr
// pattern, so these instantiations stay compact.
#include "kernels/run_specialized_impl.hpp"

namespace fpga_stencil {

FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_INSTANTIATE_KERNEL, kBox, 2)

}  // namespace fpga_stencil
