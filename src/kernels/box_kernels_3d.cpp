// Explicit instantiations: box stencils, 3D, radius 1-4 x parvec
// {1,4,8,16} x ISA {baseline, avx2}. Radius 4 has 729 taps; the tap loop
// stays a runtime loop over the constexpr pattern precisely so this TU
// does not explode.
#include "kernels/run_specialized_impl.hpp"

namespace fpga_stencil {

FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_INSTANTIATE_KERNEL, kBox, 3)

}  // namespace fpga_stencil
