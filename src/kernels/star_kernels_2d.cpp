// Explicit instantiations: star stencils, 2D, radius 1-4 x parvec
// {1,4,8,16}. One TU per (shape, dims) family keeps rebuilds local and
// lets the optimizer specialize each point independently.
#include "kernels/run_specialized_impl.hpp"

namespace fpga_stencil {

#define FPGASTENCIL_INSTANTIATE_KERNEL(SHAPE, RAD, DIMS, PARVEC)        \
  template void run_specialized<StencilShape::SHAPE, RAD, DIMS, PARVEC>( \
      const BlockingPlan&, const BlockExtent&, const GridOf<DIMS>&,     \
      GridOf<DIMS>&, int, const KernelArgs&, RunStats&,                 \
      const CancellationToken*);

FPGASTENCIL_FOR_EACH_RADIUS_PARVEC(FPGASTENCIL_INSTANTIATE_KERNEL, kStar, 2)

#undef FPGASTENCIL_INSTANTIATE_KERNEL

}  // namespace fpga_stencil
