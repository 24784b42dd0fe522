/**
 * @file
 * The name the benchmark driver (perfbench/) still uses for one
 * simulated GPU. Everything else says gpu::Device (gpu/device.hh),
 * built as a member of a gpu::Cluster (gpu/cluster.hh). The alias goes
 * with the benchmark change of ROADMAP item 3.
 */

#ifndef VDNN_GPU_RUNTIME_HH
#define VDNN_GPU_RUNTIME_HH

#include "gpu/device.hh"

namespace vdnn::gpu
{

using Runtime = Device;

} // namespace vdnn::gpu

#endif // VDNN_GPU_RUNTIME_HH
