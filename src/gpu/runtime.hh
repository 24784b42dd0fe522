/**
 * @file
 * Simulated CUDA runtime — the single-GPU façade over gpu::Device.
 *
 * Historically this header defined the whole execution substrate; the
 * engine now lives in gpu/device.hh so that a multi-GPU `Cluster`
 * (gpu/cluster.hh) can own several devices on one shared simulated
 * clock. A `Runtime` is exactly a self-clocked `Device` — the
 * construction every single-device call site has always used — so the
 * classic API (streams, kernels, async copies, synchronize, stream
 * marks) and its timing behavior are unchanged.
 */

#ifndef VDNN_GPU_RUNTIME_HH
#define VDNN_GPU_RUNTIME_HH

#include "gpu/device.hh"

namespace vdnn::gpu
{

/** One self-clocked simulated GPU (device 0 of an implicit cluster). */
using Runtime = Device;

} // namespace vdnn::gpu

#endif // VDNN_GPU_RUNTIME_HH
