/**
 * @file
 * GPU device specifications.
 *
 * The paper evaluates on an NVIDIA Titan X (Maxwell): 7 TFLOPS single
 * precision, 336 GB/s GDDR5, 12 GB capacity, attached over PCIe gen3 x16
 * to an i7-5930K with 64 GB DDR4 (Section IV-B). Presets for a few other
 * devices are provided for sensitivity studies.
 */

#ifndef VDNN_GPU_GPU_SPEC_HH
#define VDNN_GPU_GPU_SPEC_HH

#include "common/types.hh"
#include "interconnect/pcie_link.hh"

#include <string>

namespace vdnn::gpu
{

struct GpuSpec
{
    std::string name = "GPU";
    /** Peak single-precision throughput, FLOP/s. */
    double peakFlops = 7.0e12;
    /** Peak DRAM bandwidth, bytes/s. */
    double dramBandwidth = 336.0e9;
    /** Device memory capacity. */
    Bytes dramCapacity = Bytes(12) * 1024 * 1024 * 1024;
    /** Host DRAM capacity available for pinned buffers. */
    Bytes hostCapacity = Bytes(64) * 1024 * 1024 * 1024;
    /** Host<->device interconnect. */
    ic::PcieSpec pcie = ic::pcieGen3x16();

    /**
     * Power model parameters (linear activity model, Section V-D).
     * Titan X TDP is 250 W; nvprof-style measurements put idle draw
     * around 70 W and full-tilt training around 200-240 W.
     */
    double idlePowerW = 70.0;
    /** Dynamic compute power at 100% SM utilization. */
    double computePowerW = 140.0;
    /** Dynamic memory power at 100% DRAM bandwidth utilization. */
    double dramPowerW = 40.0;
    /** Copy engine + PCIe PHY power while a DMA is in flight. */
    double copyPowerW = 8.0;

    bool operator==(const GpuSpec &) const = default;
};

/** NVIDIA Titan X (Maxwell) — the paper's evaluation GPU. */
GpuSpec titanXMaxwell();

/** NVIDIA Titan X (Pascal) — sensitivity preset: faster compute. */
GpuSpec titanXPascal();

/** NVIDIA Tesla K40 — sensitivity preset: older, slower, 12 GB. */
GpuSpec teslaK40();

/** A small 4 GB device used to stress trainability decisions. */
GpuSpec smallGpu4GiB();

} // namespace vdnn::gpu

#endif // VDNN_GPU_GPU_SPEC_HH
