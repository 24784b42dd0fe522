/**
 * @file
 * PCI Express link model for DMA transfers between host and GPU.
 *
 * The vDNN paper's node uses a gen3 x16 switch: 16 GB/s raw, with DMA
 * initiated cudaMemcpy achieving ~12.8 GB/s effective (Section II-C).
 * The model is: a per-transfer fixed setup latency plus bytes divided by
 * the effective bandwidth. Effective bandwidth ramps down for very small
 * transfers (the setup cost dominates), matching the measured behaviour
 * that motivates batching transfers at feature-map granularity.
 */

#ifndef VDNN_INTERCONNECT_PCIE_LINK_HH
#define VDNN_INTERCONNECT_PCIE_LINK_HH

#include "common/types.hh"

#include <string>

namespace vdnn::ic
{

struct PcieSpec
{
    /** Marketing name, e.g. "PCIe gen3 x16". */
    std::string name = "PCIe gen3 x16";
    /** Raw link bandwidth, bytes/sec (16 GB/s for gen3 x16). */
    double rawBandwidth = 16.0e9;
    /** Effective DMA bandwidth, bytes/sec (12.8 GB/s measured). */
    double dmaBandwidth = 12.8e9;
    /** Fixed per-transfer setup latency (driver + DMA engine kick). */
    TimeNs setupLatency = 8000; // 8 us

    bool operator==(const PcieSpec &) const = default;
};

/** Preset matching the paper's evaluation node (Section IV-B). */
PcieSpec pcieGen3x16();

/** Hypothetical NVLINK-class interconnect (Section III-A mentions it). */
PcieSpec nvlinkGen1();

class PcieLink
{
  public:
    explicit PcieLink(PcieSpec spec);

    /** Time to DMA @p bytes across the link (either direction). */
    TimeNs transferTime(Bytes bytes) const;

    /** Effective achieved bandwidth for a transfer of @p bytes. */
    double achievedBandwidth(Bytes bytes) const;

    const PcieSpec &spec() const { return linkSpec; }

  private:
    PcieSpec linkSpec;
};

} // namespace vdnn::ic

#endif // VDNN_INTERCONNECT_PCIE_LINK_HH
