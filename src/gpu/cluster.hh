/**
 * @file
 * A GPU node: N simulated devices on one shared clock.
 *
 * The Cluster is the one way to stand up a simulated GPU. The serving
 * engine builds one per run; a Session run alone (core::runSession,
 * every paper figure) and each vDNN_dyn profiling trial build a
 * private one-device cluster. The Cluster owns the discrete-event
 * queue every member device schedules against, so kernels and DMAs on
 * different devices overlap on one consistent simulated timeline. Each
 * device keeps its own engines (one compute, two DMA), PCIe link and
 * fair-share arbiters (gpu/device.hh), and the cluster additionally
 * gives each one:
 *
 *  - a private cnmem-style device pool sized to its GpuSpec capacity
 *    (vDNN reserves the whole physical memory up front, Section
 *    III-B); tenants of different devices never contend for arena
 *    space, only tenants of the same device do;
 *  - a pinned-host staging share sized to its GpuSpec hostCapacity —
 *    the slice of node DRAM reserved for that device's offload,
 *    eviction and migration traffic.
 *
 * Devices may be heterogeneous: each entry of ClusterSpec::devices is
 * a full GpuSpec, so a node can mix, say, a Titan X with a K40 and the
 * serve layer's placement policies see the per-device capacities.
 */

#ifndef VDNN_GPU_CLUSTER_HH
#define VDNN_GPU_CLUSTER_HH

#include "gpu/device.hh"
#include "gpu/gpu_spec.hh"
#include "mem/memory_pool.hh"
#include "mem/pinned_host.hh"
#include "sim/event_queue.hh"

#include <memory>
#include <vector>

namespace vdnn::gpu
{

/** What to build a cluster out of. */
struct ClusterSpec
{
    /** One GpuSpec per device (heterogeneous clusters allowed). */
    std::vector<GpuSpec> devices;
    /** Model compute/DMA DRAM contention on every device. */
    bool contention = true;
};

/** @p count identical devices of @p spec. */
ClusterSpec homogeneousCluster(const GpuSpec &spec, int count);

class Cluster
{
  public:
    explicit Cluster(ClusterSpec spec);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    int deviceCount() const { return int(nodes.size()); }

    Device &device(int i);
    const Device &device(int i) const;

    /** Device @p i's private cnmem pool (sized to its dramCapacity). */
    mem::MemoryPool &pool(int i);

    /** Device @p i's pinned-host staging share. */
    mem::PinnedHostAllocator &host(int i);

    /** The shared clock all member devices schedule against. */
    sim::EventQueue &clock() { return eq; }

    TimeNs now() const { return eq.now(); }

    /** Advance the shared clock, executing due work on every device. */
    void advanceTo(TimeNs t) { eq.runUntil(t); }

    /**
     * Execute the single next pending event on whichever device owns
     * it. @return false when no event is pending anywhere.
     */
    bool stepDevice() { return eq.step(); }

    /** Sum of the member devices' memory capacities. */
    Bytes totalCapacity() const;

    /** Close every device's power observation window. */
    void finishPowerWindows();

    /** Attach telemetry sinks to every member device. */
    void setTelemetry(obs::Telemetry t);

    /** Attach an event-completion wake hook to every member device
     *  (see Device::setWakeHook); the hook receives the device id and
     *  the owning client of the stream the completion landed on. */
    void setWakeHook(Device::WakeHook hook, void *ctx);

  private:
    struct Node
    {
        std::unique_ptr<Device> dev;
        std::unique_ptr<mem::MemoryPool> pool;
        std::unique_ptr<mem::PinnedHostAllocator> host;
    };

    sim::EventQueue eq;
    std::vector<Node> nodes;
};

} // namespace vdnn::gpu

#endif // VDNN_GPU_CLUSTER_HH
