/**
 * @file
 * The vDNN runtime memory manager.
 *
 * Owns the GPU-side cnmem pool (sized to the device's physical
 * capacity, Section III-B), the pinned host allocator targeted by
 * offload, and the location state machine of every feature-map buffer:
 *
 *     Unallocated -> Device -> Offloading -> Host -> Prefetching -> Device
 *
 * Two usage signals are tracked against the simulated clock: the total
 * pool usage, and the *managed* usage (total minus the constant
 * classifier block), which is the quantity Figs. 11/12 report.
 */

#ifndef VDNN_CORE_MEMORY_MANAGER_HH
#define VDNN_CORE_MEMORY_MANAGER_HH

#include "common/types.hh"
#include "gpu/runtime.hh"
#include "mem/memory_pool.hh"
#include "mem/pinned_host.hh"
#include "mem/usage_tracker.hh"
#include "net/network.hh"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace vdnn::core
{

/** Where a feature-map buffer currently lives. */
enum class Residence : std::uint8_t
{
    Unallocated,
    Device,
    Offloading, ///< device copy valid, D2H transfer in flight
    Host,       ///< device copy released
    Prefetching ///< H2D transfer in flight, device copy filling
};

class MemoryManager
{
  public:
    /**
     * Exclusive mode: reserve the whole device for this manager (the
     * pool and pinned host allocator are created and owned here).
     * @param runtime     simulated CUDA runtime (provides the clock)
     * @param keep_timeline retain the full usage timeline for plotting
     */
    MemoryManager(gpu::Runtime &runtime, bool keep_timeline = false);

    /**
     * Multi-tenant mode: sub-allocate from a device pool and pinned
     * host allocator shared with other tenants. Every allocation is
     * charged to @p client in the pool's per-tenant accounting; the
     * total-usage tracker then follows this tenant's usage only.
     */
    MemoryManager(gpu::Runtime &runtime, mem::MemoryPool &shared_pool,
                  mem::PinnedHostAllocator &shared_host, int client,
                  bool keep_timeline = false);

    // --- raw tagged allocations (weights, gradients, workspace) ----------
    /**
     * Allocate from the GPU pool.
     * @param managed counts toward the vDNN-managed usage signal
     * @return nullopt on pool exhaustion (trainability failure)
     */
    std::optional<mem::Allocation>
    allocDevice(Bytes bytes, Label tag, bool managed);

    void releaseDevice(const mem::Allocation &alloc, bool managed);

    // --- buffer residence tracking -----------------------------------------
    /** Materialize @p buffer on the device. */
    bool allocBuffer(const net::Network &net, net::BufferId buffer);

    /**
     * Mark an offload in flight (device copy still valid). Allocates
     * the pinned host staging buffer; fails (returning false, leaving
     * the buffer device-resident) when host memory is exhausted.
     */
    bool beginOffload(const net::Network &net, net::BufferId buffer);

    /** Offload done: release the device copy, data now host-resident. */
    void finishOffload(const net::Network &net, net::BufferId buffer);

    /** Begin a prefetch: re-materialize the device copy. */
    bool beginPrefetch(const net::Network &net, net::BufferId buffer);

    /**
     * Prefetch done. The pinned host copy is *retained*: feature maps
     * are read-only once produced, so the host copy stays valid and
     * the device copy can later be dropped for free (evictToHost)
     * should memory pressure demand it.
     */
    void finishPrefetch(net::BufferId buffer);

    /**
     * Drop the device copy of a prefetched-but-unconsumed buffer,
     * reverting it to Host residence without any transfer (the pinned
     * host copy is still valid). Used to satisfy mandatory allocations
     * when the pool is fragmented or exhausted near the capacity
     * limit.
     */
    void evictToHost(const net::Network &net, net::BufferId buffer);

    /** Device-resident buffer that still has a valid host copy? */
    bool hostCopyValid(net::BufferId buffer) const;

    /** Release a device-resident buffer (no further reuse). */
    void releaseBuffer(const net::Network &net, net::BufferId buffer);

    /** Drop the pinned host copy of a Host-resident buffer. */
    void dropHostCopy(net::BufferId buffer);

    /**
     * Force a buffer back to Unallocated from any state, releasing
     * device and host copies. All transfers touching it must have been
     * drained (deviceSynchronize) beforehand. Used on aborted
     * iterations.
     */
    void forceRelease(const net::Network &net, net::BufferId buffer);

    Residence residence(net::BufferId buffer) const;

    // --- accounting ------------------------------------------------------------
    mem::MemoryPool &pool() { return *gpuPool; }
    mem::PinnedHostAllocator &host() { return *hostAlloc; }

    /** Tenant id this manager charges pool allocations to. */
    int clientId() const { return client; }

    /** Device bytes currently held by *this* manager (== pool usage in
     *  exclusive mode; one tenant's share in multi-tenant mode). */
    Bytes deviceUsage() const { return deviceBytes; }

    Bytes managedUsage() const { return managedBytes; }
    const mem::UsageTracker &totalTracker() const { return *totalTrack; }
    const mem::UsageTracker &managedTracker() const
    {
        return *managedTrack;
    }

    /** Close both usage windows at the current simulated time. */
    void finishTracking();

    /** Cumulative bytes offloaded to host (Fig. 12). */
    Bytes offloadedBytes() const { return offloadTotal; }

  private:
    struct BufferState
    {
        Residence residence = Residence::Unallocated;
        mem::Allocation device;
        mem::HostAllocation host;
        /** The pinned host copy holds valid data. */
        bool hostValid = false;
    };

    void initTrackers(bool keep_timeline);
    void touchManaged();
    /** Grow the state table to cover @p buffer and return its state. */
    BufferState &stateFor(net::BufferId buffer);

    gpu::Runtime &runtime;
    /** Owned in exclusive mode; null when sharing another's pool. */
    std::unique_ptr<mem::MemoryPool> ownedPool;
    std::unique_ptr<mem::PinnedHostAllocator> ownedHost;
    mem::MemoryPool *gpuPool = nullptr;
    mem::PinnedHostAllocator *hostAlloc = nullptr;
    std::unique_ptr<mem::UsageTracker> totalTrack;
    std::unique_ptr<mem::UsageTracker> managedTrack;
    /**
     * Indexed by BufferId (small dense ids from the network builder):
     * residence() sits on the executor's per-op hot path, so lookups
     * are an indexed load rather than a hash probe.
     */
    std::vector<BufferState> bufferStates;
    int client = 0;
    Bytes deviceBytes = 0;
    Bytes managedBytes = 0;
    Bytes offloadTotal = 0;
};

} // namespace vdnn::core

#endif // VDNN_CORE_MEMORY_MANAGER_HH
