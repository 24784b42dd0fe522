/**
 * @file
 * Pinned (page-locked) host memory allocator.
 *
 * vDNN offload targets host memory allocated with cudaMallocHost():
 * pinned pages are required for async DMA. The model tracks the total
 * pinned footprint against the host DRAM capacity (64 GB DDR4 in the
 * paper's node) — Fig. 15 reports exactly this CPU-side allocation.
 * Live buffers sit in a generation-checked slot vector
 * (mem/slot_table.hh) with their Label, so a warm allocator pins and
 * unpins without touching the heap; a double or stale release asserts.
 */

#ifndef VDNN_MEM_PINNED_HOST_HH
#define VDNN_MEM_PINNED_HOST_HH

#include "common/label.hh"
#include "common/types.hh"
#include "mem/slot_table.hh"

#include <cstdint>
#include <optional>

namespace vdnn::mem
{

/** Handle to a pinned host buffer. */
struct HostAllocation
{
    /** Slot and generation in the allocator's live table; -1 = none. */
    std::int64_t id = -1;
    Bytes size = 0;

    bool valid() const { return id >= 0; }
};

class PinnedHostAllocator
{
  public:
    explicit PinnedHostAllocator(Bytes capacity);

    /** cudaMallocHost(); fails when host DRAM would be exhausted. */
    std::optional<HostAllocation> tryAllocate(Bytes size, Label tag = {});

    /** tryAllocate() that treats failure as a fatal user error. */
    HostAllocation allocate(Bytes size, Label tag = {});

    /** cudaFreeHost(). A double or stale release panics. */
    void release(const HostAllocation &alloc);

    /** Free all buffers (between experiments). */
    void releaseAll();

    Bytes capacity() const { return cap; }
    Bytes usedBytes() const { return used; }
    Bytes peakUsage() const { return peak; }
    /** Cumulative bytes ever pinned (Fig. 12's offload footprint). */
    Bytes totalAllocated() const { return totalAlloc; }
    std::size_t liveAllocations() const { return live.size(); }

  private:
    struct LiveBuffer
    {
        Bytes size = 0;
        Label tag;
    };

    Bytes cap;
    Bytes used = 0;
    Bytes peak = 0;
    Bytes totalAlloc = 0;
    SlotTable<LiveBuffer> live;
};

} // namespace vdnn::mem

#endif // VDNN_MEM_PINNED_HOST_HH
