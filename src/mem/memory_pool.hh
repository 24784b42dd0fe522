/**
 * @file
 * cnmem-style GPU memory pool.
 *
 * The CUDA library only supports synchronous cudaMalloc/cudaFree, which
 * force device-wide synchronization; vDNN therefore reserves the whole
 * physical GPU capacity up front and sub-allocates from a host-side pool
 * (NVIDIA cnmem, reference [37] of the paper). This class reproduces
 * that allocator: a fixed arena whose free list is two offset-ordered
 * lanes, one entry per free block: its offset, and its size in
 * kAlignment granules as a uint32_t. The granule lane is zero-padded
 * to a multiple of kLaneWidth entries, and a zero never fits (every
 * request takes at least one granule), so best fit (the smallest
 * sufficient block, the lowest offset on ties) is one branch-free
 * min-reduction over whole groups of eight that the compiler turns
 * into SSE2 compares, then a std::find for the first entry holding
 * that minimum. A (size, offset)-sorted index kept beside the offset
 * lane measured slower than this scan on dense-packed (about 3%): the
 * memmoves and binary searches it adds to every allocation and
 * release cost what it saves (README, "Flat best-fit pool").
 * Large requests are carved from the block's high end and the rest
 * from its low end (see kLargeFraction); release finds its
 * neighbours by binary search over the offset lane and coalesces with
 * them. The arena's granule count must fit the lane (just under
 * 2 TiB; see kMaxGranules). Live blocks sit in a
 * generation-checked slot vector (mem/slot_table.hh) carrying their
 * Label, so a warm pool allocates and releases without touching the
 * heap or formatting a string; a double or stale release asserts.
 * Offsets stand in for device pointers; no memory is actually backed.
 *
 * Out-of-memory is an *expected* outcome for some (network, policy,
 * algorithm) configurations — it is exactly what the paper's `*` marks
 * denote — so allocation failure is reported via std::optional rather
 * than an error path, and the failure details are retained for
 * diagnostics (OomInfo).
 */

#ifndef VDNN_MEM_MEMORY_POOL_HH
#define VDNN_MEM_MEMORY_POOL_HH

#include "common/label.hh"
#include "common/types.hh"
#include "mem/slot_table.hh"
#include "mem/usage_tracker.hh"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vdnn::mem
{

/** Handle to a live pool allocation. */
struct Allocation
{
    /** Slot and generation in the pool's live table; -1 = none. */
    std::int64_t id = -1;
    Bytes offset = 0;
    Bytes size = 0;

    bool valid() const { return id >= 0; }
};

/** Details of the most recent failed allocation. */
struct OomInfo
{
    Bytes requested = 0;
    Bytes totalFree = 0;
    Bytes largestFree = 0;
    /** The failed request's label, formatted when the OOM happened. */
    std::string tag;
};

class MemoryPool
{
  public:
    /** Allocation granularity; cnmem aligns to 512-byte boundaries. */
    static constexpr Bytes kAlignment = 512;

    /**
     * Placement segregation: allocations at or above the large
     * threshold (a fixed fraction of the arena) are carved from the
     * *high* end of the chosen free block, everything else from the
     * low end. This dlmalloc-style discipline keeps ordinary transient
     * allocations (workspaces, mid-size feature maps, classifier
     * tensors) from peppering the region the giant-class buffers (the
     * first conv groups' multi-GiB feature and gradient maps) must
     * repeatedly fit into. Without it, a long-running training pool
     * fragments and giant reallocation requests fail despite ample
     * total free space — trainability near the capacity limit (VGG-16
     * (256) on 12 GB) hinges on this.
     */
    static constexpr int kLargeFraction = 6; ///< large = capacity/6

    /** The granule lane's length is a multiple of this (zero-padded). */
    static constexpr std::size_t kLaneWidth = 8;

    /**
     * Largest arena in granules: one below UINT32_MAX, which the
     * best-fit reduction uses as "no fit". A larger capacity is a
     * fatal error at construction.
     */
    static constexpr Bytes kMaxGranules = Bytes(UINT32_MAX) - 1;

    /**
     * @param capacity arena size (the physical GPU memory reserved)
     * @param name     used in diagnostics
     */
    MemoryPool(Bytes capacity, std::string name = "pool");

    MemoryPool(const MemoryPool &) = delete;
    MemoryPool &operator=(const MemoryPool &) = delete;

    /**
     * Best-fit allocation of @p size bytes (rounded up to kAlignment).
     * @param tag label kept for diagnostics (OOM reports, layout
     *        dumps); formatted only there
     * @param client tenant id charged for the block (multi-tenant
     *        serving shares one pool among many jobs; 0 = sole tenant;
     *        must not be negative)
     * @return std::nullopt when no free block fits, a request larger
     *         than the arena included (details in lastOom())
     */
    std::optional<Allocation> tryAllocate(Bytes size, Label tag = {},
                                          int client = 0);

    /** tryAllocate() that treats failure as a fatal user error. */
    Allocation allocate(Bytes size, Label tag = {}, int client = 0);

    /**
     * Return an allocation to the pool; coalesces with neighbours.
     * Releasing a handle twice panics.
     */
    void release(const Allocation &alloc);

    Bytes capacity() const { return cap; }
    Bytes usedBytes() const { return used; }
    Bytes freeBytes() const { return cap - used; }
    Bytes largestFreeBlock() const;
    std::size_t liveAllocations() const { return live.size(); }
    std::size_t freeBlockCount() const { return freeOffsets.size(); }
    Bytes peakUsage() const { return peak; }

    // --- per-tenant accounting -------------------------------------------
    /** Live bytes charged to @p client. */
    Bytes usedByClient(int client) const;
    /** Peak bytes ever charged to @p client. */
    Bytes peakByClient(int client) const;

    const OomInfo &lastOom() const { return oom; }
    const std::string &name() const { return poolName; }

    /** Attach a tracker notified on every usage change (may be null). */
    void setTracker(UsageTracker *tracker);

    /** Internal consistency check (tests): the free blocks are strictly
     *  offset-ordered, disjoint and non-adjacent, free + live covers
     *  the arena, and the granule lane holds one nonzero entry per
     *  block followed by zero padding to a multiple of kLaneWidth. */
    bool checkInvariants() const;

    /** Human-readable arena map (offset-ordered blocks with tags). */
    std::string layoutString() const;

  private:
    struct LiveBlock
    {
        Bytes offset;
        Bytes size;
        Label tag;
        int client = 0;
    };

    struct ClientUsage
    {
        Bytes used = 0;
        Bytes peak = 0;
    };

    void notify();
    /** Byte size of free block @p i. */
    Bytes freeSize(std::size_t i) const
    {
        return Bytes(freeGranules[i]) * kAlignment;
    }
    /** Add or drop free block @p i, keeping the lane padded. */
    void insertFree(std::size_t i, Bytes offset, std::uint32_t granules);
    void eraseFree(std::size_t i);

    Bytes cap;
    Bytes largeThreshold;
    std::string poolName;
    Bytes used = 0;
    Bytes peak = 0;
    /** Free block offsets, sorted, disjoint and never adjacent
     *  (release coalesces). */
    std::vector<Bytes> freeOffsets;
    /** Free block sizes in granules, index for index with freeOffsets,
     *  then zeros up to a multiple of kLaneWidth. */
    std::vector<std::uint32_t> freeGranules;
    SlotTable<LiveBlock> live;
    /** Indexed by client id (small dense tenant ids). */
    std::vector<ClientUsage> clients;
    OomInfo oom;
    UsageTracker *usageTracker = nullptr;
};

} // namespace vdnn::mem

#endif // VDNN_MEM_MEMORY_POOL_HH
