#include "mem/memory_pool.hh"

#include "common/logging.hh"
#include "common/units.hh"

#include <algorithm>
#include <iterator>
#include <map>

namespace vdnn::mem
{

namespace
{

Bytes
alignUp(Bytes v, Bytes alignment)
{
    return (v + alignment - 1) / alignment * alignment;
}

/** The reduction's "no block fits"; no lane entry reaches it. */
constexpr std::uint32_t kNoFit = UINT32_MAX;

/**
 * The smallest of the @p n lane entries (a multiple of 8) that is at
 * least @p want, or kNoFit. Eight independent accumulators, one per
 * lane position, keep the loop free of a carried dependence and of
 * branches, so the compiler vectorizes it.
 */
std::uint32_t
smallestFit(const std::uint32_t *lane, std::size_t n, std::uint32_t want)
{
    std::uint32_t acc[MemoryPool::kLaneWidth];
    std::fill(std::begin(acc), std::end(acc), kNoFit);
    for (std::size_t i = 0; i < n; i += MemoryPool::kLaneWidth) {
        for (std::size_t k = 0; k < MemoryPool::kLaneWidth; ++k) {
            std::uint32_t v = lane[i + k];
            acc[k] = std::min(acc[k], v >= want ? v : kNoFit);
        }
    }
    return *std::min_element(std::begin(acc), std::end(acc));
}

/** Lane length holding @p blocks entries: the next multiple of 8. */
std::size_t
paddedLength(std::size_t blocks)
{
    return (blocks + MemoryPool::kLaneWidth - 1) / MemoryPool::kLaneWidth *
           MemoryPool::kLaneWidth;
}

} // namespace

MemoryPool::MemoryPool(Bytes capacity, std::string name)
    : cap(alignUp(capacity, kAlignment)),
      largeThreshold(cap / kLargeFraction), poolName(std::move(name))
{
    VDNN_ASSERT(capacity > 0, "pool capacity must be positive");
    if (cap / kAlignment > kMaxGranules) {
        fatal("%s: capacity %s (%lld bytes) exceeds the largest pool "
              "arena, %lld granules of %lld bytes",
              poolName.c_str(), formatBytes(cap).c_str(), (long long)cap,
              (long long)kMaxGranules, (long long)kAlignment);
    }
    freeOffsets.push_back(0);
    freeGranules.assign(kLaneWidth, 0);
    freeGranules[0] = std::uint32_t(cap / kAlignment);
}

void
MemoryPool::insertFree(std::size_t i, Bytes offset, std::uint32_t granules)
{
    freeOffsets.insert(freeOffsets.begin() + std::ptrdiff_t(i), offset);
    freeGranules.insert(freeGranules.begin() + std::ptrdiff_t(i), granules);
    freeGranules.resize(paddedLength(freeOffsets.size()));
}

void
MemoryPool::eraseFree(std::size_t i)
{
    freeOffsets.erase(freeOffsets.begin() + std::ptrdiff_t(i));
    freeGranules.erase(freeGranules.begin() + std::ptrdiff_t(i));
    freeGranules.resize(paddedLength(freeOffsets.size()));
}

void
MemoryPool::setTracker(UsageTracker *tracker)
{
    usageTracker = tracker;
    notify();
}

void
MemoryPool::notify()
{
    if (usageTracker)
        usageTracker->onUsage(used);
}

std::optional<Allocation>
MemoryPool::tryAllocate(Bytes size, Label tag, int client)
{
    VDNN_ASSERT(size >= 0, "negative allocation size");
    VDNN_ASSERT(client >= 0, "%s: negative client id %d for '%s'",
                poolName.c_str(), client, tag.str().c_str());
    Bytes need = std::max<Bytes>(alignUp(size, kAlignment), kAlignment);

    // Best fit: the smallest sufficient block, the lowest offset on
    // ties (std::find returns the first entry holding the minimum, and
    // the lanes run in offset order), so layouts are deterministic.
    // Small requests never need a separate small-block pass: any
    // sufficient block below the large threshold is tighter than every
    // large block, so plain best fit already keeps them out of the
    // holes the giant-class buffers cycle through whenever a small
    // hole fits. A request larger than the arena fails before its
    // granule count is narrowed to the lane's width.
    std::uint32_t best = kNoFit;
    std::uint32_t want = 0;
    if (need <= cap) {
        want = std::uint32_t(need / kAlignment);
        best = smallestFit(freeGranules.data(), freeGranules.size(), want);
    }
    if (best == kNoFit) {
        oom.requested = need;
        oom.totalFree = freeBytes();
        oom.largestFree = largestFreeBlock();
        tag.formatTo(oom.tag);
        return std::nullopt;
    }
    std::size_t i = std::size_t(
        std::find(freeGranules.begin(), freeGranules.end(), best) -
        freeGranules.begin());

    // Carve in place: the remainder stays inside the block's span, so
    // the lanes keep their offset order.
    Bytes offset;
    if (need >= largeThreshold) {
        // Large: carve from the high end of the block.
        offset = freeOffsets[i] + freeSize(i) - need;
    } else {
        // Small: carve from the low end.
        offset = freeOffsets[i];
        freeOffsets[i] += need;
    }
    freeGranules[i] -= want;
    if (freeGranules[i] == 0)
        eraseFree(i);

    Allocation a;
    a.id = live.insert(LiveBlock{offset, need, tag, client});
    a.offset = offset;
    a.size = need;
    used += need;
    peak = std::max(peak, used);
    if (std::size_t(client) >= clients.size())
        clients.resize(std::size_t(client) + 1);
    ClientUsage &cu = clients[std::size_t(client)];
    cu.used += need;
    cu.peak = std::max(cu.peak, cu.used);
    notify();
    return a;
}

Allocation
MemoryPool::allocate(Bytes size, Label tag, int client)
{
    auto a = tryAllocate(size, tag, client);
    if (!a) {
        fatal("%s: out of memory allocating %s for '%s' "
              "(free %s, largest block %s)",
              poolName.c_str(), formatBytes(size).c_str(),
              tag.str().c_str(),
              formatBytes(oom.totalFree).c_str(),
              formatBytes(oom.largestFree).c_str());
    }
    return *a;
}

void
MemoryPool::release(const Allocation &alloc)
{
    const LiveBlock *blk = live.find(alloc.id);
    VDNN_ASSERT(blk, "%s: releasing unknown allocation id %lld (double "
                "or stale release)",
                poolName.c_str(), (long long)alloc.id);
    Bytes offset = blk->offset;
    Bytes size = blk->size;
    int client = blk->client;
    live.erase(alloc.id);
    used -= size;
    VDNN_ASSERT(clients[std::size_t(client)].used >= size,
                "client %d accounting underflow", client);
    clients[std::size_t(client)].used -= size;

    // First free block above the released span; its predecessor (if
    // any) lies below it.
    std::size_t n = std::size_t(
        std::lower_bound(freeOffsets.begin(), freeOffsets.end(), offset) -
        freeOffsets.begin());
    VDNN_ASSERT(n == freeOffsets.size() || freeOffsets[n] != offset,
                "double free at offset %lld", (long long)offset);
    auto granules = std::uint32_t(size / kAlignment);
    bool join_next =
        n < freeOffsets.size() && offset + size == freeOffsets[n];
    bool join_prev =
        n > 0 && freeOffsets[n - 1] + freeSize(n - 1) == offset;
    if (join_prev) {
        freeGranules[n - 1] += granules;
        if (join_next) {
            freeGranules[n - 1] += freeGranules[n];
            eraseFree(n);
        }
    } else if (join_next) {
        freeOffsets[n] = offset;
        freeGranules[n] += granules;
    } else {
        insertFree(n, offset, granules);
    }
    notify();
}

Bytes
MemoryPool::usedByClient(int client) const
{
    return client >= 0 && std::size_t(client) < clients.size()
               ? clients[std::size_t(client)].used
               : 0;
}

Bytes
MemoryPool::peakByClient(int client) const
{
    return client >= 0 && std::size_t(client) < clients.size()
               ? clients[std::size_t(client)].peak
               : 0;
}

Bytes
MemoryPool::largestFreeBlock() const
{
    std::uint32_t largest = 0;
    for (std::uint32_t g : freeGranules)
        largest = std::max(largest, g);
    return Bytes(largest) * kAlignment;
}

std::string
MemoryPool::layoutString() const
{
    // Merge live and free blocks into one offset-ordered map.
    std::map<Bytes, std::pair<Bytes, std::string>> blocks;
    for (std::size_t i = 0; i < freeOffsets.size(); ++i)
        blocks[freeOffsets[i]] = {freeSize(i), "<free>"};
    live.forEach([&](const LiveBlock &blk) {
        blocks[blk.offset] = {blk.size, blk.tag.str()};
    });
    std::string out = strFormat("%s: %s used of %s\n", poolName.c_str(),
                                formatBytes(used).c_str(),
                                formatBytes(cap).c_str());
    for (const auto &[off, info] : blocks) {
        out += strFormat("  [%12lld +%12lld] %8.1f MiB  %s\n",
                         (long long)off, (long long)info.first,
                         double(info.first) / double(kMiB),
                         info.second.c_str());
    }
    return out;
}

bool
MemoryPool::checkInvariants() const
{
    // The granule lane holds one entry per block, then zeros up to a
    // multiple of the lane width.
    if (freeGranules.size() != paddedLength(freeOffsets.size()))
        return false;
    for (std::size_t i = freeOffsets.size(); i < freeGranules.size(); ++i) {
        if (freeGranules[i] != 0)
            return false;
    }
    // Free blocks are nonempty, strictly offset-ordered, disjoint,
    // non-adjacent and inside the arena.
    Bytes total_free = 0;
    Bytes prev_end = -1;
    for (std::size_t i = 0; i < freeOffsets.size(); ++i) {
        Bytes offset = freeOffsets[i];
        Bytes size = freeSize(i);
        if (size <= 0 || offset < 0 || offset + size > cap)
            return false;
        if (prev_end >= 0 && offset <= prev_end)
            return false; // out of order, overlapping or uncoalesced
        prev_end = offset + size;
        total_free += size;
    }
    Bytes total_live = 0;
    live.forEach([&](const LiveBlock &blk) { total_live += blk.size; });
    Bytes total_client = 0;
    for (const ClientUsage &cu : clients)
        total_client += cu.used;
    return total_free + total_live == cap && total_live == used &&
           total_client == used;
}

} // namespace vdnn::mem
