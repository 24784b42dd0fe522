#include "mem/memory_pool.hh"

#include "common/logging.hh"
#include "common/units.hh"

#include <algorithm>
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

} // namespace

MemoryPool::MemoryPool(Bytes capacity, std::string name)
    : cap(alignUp(capacity, kAlignment)),
      largeThreshold(cap / kLargeFraction), poolName(std::move(name))
{
    VDNN_ASSERT(capacity > 0, "pool capacity must be positive");
    freeBlocks.push_back(FreeBlock{0, cap});
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
    // ties (the scan runs in offset order and keeps the first), so
    // layouts are deterministic. Small requests never need a separate
    // small-block pass: any sufficient block below the large threshold
    // is tighter than every large block, so plain best fit already
    // keeps them out of the holes the giant-class buffers cycle
    // through whenever a small hole fits.
    std::size_t best = freeBlocks.size();
    Bytes best_size = 0; // free blocks are never empty
    for (std::size_t i = 0; i < freeBlocks.size(); ++i) {
        Bytes bsize = freeBlocks[i].size;
        if (bsize < need || (best_size > 0 && bsize >= best_size))
            continue;
        best = i;
        best_size = bsize;
        if (bsize == need)
            break; // exact fit: nothing later can be tighter
    }

    if (best == freeBlocks.size()) {
        oom.requested = need;
        oom.totalFree = freeBytes();
        oom.largestFree = largestFreeBlock();
        tag.formatTo(oom.tag);
        return std::nullopt;
    }

    // Carve in place: the remainder stays inside the block's span, so
    // the vector keeps its offset order.
    FreeBlock &blk = freeBlocks[best];
    Bytes offset;
    if (need >= largeThreshold) {
        // Large: carve from the high end of the block.
        offset = blk.offset + blk.size - need;
    } else {
        // Small: carve from the low end.
        offset = blk.offset;
        blk.offset += need;
    }
    blk.size -= need;
    if (blk.size == 0)
        freeBlocks.erase(freeBlocks.begin() + std::ptrdiff_t(best));

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
                "release, or a handle from before releaseAll())",
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
    auto next = std::lower_bound(
        freeBlocks.begin(), freeBlocks.end(), offset,
        [](const FreeBlock &b, Bytes off) { return b.offset < off; });
    VDNN_ASSERT(next == freeBlocks.end() || next->offset != offset,
                "double free at offset %lld", (long long)offset);
    bool join_next =
        next != freeBlocks.end() && offset + size == next->offset;
    bool join_prev = next != freeBlocks.begin() &&
                     std::prev(next)->offset + std::prev(next)->size ==
                         offset;
    if (join_prev) {
        std::prev(next)->size += size;
        if (join_next) {
            std::prev(next)->size += next->size;
            freeBlocks.erase(next);
        }
    } else if (join_next) {
        next->offset = offset;
        next->size += size;
    } else {
        freeBlocks.insert(next, FreeBlock{offset, size});
    }
    notify();
}

void
MemoryPool::releaseAll()
{
    live.clear();
    freeBlocks.assign(1, FreeBlock{0, cap});
    used = 0;
    for (ClientUsage &cu : clients)
        cu.used = 0;
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

std::size_t
MemoryPool::activeClients() const
{
    std::size_t n = 0;
    for (const ClientUsage &cu : clients)
        n += cu.used > 0 ? 1 : 0;
    return n;
}

Bytes
MemoryPool::largestFreeBlock() const
{
    Bytes largest = 0;
    for (const FreeBlock &b : freeBlocks)
        largest = std::max(largest, b.size);
    return largest;
}

std::string
MemoryPool::layoutString() const
{
    // Merge live and free blocks into one offset-ordered map.
    std::map<Bytes, std::pair<Bytes, std::string>> blocks;
    for (const FreeBlock &b : freeBlocks)
        blocks[b.offset] = {b.size, "<free>"};
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
    // Free blocks are strictly offset-ordered, disjoint, non-adjacent
    // and inside the arena.
    Bytes total_free = 0;
    Bytes prev_end = -1;
    for (const FreeBlock &b : freeBlocks) {
        if (b.size <= 0 || b.offset < 0 || b.offset + b.size > cap)
            return false;
        if (prev_end >= 0 && b.offset <= prev_end)
            return false; // out of order, overlapping or uncoalesced
        prev_end = b.offset + b.size;
        total_free += b.size;
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
