#include "mem/pinned_host.hh"

#include "common/logging.hh"
#include "common/units.hh"

#include <algorithm>

namespace vdnn::mem
{

PinnedHostAllocator::PinnedHostAllocator(Bytes capacity) : cap(capacity)
{
    VDNN_ASSERT(capacity > 0, "host capacity must be positive");
}

std::optional<HostAllocation>
PinnedHostAllocator::tryAllocate(Bytes size, Label tag)
{
    VDNN_ASSERT(size >= 0, "negative allocation size");
    if (used + size > cap)
        return std::nullopt;
    HostAllocation a;
    a.id = live.insert(LiveBuffer{size, tag});
    a.size = size;
    used += size;
    totalAlloc += size;
    peak = std::max(peak, used);
    return a;
}

HostAllocation
PinnedHostAllocator::allocate(Bytes size, Label tag)
{
    auto a = tryAllocate(size, tag);
    if (!a) {
        fatal("pinned host allocator: out of memory allocating %s for "
              "'%s' (used %s of %s)",
              formatBytes(size).c_str(), tag.str().c_str(),
              formatBytes(used).c_str(), formatBytes(cap).c_str());
    }
    return *a;
}

void
PinnedHostAllocator::release(const HostAllocation &alloc)
{
    const LiveBuffer *buf = live.find(alloc.id);
    VDNN_ASSERT(buf,
                "releasing unknown host allocation id %lld (double "
                "or stale release)",
                (long long)alloc.id);
    used -= buf->size;
    live.erase(alloc.id);
}

} // namespace vdnn::mem
