#include "core/memory_manager.hh"

#include "common/logging.hh"

namespace vdnn::core
{

MemoryManager::MemoryManager(gpu::Device &device, mem::MemoryPool &pool,
                             mem::PinnedHostAllocator &host, int client_id,
                             bool keep_timeline)
    : dev(device), gpuPool(pool), hostAlloc(host), client(client_id)
{
    const TimeNs *clock = dev.clock().timeSource();
    totalTrack = std::make_unique<mem::UsageTracker>(clock, keep_timeline);
    managedTrack =
        std::make_unique<mem::UsageTracker>(clock, keep_timeline);
    totalTrack->onUsage(deviceBytes);
    touchManaged();
    streamCompute = dev.createStream("stream_compute");
    streamMemory = dev.createStream("stream_memory");
    dev.setStreamClient(streamCompute, client);
    dev.setStreamClient(streamMemory, client);
}

MemoryManager::~MemoryManager()
{
    if (streamCompute >= 0)
        finish();
}

void
MemoryManager::touchManaged()
{
    managedTrack->onUsage(managedBytes);
}

MemoryManager::BufferState &
MemoryManager::stateFor(net::BufferId buffer)
{
    VDNN_ASSERT(buffer >= 0, "negative buffer id %d", buffer);
    if (size_t(buffer) >= bufferStates.size())
        bufferStates.resize(size_t(buffer) + 1);
    return bufferStates[size_t(buffer)];
}

std::optional<mem::Allocation>
MemoryManager::allocDevice(Bytes bytes, Label tag, bool managed)
{
    auto a = gpuPool.tryAllocate(bytes, tag, client);
    if (a) {
        deviceBytes += a->size;
        totalTrack->onUsage(deviceBytes);
        if (managed) {
            managedBytes += a->size;
            touchManaged();
        }
    }
    return a;
}

void
MemoryManager::releaseDevice(const mem::Allocation &alloc, bool managed)
{
    gpuPool.release(alloc);
    deviceBytes -= alloc.size;
    VDNN_ASSERT(deviceBytes >= 0, "device usage went negative");
    totalTrack->onUsage(deviceBytes);
    if (managed) {
        managedBytes -= alloc.size;
        VDNN_ASSERT(managedBytes >= 0, "managed usage went negative");
        touchManaged();
    }
}

bool
MemoryManager::allocBuffer(const net::Network &net, net::BufferId buffer)
{
    BufferState &st = stateFor(buffer);
    VDNN_ASSERT(st.residence == Residence::Unallocated,
                "buffer %d is already materialized (state %d)", buffer,
                int(st.residence));
    const net::Buffer &b = net.buffer(buffer);
    auto a = allocDevice(b.bytes(), Label::indexed("fmap:", buffer),
                         !b.classifier);
    if (!a)
        return false;
    st.device = *a;
    st.residence = Residence::Device;
    return true;
}

bool
MemoryManager::beginOffload(const net::Network &net, net::BufferId buffer)
{
    BufferState &st = stateFor(buffer);
    VDNN_ASSERT(st.residence == Residence::Device,
                "offload of non-resident buffer %d", buffer);
    const net::Buffer &b = net.buffer(buffer);
    // Pinned host staging region, allocated with cudaMallocHost().
    auto h = hostAlloc.tryAllocate(b.bytes(),
                                   Label::indexed("offload:", buffer));
    if (!h)
        return false;
    st.host = *h;
    st.hostValid = true;
    st.residence = Residence::Offloading;
    offloadTotal += b.bytes();
    return true;
}

void
MemoryManager::finishOffload(const net::Network &net, net::BufferId buffer)
{
    BufferState &st = stateFor(buffer);
    VDNN_ASSERT(st.residence == Residence::Offloading,
                "finishOffload on buffer %d in state %d", buffer,
                int(st.residence));
    releaseDevice(st.device, !net.buffer(buffer).classifier);
    st.device = {};
    st.residence = Residence::Host;
}

bool
MemoryManager::beginPrefetch(const net::Network &net, net::BufferId buffer)
{
    BufferState &st = stateFor(buffer);
    VDNN_ASSERT(st.residence == Residence::Host,
                "prefetch of buffer %d in state %d", buffer,
                int(st.residence));
    const net::Buffer &b = net.buffer(buffer);
    auto a = allocDevice(b.bytes(), Label::indexed("prefetch:", buffer),
                         !b.classifier);
    if (!a)
        return false;
    st.device = *a;
    st.residence = Residence::Prefetching;
    return true;
}

void
MemoryManager::finishPrefetch(net::BufferId buffer)
{
    BufferState &st = stateFor(buffer);
    VDNN_ASSERT(st.residence == Residence::Prefetching,
                "finishPrefetch on buffer %d in state %d", buffer,
                int(st.residence));
    // Host copy retained (still valid) so eviction stays free.
    st.residence = Residence::Device;
}

void
MemoryManager::evictToHost(const net::Network &net, net::BufferId buffer)
{
    BufferState &st = stateFor(buffer);
    VDNN_ASSERT(st.residence == Residence::Device && st.hostValid,
                "evict of buffer %d in state %d (hostValid=%d)", buffer,
                int(st.residence), int(st.hostValid));
    releaseDevice(st.device, !net.buffer(buffer).classifier);
    st.device = {};
    st.residence = Residence::Host;
}

bool
MemoryManager::hostCopyValid(net::BufferId buffer) const
{
    return buffer >= 0 && size_t(buffer) < bufferStates.size() &&
           bufferStates[size_t(buffer)].hostValid;
}

void
MemoryManager::releaseBuffer(const net::Network &net, net::BufferId buffer)
{
    BufferState &st = stateFor(buffer);
    VDNN_ASSERT(st.residence == Residence::Device,
                "release of buffer %d in state %d", buffer,
                int(st.residence));
    releaseDevice(st.device, !net.buffer(buffer).classifier);
    st.device = {};
    if (st.hostValid) {
        hostAlloc.release(st.host);
        st.host = {};
        st.hostValid = false;
    }
    st.residence = Residence::Unallocated;
}

void
MemoryManager::dropHostCopy(net::BufferId buffer)
{
    BufferState &st = stateFor(buffer);
    VDNN_ASSERT(st.residence == Residence::Host,
                "dropHostCopy on buffer %d in state %d", buffer,
                int(st.residence));
    hostAlloc.release(st.host);
    st.host = {};
    st.hostValid = false;
    st.residence = Residence::Unallocated;
}

void
MemoryManager::forceRelease(const net::Network &net, net::BufferId buffer)
{
    switch (residence(buffer)) {
      case Residence::Unallocated:
        return;
      case Residence::Device:
        releaseBuffer(net, buffer);
        return;
      case Residence::Offloading:
        finishOffload(net, buffer);
        dropHostCopy(buffer);
        return;
      case Residence::Host:
        dropHostCopy(buffer);
        return;
      case Residence::Prefetching:
        finishPrefetch(buffer);
        releaseBuffer(net, buffer);
        return;
    }
}

Residence
MemoryManager::residence(net::BufferId buffer) const
{
    if (buffer < 0 || size_t(buffer) >= bufferStates.size())
        return Residence::Unallocated;
    return bufferStates[size_t(buffer)].residence;
}

void
MemoryManager::finish()
{
    totalTrack->finish();
    managedTrack->finish();
    if (streamCompute >= 0) {
        dev.destroyStream(streamCompute);
        dev.destroyStream(streamMemory);
        streamCompute = streamMemory = -1;
    }
}

} // namespace vdnn::core
