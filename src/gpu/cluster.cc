#include "gpu/cluster.hh"

#include "common/logging.hh"

namespace vdnn::gpu
{

ClusterSpec
homogeneousCluster(const GpuSpec &spec, int count)
{
    VDNN_ASSERT(count >= 1, "a cluster needs at least one device");
    ClusterSpec cs;
    cs.devices.assign(std::size_t(count), spec);
    return cs;
}

Cluster::Cluster(ClusterSpec spec)
{
    VDNN_ASSERT(!spec.devices.empty(),
                "a cluster needs at least one device");
    nodes.reserve(spec.devices.size());
    for (std::size_t i = 0; i < spec.devices.size(); ++i) {
        const GpuSpec &gs = spec.devices[i];
        Node n;
        n.dev = std::make_unique<Device>(int(i), gs, eq,
                                         spec.contention);
        n.pool = std::make_unique<mem::MemoryPool>(
            gs.dramCapacity,
            strFormat("%s[%zu] shared pool", gs.name.c_str(), i));
        n.host = std::make_unique<mem::PinnedHostAllocator>(
            gs.hostCapacity);
        nodes.push_back(std::move(n));
    }
}

Device &
Cluster::device(int i)
{
    VDNN_ASSERT(i >= 0 && i < deviceCount(), "bad device id %d", i);
    return *nodes[std::size_t(i)].dev;
}

const Device &
Cluster::device(int i) const
{
    VDNN_ASSERT(i >= 0 && i < deviceCount(), "bad device id %d", i);
    return *nodes[std::size_t(i)].dev;
}

mem::MemoryPool &
Cluster::pool(int i)
{
    VDNN_ASSERT(i >= 0 && i < deviceCount(), "bad device id %d", i);
    return *nodes[std::size_t(i)].pool;
}

mem::PinnedHostAllocator &
Cluster::host(int i)
{
    VDNN_ASSERT(i >= 0 && i < deviceCount(), "bad device id %d", i);
    return *nodes[std::size_t(i)].host;
}

Bytes
Cluster::totalCapacity() const
{
    Bytes total = 0;
    for (const Node &n : nodes)
        total += n.pool->capacity();
    return total;
}

void
Cluster::finishPowerWindows()
{
    for (Node &n : nodes)
        n.dev->finishPowerWindow();
}

void
Cluster::setTelemetry(obs::Telemetry t)
{
    for (Node &n : nodes)
        n.dev->setTelemetry(t);
}

void
Cluster::setWakeHook(Device::WakeHook hook, void *ctx)
{
    for (Node &n : nodes)
        n.dev->setWakeHook(hook, ctx);
}

} // namespace vdnn::gpu
