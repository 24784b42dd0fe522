/**
 * @file
 * Tests for the vDNN memory manager: the buffer residence state
 * machine, managed-vs-total accounting, host-copy retention and
 * eviction, and the offload traffic counters.
 */

#include "core/memory_manager.hh"

#include "common/units.hh"
#include "gpu/cluster.hh"
#include "net/builders.hh"

#include <gtest/gtest.h>

using namespace vdnn;
using namespace vdnn::core;
using namespace vdnn::literals;

class MemoryManagerTest : public ::testing::Test
{
  protected:
    MemoryManagerTest()
        : cluster({{gpu::titanXMaxwell()}}), rt(cluster.device(0)),
          mm(rt, cluster.pool(0), cluster.host(0), /*client=*/0),
          net(net::buildTinyCnn(4))
    {}

    gpu::Cluster cluster;
    gpu::Device &rt;
    MemoryManager mm;
    std::unique_ptr<net::Network> net;
};

TEST_F(MemoryManagerTest, PoolSizedToDeviceCapacity)
{
    EXPECT_EQ(mm.pool().capacity(),
              gpu::titanXMaxwell().dramCapacity);
    EXPECT_EQ(mm.host().capacity(), gpu::titanXMaxwell().hostCapacity);
}

TEST_F(MemoryManagerTest, BufferLifecycleDeviceOnly)
{
    net::BufferId b = net->inputBuffer();
    EXPECT_EQ(mm.residence(b), Residence::Unallocated);
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    EXPECT_EQ(mm.residence(b), Residence::Device);
    EXPECT_EQ(mm.pool().usedBytes(),
              ((net->buffer(b).bytes() + 511) / 512) * 512);
    mm.releaseBuffer(*net, b);
    EXPECT_EQ(mm.residence(b), Residence::Unallocated);
    EXPECT_EQ(mm.pool().usedBytes(), 0);
}

TEST_F(MemoryManagerTest, OffloadStateMachine)
{
    net::BufferId b = net->inputBuffer();
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    ASSERT_TRUE(mm.beginOffload(*net, b));
    EXPECT_EQ(mm.residence(b), Residence::Offloading);
    // Device copy still allocated while the DMA is in flight.
    EXPECT_GT(mm.pool().usedBytes(), 0);
    EXPECT_GT(mm.host().usedBytes(), 0);
    mm.finishOffload(*net, b);
    EXPECT_EQ(mm.residence(b), Residence::Host);
    EXPECT_EQ(mm.pool().usedBytes(), 0); // device copy released
    EXPECT_GT(mm.host().usedBytes(), 0);
}

TEST_F(MemoryManagerTest, PrefetchRestoresDeviceAndKeepsHostCopy)
{
    net::BufferId b = net->inputBuffer();
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    ASSERT_TRUE(mm.beginOffload(*net, b));
    mm.finishOffload(*net, b);

    ASSERT_TRUE(mm.beginPrefetch(*net, b));
    EXPECT_EQ(mm.residence(b), Residence::Prefetching);
    mm.finishPrefetch(b);
    EXPECT_EQ(mm.residence(b), Residence::Device);
    // Host copy retained: eviction stays free.
    EXPECT_TRUE(mm.hostCopyValid(b));
    EXPECT_GT(mm.host().usedBytes(), 0);
}

TEST_F(MemoryManagerTest, EvictionDropsDeviceCopyForFree)
{
    net::BufferId b = net->inputBuffer();
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    ASSERT_TRUE(mm.beginOffload(*net, b));
    mm.finishOffload(*net, b);
    ASSERT_TRUE(mm.beginPrefetch(*net, b));
    mm.finishPrefetch(b);

    Bytes offload_before = mm.offloadedBytes();
    mm.evictToHost(*net, b);
    EXPECT_EQ(mm.residence(b), Residence::Host);
    EXPECT_EQ(mm.pool().usedBytes(), 0);
    // Eviction is not a new offload: no transfer, no traffic counted.
    EXPECT_EQ(mm.offloadedBytes(), offload_before);
    // And it can be prefetched again.
    ASSERT_TRUE(mm.beginPrefetch(*net, b));
    mm.finishPrefetch(b);
    EXPECT_EQ(mm.residence(b), Residence::Device);
}

TEST_F(MemoryManagerTest, FinalReleaseDropsRetainedHostCopy)
{
    net::BufferId b = net->inputBuffer();
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    ASSERT_TRUE(mm.beginOffload(*net, b));
    mm.finishOffload(*net, b);
    ASSERT_TRUE(mm.beginPrefetch(*net, b));
    mm.finishPrefetch(b);
    mm.releaseBuffer(*net, b);
    EXPECT_EQ(mm.residence(b), Residence::Unallocated);
    EXPECT_EQ(mm.host().usedBytes(), 0);
    EXPECT_FALSE(mm.hostCopyValid(b));
}

TEST_F(MemoryManagerTest, OffloadTrafficAccumulates)
{
    net::BufferId b = net->inputBuffer();
    Bytes size = net->buffer(b).bytes();
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(mm.allocBuffer(*net, b));
        ASSERT_TRUE(mm.beginOffload(*net, b));
        mm.finishOffload(*net, b);
        mm.dropHostCopy(b);
    }
    EXPECT_EQ(mm.offloadedBytes(), 3 * size);
}

TEST_F(MemoryManagerTest, ManagedAccountingExcludesClassifier)
{
    // TinyCNN's fc buffers are classifier buffers.
    net::BufferId managed_buf = net->inputBuffer();
    net::BufferId classifier_buf = -1;
    for (net::BufferId b = 0; b < net::BufferId(net->numBuffers()); ++b) {
        if (net->buffer(b).classifier) {
            classifier_buf = b;
            break;
        }
    }
    ASSERT_NE(classifier_buf, -1);

    ASSERT_TRUE(mm.allocBuffer(*net, managed_buf));
    Bytes managed_after_first = mm.managedUsage();
    EXPECT_GT(managed_after_first, 0);
    ASSERT_TRUE(mm.allocBuffer(*net, classifier_buf));
    // The classifier buffer raises total but not managed usage.
    EXPECT_EQ(mm.managedUsage(), managed_after_first);
    EXPECT_GT(mm.pool().usedBytes(), managed_after_first);
}

TEST_F(MemoryManagerTest, ForceReleaseFromEveryState)
{
    net::BufferId b = net->inputBuffer();
    // Device.
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    mm.forceRelease(*net, b);
    EXPECT_EQ(mm.residence(b), Residence::Unallocated);
    // Offloading.
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    ASSERT_TRUE(mm.beginOffload(*net, b));
    mm.forceRelease(*net, b);
    EXPECT_EQ(mm.residence(b), Residence::Unallocated);
    // Host.
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    ASSERT_TRUE(mm.beginOffload(*net, b));
    mm.finishOffload(*net, b);
    mm.forceRelease(*net, b);
    EXPECT_EQ(mm.residence(b), Residence::Unallocated);
    // Prefetching.
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    ASSERT_TRUE(mm.beginOffload(*net, b));
    mm.finishOffload(*net, b);
    ASSERT_TRUE(mm.beginPrefetch(*net, b));
    mm.forceRelease(*net, b);
    EXPECT_EQ(mm.residence(b), Residence::Unallocated);
    // Everything balanced.
    EXPECT_EQ(mm.pool().usedBytes(), 0);
    EXPECT_EQ(mm.host().usedBytes(), 0);
}

TEST_F(MemoryManagerTest, UsageTrackersFollowSimulatedTime)
{
    net::BufferId b = net->inputBuffer();
    // Advance simulated time between allocations via a dummy kernel.
    auto s = rt.createStream("s");
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    gpu::KernelDesc k;
    k.name = "spin";
    k.duration = 1000;
    rt.launchKernel(s, k);
    rt.synchronize(s);
    mm.releaseBuffer(*net, b);
    rt.launchKernel(s, k);
    rt.synchronize(s);
    mm.finish();
    Bytes size = ((net->buffer(b).bytes() + 511) / 512) * 512;
    EXPECT_EQ(mm.totalTracker().peakBytes(), size);
    // Allocated for half the 2000 ns window.
    EXPECT_EQ(mm.totalTracker().averageBytes(), size / 2);
}

TEST_F(MemoryManagerTest, DeviceOomReturnsFalseAndKeepsState)
{
    gpu::GpuSpec tiny = gpu::titanXMaxwell();
    tiny.dramCapacity = 1_MiB;
    gpu::Cluster tiny_gpu({{tiny}});
    MemoryManager mm2(tiny_gpu.device(0), tiny_gpu.pool(0),
                      tiny_gpu.host(0), /*client=*/0);
    auto big = net::buildTinyCnn(64, 64); // input exceeds 1 MiB
    EXPECT_FALSE(mm2.allocBuffer(*big, big->inputBuffer()));
    EXPECT_EQ(mm2.residence(big->inputBuffer()),
              Residence::Unallocated);
    EXPECT_EQ(mm2.pool().usedBytes(), 0);
}

TEST_F(MemoryManagerTest, HostExhaustionFailsOffloadGracefully)
{
    gpu::GpuSpec spec = gpu::titanXMaxwell();
    spec.hostCapacity = 1_KiB;
    gpu::Cluster small_host({{spec}});
    MemoryManager mm2(small_host.device(0), small_host.pool(0),
                      small_host.host(0), /*client=*/0);
    net::BufferId b = net->inputBuffer();
    ASSERT_TRUE(mm2.allocBuffer(*net, b));
    EXPECT_FALSE(mm2.beginOffload(*net, b));
    // Buffer remains device resident and usable.
    EXPECT_EQ(mm2.residence(b), Residence::Device);
}

TEST_F(MemoryManagerTest, DoubleAllocPanics)
{
    net::BufferId b = net->inputBuffer();
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    EXPECT_DEATH(mm.allocBuffer(*net, b), "already materialized");
}

TEST_F(MemoryManagerTest, OffloadOfNonResidentPanics)
{
    EXPECT_DEATH(mm.beginOffload(*net, net->inputBuffer()),
                 "non-resident");
}

TEST_F(MemoryManagerTest, EvictWithoutHostCopyPanics)
{
    net::BufferId b = net->inputBuffer();
    ASSERT_TRUE(mm.allocBuffer(*net, b));
    EXPECT_DEATH(mm.evictToHost(*net, b), "evict");
}
