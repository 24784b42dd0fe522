/**
 * @file
 * Unit tests for one simulated GPU, a gpu::Device on a local clock:
 * stream FIFO semantics, cross-stream overlap, stream marks,
 * synchronization, contention and power accounting. These are the execution semantics vDNN's
 * offload/prefetch correctness rests on (Section III-B, Figure 9).
 */

#include "gpu/device.hh"

#include "common/units.hh"

#include <gtest/gtest.h>

using namespace vdnn;
using namespace vdnn::gpu;
using namespace vdnn::literals;

namespace
{

/** A spec with easy round numbers for hand-computed latencies. */
GpuSpec
testSpec()
{
    GpuSpec s;
    s.name = "test-gpu";
    s.peakFlops = 1.0e12;
    s.dramBandwidth = 100.0e9;
    s.dramCapacity = 1_GiB;
    s.pcie.dmaBandwidth = 10.0e9;
    s.pcie.rawBandwidth = 16.0e9;
    s.pcie.setupLatency = 0;
    return s;
}

/** A kernel named @p name: a label of a string literal, which outlives
 *  the command (a KernelDesc keeps a Label, not a copy of the name). */
KernelDesc
kernel(const char *name, TimeNs dur, Bytes dram_bytes = 0)
{
    KernelDesc k;
    k.name = name;
    k.duration = dur;
    k.dramBytes = dram_bytes;
    k.flops = 0.0;
    return k;
}

} // namespace

TEST(Runtime, KernelsOnOneStreamSerialize)
{
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock);
    auto s = rt.createStream("compute");
    rt.launchKernel(s, kernel("k1", 1000));
    rt.launchKernel(s, kernel("k2", 500));
    rt.synchronize(s);
    EXPECT_EQ(rt.now(), 1500);
    EXPECT_EQ(rt.computeBusyTime(), 1500);
}

TEST(Runtime, HostClockOnlyAdvancesOnSync)
{
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock);
    auto s = rt.createStream("compute");
    rt.launchKernel(s, kernel("k1", 1000));
    EXPECT_EQ(rt.now(), 0); // async launch does not block the host
    rt.synchronize(s);
    EXPECT_EQ(rt.now(), 1000);
}

TEST(Runtime, KernelAndCopyOverlapAcrossStreams)
{
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock, /*enable_contention=*/false);
    auto sc = rt.createStream("compute");
    auto sm = rt.createStream("memory");
    // 10 GB/s link: 1 MiB takes ~104.8 us; kernel takes 200 us.
    rt.launchKernel(sc, kernel("conv", 200_us));
    rt.memcpyAsync(sm, 1_MiB, CopyDir::DeviceToHost, "offload");
    rt.synchronize(sc);
    rt.synchronize(sm);
    // Full overlap: the makespan equals the longer of the two.
    EXPECT_EQ(rt.now(), 200_us);
}

TEST(Runtime, CopyLongerThanKernelDeterminesMakespan)
{
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock, false);
    auto sc = rt.createStream("compute");
    auto sm = rt.createStream("memory");
    rt.launchKernel(sc, kernel("conv", 50_us));
    rt.memcpyAsync(sm, 10_MiB, CopyDir::DeviceToHost, "offload");
    rt.deviceSynchronize();
    // 10 MiB at 10 GB/s = 1048.576 us > 50 us.
    EXPECT_GT(rt.now(), 1000_us);
    EXPECT_LT(rt.now(), 1100_us);
}

TEST(Runtime, TwoComputeStreamsShareOneEngine)
{
    // The GPU can only process one layer's kernel at a time (paper
    // Section II-B): two streams of kernels must serialize.
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock);
    auto s1 = rt.createStream("a");
    auto s2 = rt.createStream("b");
    rt.launchKernel(s1, kernel("k1", 1000));
    rt.launchKernel(s2, kernel("k2", 1000));
    rt.deviceSynchronize();
    EXPECT_EQ(rt.now(), 2000);
}

TEST(Runtime, OppositeDirectionCopiesOverlap)
{
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock, false);
    auto s1 = rt.createStream("a");
    auto s2 = rt.createStream("b");
    rt.memcpyAsync(s1, 10_MiB, CopyDir::DeviceToHost, "off");
    rt.memcpyAsync(s2, 10_MiB, CopyDir::HostToDevice, "pre");
    rt.deviceSynchronize();
    TimeNs single = transferTimeNs(10_MiB, 10.0e9);
    EXPECT_EQ(rt.now(), single); // dual copy engines run concurrently
}

TEST(Runtime, SameDirectionCopiesSerialize)
{
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock, false);
    auto s1 = rt.createStream("a");
    auto s2 = rt.createStream("b");
    rt.memcpyAsync(s1, 10_MiB, CopyDir::DeviceToHost, "off1");
    rt.memcpyAsync(s2, 10_MiB, CopyDir::DeviceToHost, "off2");
    rt.deviceSynchronize();
    TimeNs single = transferTimeNs(10_MiB, 10.0e9);
    EXPECT_EQ(rt.now(), 2 * single); // one D2H engine
}

TEST(Runtime, StreamMarkPassesWhenPriorCommandsRetire)
{
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock, false);
    auto sm = rt.createStream("memory");
    // A mark taken on an idle stream has already passed.
    EXPECT_TRUE(rt.markPassed(sm, rt.streamMark(sm)));

    rt.memcpyAsync(sm, 10_MiB, CopyDir::DeviceToHost, "off1");
    StreamMark first = rt.streamMark(sm);
    rt.memcpyAsync(sm, 10_MiB, CopyDir::DeviceToHost, "off2");
    StreamMark second = rt.streamMark(sm);
    EXPECT_FALSE(rt.markPassed(sm, first));

    // The first copy lands; the second is still in flight.
    TimeNs copy = transferTimeNs(10_MiB, 10.0e9);
    ASSERT_TRUE(rt.stepDevice());
    EXPECT_EQ(rt.now(), copy);
    EXPECT_TRUE(rt.markPassed(sm, first));
    EXPECT_FALSE(rt.markPassed(sm, second));
    EXPECT_FALSE(rt.streamIdle(sm));

    rt.synchronize(sm);
    EXPECT_EQ(rt.now(), 2 * copy);
    EXPECT_TRUE(rt.markPassed(sm, second));
}

TEST(Runtime, BytesCopiedAccumulatePerDirection)
{
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock);
    auto s = rt.createStream("m");
    rt.memcpyAsync(s, 1_MiB, CopyDir::DeviceToHost);
    rt.memcpyAsync(s, 2_MiB, CopyDir::DeviceToHost);
    rt.memcpyAsync(s, 4_MiB, CopyDir::HostToDevice);
    rt.synchronize(s);
    EXPECT_EQ(rt.bytesCopied(CopyDir::DeviceToHost), 3_MiB);
    EXPECT_EQ(rt.bytesCopied(CopyDir::HostToDevice), 4_MiB);
}

TEST(Runtime, KernelLogRecordsTiming)
{
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock);
    rt.setKernelLog(true);
    auto s = rt.createStream("c");
    rt.launchKernel(s, kernel("conv_fwd", 1000, 50000));
    rt.launchKernel(s, kernel("pool_fwd", 500, 10000));
    rt.synchronize(s);
    ASSERT_EQ(rt.kernelLog().size(), 2u);
    EXPECT_EQ(rt.kernelLog()[0].name, "conv_fwd");
    EXPECT_EQ(rt.kernelLog()[0].start, 0);
    EXPECT_EQ(rt.kernelLog()[0].end, 1000);
    EXPECT_EQ(rt.kernelLog()[1].start, 1000);
    EXPECT_EQ(rt.kernelLog()[1].end, 1500);
    EXPECT_GT(rt.kernelLog()[0].dramBandwidth(), 0.0);
}

TEST(Runtime, ContentionStretchesBandwidthBoundKernel)
{
    // Kernel demands 95% of DRAM bandwidth; a concurrent copy steals
    // PCIe-rate bandwidth, so the kernel must stretch.
    GpuSpec spec = testSpec();
    sim::EventQueue clock_with, clock_without;
    Device with(0, spec, clock_with, true);
    Device without(0, spec, clock_without, false);
    for (Device *rt : {&with, &without}) {
        auto sc = rt->createStream("c");
        auto sm = rt->createStream("m");
        Bytes kernel_bytes = Bytes(0.95 * 100.0e9 * 1e-3); // 95 GB/s for 1 ms
        rt->launchKernel(sc, kernel("membound", 1_ms, kernel_bytes));
        rt->memcpyAsync(sm, 10_MiB, CopyDir::DeviceToHost, "off");
        rt->deviceSynchronize();
    }
    EXPECT_GT(with.now(), without.now());
    // Worst case bound from the paper: pcie/dram = 10/100 = 10% here.
    EXPECT_LT(double(with.now()), double(without.now()) * 1.11);
}

TEST(Runtime, ComputeBoundKernelUnaffectedByContention)
{
    GpuSpec spec = testSpec();
    sim::EventQueue clock;
    Device rt(0, spec, clock, true);
    auto sc = rt.createStream("c");
    auto sm = rt.createStream("m");
    // Demands only 10% of DRAM bandwidth: headroom absorbs the copy.
    Bytes kernel_bytes = Bytes(0.10 * 100.0e9 * 1e-3);
    rt.launchKernel(sc, kernel("flopbound", 1_ms, kernel_bytes));
    rt.memcpyAsync(sm, 1_MiB, CopyDir::DeviceToHost, "off");
    rt.synchronize(sc);
    EXPECT_EQ(rt.now(), 1_ms);
}

TEST(Runtime, PowerWindowAveragesAboveIdle)
{
    GpuSpec spec = testSpec();
    sim::EventQueue clock;
    Device rt(0, spec, clock);
    auto s = rt.createStream("c");
    KernelDesc k = kernel("k", 1_ms, 50_MiB);
    k.flops = 1.0e12 * 1e-3; // exactly peak rate for 1 ms
    rt.launchKernel(s, k);
    rt.synchronize(s);
    rt.finishPowerWindow();
    EXPECT_GT(rt.power().averagePowerW(), spec.idlePowerW);
    EXPECT_LE(rt.power().maxPowerW(),
              spec.idlePowerW + spec.computePowerW + spec.dramPowerW +
                  2 * spec.copyPowerW + 1.0);
    EXPECT_GT(rt.power().energyJ(), 0.0);
}

TEST(Runtime, CopiesRaiseMaxPower)
{
    GpuSpec spec = testSpec();
    sim::EventQueue clock_base, clock_offload;
    Device base(0, spec, clock_base), offload(0, spec, clock_offload);
    for (Device *rt : {&base, &offload}) {
        auto sc = rt->createStream("c");
        KernelDesc k = kernel("k", 1_ms, 10_MiB);
        k.flops = 0.5e12 * 1e-3;
        rt->launchKernel(sc, k);
        if (rt == &offload) {
            auto sm = rt->createStream("m");
            rt->memcpyAsync(sm, 5_MiB, CopyDir::DeviceToHost, "off");
        }
        rt->deviceSynchronize();
        rt->finishPowerWindow();
    }
    EXPECT_GT(offload.power().maxPowerW(), base.power().maxPowerW());
}

TEST(Runtime, ManyAlternatingLayersMatchHandComputedMakespan)
{
    // vDNN's forward pass shape: kernel(n) on stream_compute overlapped
    // with offload(n) on stream_memory, sync at each layer boundary.
    // With kernel time 100us and offload time 60us the offloads hide
    // completely: makespan = N * 100us.
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock, false);
    auto sc = rt.createStream("compute");
    auto sm = rt.createStream("memory");
    const int layers = 16;
    Bytes off_bytes = Bytes(10.0e9 * 60e-6); // 60 us at 10 GB/s
    for (int i = 0; i < layers; ++i) {
        rt.launchKernel(sc, kernel("fwd", 100_us));
        rt.memcpyAsync(sm, off_bytes, CopyDir::DeviceToHost, "off");
        rt.synchronize(sc);
        rt.synchronize(sm);
    }
    EXPECT_EQ(rt.now(), layers * 100_us);
}

TEST(Runtime, SlowOffloadStallsNextLayerExactlyLikeFigure9)
{
    // Figure 9: when OFF(n) outlives FWD(n), FWD(n+1) is delayed by the
    // residual offload time ("wasted time").
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock, false);
    auto sc = rt.createStream("compute");
    auto sm = rt.createStream("memory");
    Bytes off_bytes = Bytes(10.0e9 * 150e-6); // 150 us at 10 GB/s
    rt.launchKernel(sc, kernel("fwd1", 100_us));
    rt.memcpyAsync(sm, off_bytes, CopyDir::DeviceToHost, "off1");
    rt.synchronize(sc);
    rt.synchronize(sm); // stall: offload is 50 us longer than compute
    rt.launchKernel(sc, kernel("fwd2", 100_us));
    rt.synchronize(sc);
    EXPECT_EQ(rt.now(), 250_us);
}

// --- PCIe fair-share between tenants ----------------------------------------

TEST(Runtime, ConcurrentOffloadersEachGetHalfTheLink)
{
    // Two tenants, one D2H stream each, saturating the link with
    // equal-size offloads: the fair-share arbiter must interleave the
    // grants so both drain together, each at ~half the DMA bandwidth.
    sim::EventQueue clock;
    Device rt(0, testSpec(), clock, /*enable_contention=*/false);
    rt.setKernelLog(true);
    StreamId a = rt.createStream("tenantA_mem");
    StreamId b = rt.createStream("tenantB_mem");
    rt.setStreamClient(a, 1);
    rt.setStreamClient(b, 2);

    const Bytes xfer = 100_MiB;
    const int per_tenant = 8;
    for (int i = 0; i < per_tenant; ++i)
        rt.memcpyAsync(a, xfer, CopyDir::DeviceToHost, "A");
    for (int i = 0; i < per_tenant; ++i)
        rt.memcpyAsync(b, xfer, CopyDir::DeviceToHost, "B");
    rt.deviceSynchronize();

    EXPECT_EQ(rt.bytesCopiedByClient(CopyDir::DeviceToHost, 1),
              Bytes(per_tenant) * xfer);
    EXPECT_EQ(rt.bytesCopiedByClient(CopyDir::DeviceToHost, 2),
              Bytes(per_tenant) * xfer);

    // Fairness over time: the tenants' last transfers complete within
    // one transfer time of each other (FIFO would drain all of A
    // before B even starts)...
    TimeNs one = TimeNs(double(xfer) / testSpec().pcie.dmaBandwidth *
                        1e9);
    TimeNs last_a = 0;
    TimeNs last_b = 0;
    for (const CopyRecord &c : rt.copyLog())
        (c.tag == "A" ? last_a : last_b) = c.end;
    EXPECT_LE(std::abs(double(last_a - last_b)), double(one) * 1.01);

    // ...so over the contended window each tenant achieved ~half the
    // link bandwidth.
    double window = toSeconds(std::min(last_a, last_b));
    double bw_a = double(Bytes(per_tenant) * xfer) / window;
    ASSERT_GT(window, 0.0);
    EXPECT_NEAR(bw_a / testSpec().pcie.dmaBandwidth, 0.5, 0.08);
}
