/**
 * @file
 * Heap-allocation budget of the per-op path.
 *
 * vDNN sub-allocates every per-layer buffer from a pool because
 * per-op allocator calls are too slow for a training loop; the
 * simulator's own per-op path (buffer alloc and release, offload,
 * prefetch and fetch, kernel launch, DMA enqueue, copy-engine grant)
 * follows the same rule. This binary replaces the global operator
 * new with a counting one and checks that a warm iteration stays
 * within a fixed allocation budget, and that warm device commands
 * allocate nothing.
 *
 * It replaces operator new, so it is kept out of the sanitizer jobs
 * (which install their own allocator): CMake labels it outside tier1.
 */

#include "core/planner.hh"
#include "core/training_session.hh"
#include "gpu/gpu_spec.hh"
#include "gpu/runtime.hh"
#include "net/builders.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

namespace
{

/** Allocations counted while counting is on. */
long gAllocs = 0;
bool gCounting = false;

void *
countedAlloc(std::size_t n)
{
    if (gCounting)
        ++gAllocs;
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (gCounting)
        ++gAllocs;
    std::size_t a = std::size_t(al);
    void *p = std::aligned_alloc(a, (n + a - 1) / a * a);
    if (!p)
        throw std::bad_alloc();
    return p;
}

/** Allocations made by @p fn. */
template <typename F>
long
countAllocs(F &&fn)
{
    gAllocs = 0;
    gCounting = true;
    fn();
    gCounting = false;
    return gAllocs;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace vdnn;

namespace
{

/**
 * Allocations per warm iteration. The budget covers what an
 * iteration hands back to its caller by value (the per-layer timing
 * vector of the IterationResult) and nothing per op.
 */
constexpr long kIterationBudget = 8;

long
warmIterationAllocs(std::unique_ptr<net::Network> network,
                    bool sync_at_layer_boundary = true)
{
    core::SessionConfig cfg;
    cfg.gpu = gpu::titanXMaxwell();
    cfg.exec.syncAtLayerBoundary = sync_at_layer_boundary;
    cfg.planner = std::make_shared<core::OffloadAllPlanner>(
        core::AlgoPreference::MemoryOptimal);
    core::Session session(*network, cfg);
    EXPECT_TRUE(session.setup());
    EXPECT_TRUE(session.runIteration().ok); // warm-up
    long n = countAllocs([&] {
        core::IterationResult r = session.runIteration();
        EXPECT_TRUE(r.ok);
    });
    session.teardown();
    return n;
}

} // namespace

TEST(AllocCount, AlexNetWarmIteration)
{
    long n = warmIterationAllocs(net::buildAlexNet(128));
    EXPECT_LE(n, kIterationBudget);
    std::printf("AlexNet (128) vDNN_all (m): %ld allocations\n", n);
}

TEST(AllocCount, Vgg16WarmIteration)
{
    long n = warmIterationAllocs(net::buildVgg16(64));
    EXPECT_LE(n, kIterationBudget);
    std::printf("VGG-16 (64) vDNN_all (m): %ld allocations\n", n);
}

TEST(AllocCount, GoogLeNetWarmIteration)
{
    long n = warmIterationAllocs(net::buildGoogLeNet(64));
    EXPECT_LE(n, kIterationBudget);
    std::printf("GoogLeNet (64) vDNN_all (m): %ld allocations\n", n);
}

TEST(AllocCount, AsyncReleaseWarmIteration)
{
    // The asynchronous-release ablation defers each offloaded buffer's
    // release to a stream mark; deferring must not allocate per buffer.
    struct Case
    {
        const char *name;
        std::unique_ptr<net::Network> network;
    };
    Case cases[] = {{"AlexNet (128)", net::buildAlexNet(128)},
                    {"VGG-16 (64)", net::buildVgg16(64)},
                    {"GoogLeNet (64)", net::buildGoogLeNet(64)}};
    for (Case &c : cases) {
        long n = warmIterationAllocs(std::move(c.network), false);
        EXPECT_LE(n, kIterationBudget) << c.name;
        std::printf("%s vDNN_all (m), async release: %ld allocations\n",
                    c.name, n);
    }
}

TEST(AllocCount, WarmDeviceCommandsAllocateNothing)
{
    // Kernels with named labels, copies both ways on two tenants'
    // streams (so the copy engines arbitrate), kept warm once.
    gpu::Runtime rt(gpu::titanXMaxwell());
    gpu::StreamId sc = rt.createStream("compute");
    gpu::StreamId sm = rt.createStream("memory");
    gpu::StreamId so = rt.createStream("other");
    rt.setStreamClient(so, 1);
    const std::string layer = "inception_4e/5x5_reduce_long_name";
    gpu::KernelDesc k;
    k.name = Label::named("fwd:", layer);
    k.duration = 1000;
    k.dramBytes = 1 << 20;
    auto burst = [&](int commands) {
        for (int i = 0; i < commands; i += 4) {
            rt.launchKernel(sc, k);
            rt.memcpyAsync(sm, 1 << 20, gpu::CopyDir::DeviceToHost,
                           Label::indexed("offload:", i));
            rt.memcpyAsync(so, 1 << 20, gpu::CopyDir::DeviceToHost,
                           Label::named("evict:", layer));
            rt.memcpyAsync(sm, 1 << 20, gpu::CopyDir::HostToDevice,
                           Label::indexed("prefetch:", i));
        }
        rt.deviceSynchronize();
    };
    burst(1000);
    long n = countAllocs([&] { burst(1000); });
    EXPECT_EQ(n, 0);
}
