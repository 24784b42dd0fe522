/**
 * @file
 * Diagnostic labels (common/label.hh): the value type itself, and
 * goldens that pin every label the simulator prints — kernel-log
 * names, copy-log tags, a pool layout dump, an OOM report and the
 * session lifecycle tags — to the exact strings the simulator printed
 * when these tags were still formatted eagerly.
 */

#include "common/label.hh"
#include "core/planner.hh"
#include "core/training_session.hh"
#include "gpu/cluster.hh"
#include "gpu/gpu_spec.hh"
#include "mem/memory_pool.hh"
#include "net/builders.hh"

#include <gtest/gtest.h>

#include <string>
#include <utility>

using namespace vdnn;

// --- the value type ----------------------------------------------------------

namespace
{

template <typename T>
concept NameableBy =
    requires(T &&name) { Label::named("p:", std::forward<T>(name)); };

} // namespace

// A named label views its name, so naming a temporary must not compile.
static_assert(NameableBy<const std::string &>);
static_assert(NameableBy<std::string &>);
static_assert(!NameableBy<std::string>);
static_assert(!NameableBy<std::string &&>);

TEST(Label, FormatsEachKind)
{
    const std::string layer = "conv1_1";
    EXPECT_EQ(Label().str(), "");
    EXPECT_EQ(Label("d2h").str(), "d2h");
    EXPECT_EQ(Label::indexed("fmap:", 0).str(), "fmap:0");
    EXPECT_EQ(Label::indexed("fmap:", 1234567).str(), "fmap:1234567");
    EXPECT_EQ(Label::indexed("x", -3).str(), "x-3");
    EXPECT_EQ(Label::named("fwd:", layer).str(), "fwd:conv1_1");
    EXPECT_EQ(Label::named("", layer).str(), "conv1_1");
}

TEST(Label, EmptyOnlyWhenItRendersEmpty)
{
    const std::string none;
    const std::string layer = "fc6";
    EXPECT_TRUE(Label().empty());
    EXPECT_TRUE(Label("").empty());
    EXPECT_TRUE(Label::named("", none).empty());
    EXPECT_FALSE(Label("h2d").empty());
    EXPECT_FALSE(Label::indexed("", 0).empty());
    EXPECT_FALSE(Label::named("", layer).empty());
    EXPECT_FALSE(Label::named("W:", none).empty());
}

TEST(Label, FormatToReplacesContents)
{
    const std::string layer = "inception_3a/5x5_reduce";
    std::string out = "a previous, much longer label that fills the buffer";
    Label::named("ws:", layer).formatTo(out);
    EXPECT_EQ(out, "ws:inception_3a/5x5_reduce");
    Label::indexed("grad:", 42).formatTo(out);
    EXPECT_EQ(out, "grad:42");
}

// --- goldens -----------------------------------------------------------------

namespace
{

std::string
joinKernelNames(const std::vector<gpu::KernelRecord> &log)
{
    std::string out;
    for (const gpu::KernelRecord &k : log)
        out += (out.empty() ? "" : " ") + k.name;
    return out;
}

std::string
joinCopyTags(const std::vector<gpu::CopyRecord> &log)
{
    std::string out;
    for (const gpu::CopyRecord &c : log)
        out += (out.empty() ? "" : " ") + c.tag;
    return out;
}

/** A one-Titan X cluster, whose device and pool the goldens read. */
struct SharedDevice
{
    gpu::Cluster cluster{{{gpu::titanXMaxwell()}}};
    gpu::Device &rt = cluster.device(0);
    mem::MemoryPool &pool = cluster.pool(0);

    core::SharedGpu share(int client)
    {
        return core::shareOf(cluster, 0, client);
    }
};

core::SessionConfig
offloadAll(core::AlgoPreference algos)
{
    core::SessionConfig cfg;
    cfg.planner = std::make_shared<core::OffloadAllPlanner>(algos);
    return cfg;
}

} // namespace

TEST(LabelGolden, SessionKernelAndCopyLogs)
{
    // One TinyCnn iteration under vDNN_all (p), then an eviction and a
    // restore: every kernel label, and every DMA tag the executor and
    // the session lifecycle issue.
    SharedDevice dev;
    dev.rt.setKernelLog(true);
    auto network = net::buildTinyCnn(8);
    core::Session session(*network,
                          offloadAll(core::AlgoPreference::PerformanceOptimal),
                          dev.share(1));
    ASSERT_TRUE(session.setup());
    ASSERT_TRUE(session.runIteration().ok);
    ASSERT_TRUE(session.evictToHost());
    ASSERT_TRUE(session.resume());
    session.teardown();

    EXPECT_EQ(joinKernelNames(dev.rt.kernelLog()),
              "fwd:conv1 fwd:relu1 fwd:pool1 fwd:conv2 fwd:relu2 fwd:pool2 "
              "fwd:fc1 fwd:relu3 fwd:fc2 fwd:loss bwd:loss bwd:fc2 bwd:relu3 "
              "bwd:fc1 bwd:pool2 bwd:relu2 bwdF:conv2 bwdD:conv2 bwd:pool1 "
              "bwd:relu1 bwdF:conv1");
    EXPECT_EQ(joinCopyTags(dev.rt.copyLog()),
              "offload:0 offload:1 offload:2 offload:3 offload:4 "
              "prefetch:4 prefetch:3 prefetch:2 prefetch:1 prefetch:0 "
              "evict:TinyCNN (8) restore:TinyCNN (8)");
}

TEST(LabelGolden, LayoutDumpWithFeatureMapWorkspaceAndWeightBlocks)
{
    // Stop a vDNN_all (p) iteration right after the first forward
    // allocation that takes a convolution workspace: weights, feature
    // maps and the workspace are all live.
    SharedDevice dev;
    auto network = net::buildTinyCnn(8);
    core::Session session(*network,
                          offloadAll(core::AlgoPreference::PerformanceOptimal),
                          dev.share(1));
    ASSERT_TRUE(session.setup());
    session.beginIteration();
    core::Executor &s = session.executor();
    bool stopped = false;
    while (!s.finished() && !stopped) {
        const core::IterOp *op = s.nextOp();
        stopped = op->kind == core::OpKind::Alloc && !op->backward &&
                  op->wsBytes > 0;
        s.stepExclusive();
    }
    ASSERT_TRUE(stopped);
    EXPECT_EQ(dev.pool.layoutString(),
              "Titan X (Maxwell)[0] shared pool: 1.94 MiB used of 12.00 GiB\n"
              "  [           0 +        2048]      0.0 MiB  W:conv1\n"
              "  [        2048 +       18944]      0.0 MiB  W:conv2\n"
              "  [       20992 +      524800]      0.5 MiB  W:fc1\n"
              "  [      545792 +        3072]      0.0 MiB  W:fc2\n"
              "  [      548864 +       18944]      0.0 MiB  dW:shared\n"
              "  [      567808 +      524800]      0.5 MiB  dW:classifier\n"
              "  [     1092608 +        2048]      0.0 MiB  fmap:5\n"
              "  [     1094656 +         512]      0.0 MiB  fmap:6\n"
              "  [     1095168 +         512]      0.0 MiB  fmap:7\n"
              "  [     1095680 +        2560]      0.0 MiB  grad:classifier\n"
              "  [     1098240 +       98304]      0.1 MiB  fmap:0\n"
              "  [     1196544 +      524288]      0.5 MiB  fmap:1\n"
              "  [     1720832 +      311296]      0.3 MiB  ws:conv1\n"
              "  [     2032128 + 12882869760]  12286.1 MiB  <free>\n");
    s.drain();
    ASSERT_TRUE(session.completeIteration().ok);
    session.teardown();
}

TEST(LabelGolden, OomReportNamesTheFailedRequest)
{
    // A co-tenant takes all but 1 MiB after setup: the on-demand fetch
    // of an offloaded feature map fails, and both the pool's OOM record
    // and the iteration's failure reason name it.
    SharedDevice dev;
    auto network = net::buildTinyCnn(8);
    core::Session session(*network,
                          offloadAll(core::AlgoPreference::PerformanceOptimal),
                          dev.share(1));
    ASSERT_TRUE(session.setup());
    auto hog = dev.pool.allocate(dev.pool.freeBytes() - (1 << 20), "hog", 99);
    core::IterationResult r = session.runIteration();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(dev.pool.lastOom().tag, "prefetch:1");
    EXPECT_EQ(r.failReason, "OOM fetching buffer 1 for 'pool1' backward");
    session.teardown();
    dev.pool.release(hog);
}

TEST(LabelGolden, SetupOomNamesTheWeightBlock)
{
    // A device too small for the persistent state: setup fails on a
    // weight block and the session's failure reason names it.
    gpu::GpuSpec spec = gpu::titanXMaxwell();
    spec.dramCapacity = 8 << 20;
    core::SessionConfig cfg =
        offloadAll(core::AlgoPreference::MemoryOptimal);
    cfg.gpu = spec;
    auto network = net::buildAlexNet(16);
    core::Session session(*network, cfg);
    EXPECT_FALSE(session.setup());
    EXPECT_EQ(session.failReason(),
              "setup OOM ('W:conv5', requested 2.25 MiB, largest free "
              "block 849.50 KiB)");
}
