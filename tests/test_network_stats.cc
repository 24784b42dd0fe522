/**
 * @file
 * Tests for the analytic memory accounting (NetworkStats): baseline
 * breakdowns, gradient-map peaks, per-layer usage rows, and the
 * calibration anchors the paper's motivation figures rest on.
 */

#include "net/network_stats.hh"

#include "common/units.hh"
#include "dnn/cudnn_sim.hh"
#include "gpu/gpu_spec.hh"
#include "net/builders.hh"

#include <gtest/gtest.h>

using namespace vdnn;
using namespace vdnn::net;
using namespace vdnn::literals;

class NetworkStatsTest : public ::testing::Test
{
  protected:
    dnn::CudnnSim cudnn{gpu::titanXMaxwell()};
};

TEST_F(NetworkStatsTest, MemoryOptimalHasZeroWorkspace)
{
    auto net = buildVgg16(64);
    NetworkStats ns(*net);
    auto algos = memoryOptimalAlgos(*net);
    EXPECT_EQ(ns.maxWorkspaceBytes(algos), 0);
}

TEST_F(NetworkStatsTest, PerformanceOptimalNeedsWorkspace)
{
    auto net = buildVgg16(64);
    NetworkStats ns(*net);
    auto algos = performanceOptimalAlgos(*net, cudnn);
    EXPECT_GT(ns.maxWorkspaceBytes(algos), 100_MiB);
}

TEST_F(NetworkStatsTest, BreakdownComponentsSumToTotal)
{
    auto net = buildAlexNet(128);
    NetworkStats ns(*net);
    auto algos = performanceOptimalAlgos(*net, cudnn);
    auto b = ns.baselineBreakdown(algos);
    EXPECT_EQ(b.total(), b.weights + b.featureMaps + b.gradientMaps +
                             b.workspace);
    EXPECT_GT(b.weights, 0);
    EXPECT_GT(b.featureMaps, 0);
    EXPECT_GT(b.gradientMaps, 0);
}

TEST_F(NetworkStatsTest, PaperAnchorAlexNetAround1GB)
{
    auto net = buildAlexNet(128);
    NetworkStats ns(*net);
    double gb =
        double(ns.baselineBreakdown(memoryOptimalAlgos(*net)).total()) /
        1e9;
    EXPECT_GT(gb, 0.8);
    EXPECT_LT(gb, 1.5); // paper: 1.1 GB
}

TEST_F(NetworkStatsTest, PaperAnchorVgg16b256NeedsOver20GB)
{
    auto net = buildVgg16(256);
    NetworkStats ns(*net);
    double gb =
        double(ns.baselineBreakdown(performanceOptimalAlgos(*net, cudnn))
                   .total()) /
        1e9;
    EXPECT_GT(gb, 20.0);
    EXPECT_LT(gb, 32.0); // paper: 28 GB
}

TEST_F(NetworkStatsTest, PaperAnchorVgg16b128MFitsTitanX)
{
    // The power study requires baseline (m) VGG-16 (128) to train.
    auto net = buildVgg16(128);
    NetworkStats ns(*net);
    EXPECT_LE(ns.baselineBreakdown(memoryOptimalAlgos(*net)).total(),
              gpu::titanXMaxwell().dramCapacity);
    // ... while (p) must not fit (Fig. 11 asterisk).
    EXPECT_GT(ns.baselineBreakdown(performanceOptimalAlgos(*net, cudnn))
                  .total(),
              gpu::titanXMaxwell().dramCapacity);
}

TEST_F(NetworkStatsTest, GradientPeakIsTwoMaxBuffersOnLinearNets)
{
    // For VGG the two largest adjacent gradient maps are the first conv
    // group's 224x224x64 buffers.
    auto net = buildVgg16(64);
    NetworkStats ns(*net);
    Bytes big = Bytes(64) * 64 * 224 * 224 * 4;
    EXPECT_EQ(ns.peakGradientBytes(NetworkStats::GradScope::All), 2 * big);
}

TEST_F(NetworkStatsTest, GradientScopesArePartitioned)
{
    auto net = buildAlexNet(128);
    NetworkStats ns(*net);
    using Scope = NetworkStats::GradScope;
    Bytes all = ns.peakGradientBytes(Scope::All);
    Bytes managed = ns.peakGradientBytes(Scope::Managed);
    Bytes classifier = ns.peakGradientBytes(Scope::Classifier);
    EXPECT_LE(managed, all);
    EXPECT_LE(classifier, all);
    EXPECT_GE(managed + classifier, all);
}

TEST_F(NetworkStatsTest, ManagedExcludesClassifierWeights)
{
    auto net = buildVgg16(64);
    NetworkStats ns(*net);
    auto algos = memoryOptimalAlgos(*net);
    auto full = ns.baselineBreakdown(algos);
    auto managed = ns.managedBreakdown(algos);
    // VGG's classifier holds ~494 MB of weights; the managed view drops
    // them.
    EXPECT_LT(managed.weights, full.weights / 4);
    EXPECT_LT(managed.total(), full.total());
}

TEST_F(NetworkStatsTest, ClassifierBytesSmallShareForVgg)
{
    auto net = buildVgg16(256);
    NetworkStats ns(*net);
    auto algos = memoryOptimalAlgos(*net);
    Bytes total = ns.baselineBreakdown(algos).total();
    // Section III: feature extraction is 96% of VGG-16 (256), so the
    // classifier is ~4%.
    EXPECT_LT(ns.classifierBytes(), total / 10);
}

TEST_F(NetworkStatsTest, PerLayerRowsCoverConvAndFcOnly)
{
    auto net = buildVgg16(64);
    NetworkStats ns(*net);
    auto rows = ns.perLayerForward(performanceOptimalAlgos(*net, cudnn));
    EXPECT_EQ(rows.size(), 16u + 3u);
    for (const auto &row : rows) {
        EXPECT_TRUE(row.kind == dnn::LayerKind::Conv ||
                    row.kind == dnn::LayerKind::Fc);
        EXPECT_GT(row.x, 0);
    }
}

TEST_F(NetworkStatsTest, MaxLayerwiseUsageFarBelowTotal)
{
    for (int depth : {116, 216}) {
        auto net = buildVggDeep(depth, 32);
        NetworkStats ns(*net);
        auto algos = memoryOptimalAlgos(*net);
        Bytes total = ns.baselineBreakdown(algos).total();
        Bytes layer = ns.maxLayerWiseUsage(algos);
        // The deeper the network, the smaller the fraction (Fig. 1).
        EXPECT_LT(layer * 10, total);
    }
}

TEST_F(NetworkStatsTest, DeepVggScalingAnchors)
{
    // Fig. 15: baseline growth ~14x from VGG-16 to VGG-416 (batch 32),
    // reaching ~67 GB.
    auto base = buildVgg16(32);
    auto deep = buildVggDeep(416, 32);
    NetworkStats ns16(*base);
    NetworkStats ns416(*deep);
    double gb16 = double(ns16.baselineBreakdown(memoryOptimalAlgos(*base))
                             .total()) /
                  1e9;
    double gb416 =
        double(ns416.baselineBreakdown(memoryOptimalAlgos(*deep)).total()) /
        1e9;
    EXPECT_GT(gb416 / gb16, 10.0);
    EXPECT_LT(gb416 / gb16, 20.0);
    EXPECT_NEAR(gb416, 67.1, 8.0);
}

TEST_F(NetworkStatsTest, GoogLeNetGradientPeakHandlesForks)
{
    // The inception joins keep several branch gradients live at once;
    // the analysis must not underflow or explode.
    auto net = buildGoogLeNet(128);
    NetworkStats ns(*net);
    Bytes peak = ns.peakGradientBytes(NetworkStats::GradScope::All);
    EXPECT_GT(peak, 100_MiB);
    EXPECT_LT(peak, 2_GiB);
}
