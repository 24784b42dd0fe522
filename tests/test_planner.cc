/**
 * @file
 * Tests for the Planner API and the MemoryPlan IR: structural golden
 * plans (offload sets and algorithm assignments), the shared-pool
 * PlannerContext, compressed-offload directives, prefetch-priority
 * hints, replan hints, and plan provenance.
 */

#include "core/dynamic_policy.hh"
#include "core/planner.hh"
#include "core/prefetch.hh"
#include "core/training_session.hh"
#include "serve/admission.hh"

#include "common/units.hh"
#include "net/builders.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace vdnn;
using namespace vdnn::core;
using namespace vdnn::literals;

namespace
{

PlannerContext
titanCtx()
{
    return PlannerContext::exclusive(gpu::titanXMaxwell());
}

/** Offload set of a plan as a bool vector. */
std::vector<bool>
offloadSet(const net::Network &net, const MemoryPlan &plan)
{
    std::vector<bool> set(net.numBuffers(), false);
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b)
        set[std::size_t(b)] = plan.offloads(b);
    return set;
}

} // namespace

// --- structural golden plans -------------------------------------------------

class GoldenPlanTest
    : public ::testing::TestWithParam<std::shared_ptr<const net::Network>>
{};

TEST_P(GoldenPlanTest, OffloadAllCoversExactlyTheEligibleSet)
{
    const net::Network &net = *GetParam();
    MemoryPlan plan =
        OffloadAllPlanner(AlgoPreference::MemoryOptimal)
            .plan(net, titanCtx());
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b)
        EXPECT_EQ(plan.offloads(b), offloadEligible(net, b)) << b;
    EXPECT_EQ(plan.algos, net::memoryOptimalAlgos(net));
    EXPECT_GT(plan.offloadCount(), 0);
}

TEST_P(GoldenPlanTest, OffloadConvPicksConvReadSubset)
{
    const net::Network &net = *GetParam();
    dnn::CudnnSim cudnn(gpu::titanXMaxwell());
    MemoryPlan plan =
        OffloadConvPlanner(AlgoPreference::PerformanceOptimal)
            .plan(net, titanCtx());
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers());
         ++b) {
        bool conv_read =
            offloadEligible(net, b) &&
            net.node(net.buffer(b).lastFwdReader).spec.kind ==
                dnn::LayerKind::Conv;
        EXPECT_EQ(plan.offloads(b), conv_read) << b;
    }
    EXPECT_EQ(plan.algos, net::performanceOptimalAlgos(net, cudnn));
}

INSTANTIATE_TEST_SUITE_P(
    Networks, GoldenPlanTest,
    ::testing::Values(
        std::shared_ptr<const net::Network>(net::buildVgg16(64)),
        std::shared_ptr<const net::Network>(net::buildAlexNet(128))));

TEST(PlannerNames, EveryShippedPlannerHasAPaperStyleLabel)
{
    EXPECT_EQ(BaselinePlanner(AlgoPreference::PerformanceOptimal)
                  .name(),
              "base (p)");
    EXPECT_EQ(OffloadAllPlanner(AlgoPreference::MemoryOptimal).name(),
              "vDNN_all (m)");
    EXPECT_EQ(OffloadConvPlanner(AlgoPreference::MemoryOptimal).name(),
              "vDNN_conv (m)");
    EXPECT_EQ(DynamicPlanner().name(), "vDNN_dyn");
    EXPECT_EQ(CompressedOffloadPlanner().name(), "vDNN_all+cDMA (m)");
}

TEST(ReplanHints, NamesAndDefaults)
{
    EXPECT_STREQ(replanHintName(ReplanHint::Evict), "evict");
    EXPECT_STREQ(replanHintName(ReplanHint::InPlace), "in-place");
    // The base-class default is the conservative choice.
    class Custom : public Planner
    {
      public:
        std::string name() const override { return "custom"; }
        MemoryPlan plan(const net::Network &net,
                        const PlannerContext &ctx) override
        {
            return BaselinePlanner().plan(net, ctx);
        }
    };
    EXPECT_EQ(Custom().replanHint(), ReplanHint::Evict);
}

// --- provenance --------------------------------------------------------------

TEST(Provenance, EveryStaticPlannerFillsItIn)
{
    auto network = net::buildAlexNet(32);
    for (const std::shared_ptr<Planner> &planner :
         {std::shared_ptr<Planner>(std::make_shared<BaselinePlanner>()),
          std::shared_ptr<Planner>(std::make_shared<OffloadAllPlanner>()),
          std::shared_ptr<Planner>(
              std::make_shared<OffloadConvPlanner>()),
          std::shared_ptr<Planner>(
              std::make_shared<CompressedOffloadPlanner>())}) {
        MemoryPlan plan = planner->plan(*network, titanCtx());
        EXPECT_FALSE(plan.provenance.empty()) << planner->name();
        EXPECT_NE(plan.provenance.find("static"), std::string::npos)
            << planner->name();
    }
}

// --- shared-pool context -----------------------------------------------------

TEST(SharedContext, DynamicPlanShrinksWithTheFreeShare)
{
    // The same VGG-16 tenant planned against the whole 12 GB device
    // picks the no-offload performance ideal; planned against a small
    // free share of a crowded pool, it must fall back to offloading.
    auto network = net::buildVgg16(64);
    gpu::GpuSpec spec = gpu::titanXMaxwell();
    DynamicPlanner dyn;

    MemoryPlan whole =
        dyn.plan(*network, PlannerContext::exclusive(spec));
    ASSERT_TRUE(whole.feasible);
    EXPECT_EQ(whole.offloadCount(), 0);

    MemoryPlan squeezed =
        dyn.plan(*network, PlannerContext::shared(spec, 4_GiB));
    ASSERT_TRUE(squeezed.feasible);
    EXPECT_GT(squeezed.offloadCount(), 0);

    // The derived footprint shrinks alongside the share.
    serve::FootprintEstimate whole_est =
        serve::estimateFootprint(*network, whole);
    serve::FootprintEstimate squeezed_est =
        serve::estimateFootprint(*network, squeezed);
    EXPECT_LT(squeezed_est.total(), whole_est.total());
}

TEST(SharedContext, TinyShareIsInfeasible)
{
    auto network = net::buildVgg16(64);
    DynamicPlanner dyn;
    MemoryPlan plan = dyn.plan(
        *network,
        PlannerContext::shared(gpu::titanXMaxwell(), 64_MiB));
    EXPECT_FALSE(plan.feasible);
    EXPECT_FALSE(plan.failReason.empty());
}

TEST(SharedContext, CapacityDefaultsToTheWholeDevice)
{
    PlannerContext ctx = PlannerContext::exclusive(gpu::titanXMaxwell());
    EXPECT_EQ(ctx.capacity(), gpu::titanXMaxwell().dramCapacity);
    PlannerContext shared =
        PlannerContext::shared(gpu::titanXMaxwell(), 1_GiB);
    EXPECT_EQ(shared.capacity(), 1_GiB);
    // An exhausted pool (zero free share) must NOT degenerate to the
    // whole-device sentinel: the tenant plans against ~nothing.
    PlannerContext empty =
        PlannerContext::shared(gpu::titanXMaxwell(), 0);
    EXPECT_LT(empty.capacity(), 1_MiB);
}

TEST(SharedContext, AdmissionPlanIsTheMemoryFloor)
{
    // DynamicPlanner's admission plan must equal the vDNN_all (m)
    // floor — and be produced without running any trials.
    auto network = net::buildVgg16(64);
    DynamicPlanner dyn;
    MemoryPlan floor = dyn.admissionPlan(*network, titanCtx());
    MemoryPlan all_m = OffloadAllPlanner(AlgoPreference::MemoryOptimal)
                           .plan(*network, titanCtx());
    EXPECT_EQ(offloadSet(*network, floor), offloadSet(*network, all_m));
    EXPECT_EQ(floor.algos, all_m.algos);
    EXPECT_TRUE(floor.trials.empty());
}

// --- compressed offload ------------------------------------------------------

TEST(CompressedOffload, SameOffloadSetFewerPcieBytes)
{
    auto network = net::buildVgg16(64);
    MemoryPlan raw = OffloadAllPlanner(AlgoPreference::MemoryOptimal)
                         .plan(*network, titanCtx());
    MemoryPlan cdma =
        CompressedOffloadPlanner(AlgoPreference::MemoryOptimal)
            .plan(*network, titanCtx());
    EXPECT_EQ(offloadSet(*network, cdma), offloadSet(*network, raw));
    EXPECT_EQ(cdma.offloadedBytes(*network),
              raw.offloadedBytes(*network));
    EXPECT_LT(cdma.offloadedDmaBytes(*network),
              raw.offloadedDmaBytes(*network));
    // VGG-16 is ReLU-heavy: the engine should at least halve traffic.
    EXPECT_LT(2 * cdma.offloadedDmaBytes(*network),
              3 * raw.offloadedDmaBytes(*network));
}

TEST(CompressedOffload, SparsityGrowsWithDepth)
{
    CompressedOffloadPlanner planner;
    EXPECT_GT(planner.dmaScaleAtDepth(0.0),
              planner.dmaScaleAtDepth(1.0));
    EXPECT_LE(planner.dmaScaleAtDepth(0.0), 1.0);
    EXPECT_GT(planner.dmaScaleAtDepth(1.0), 0.0);
}

TEST(CompressedOffload, SessionMovesFewerPcieBytes)
{
    auto network = net::buildTinyCnn(32);
    auto run = [&](std::shared_ptr<Planner> planner) {
        SessionConfig cfg;
        cfg.planner = std::move(planner);
        return runSession(*network, cfg);
    };
    auto raw = run(std::make_shared<OffloadAllPlanner>());
    auto cdma = run(std::make_shared<CompressedOffloadPlanner>());
    ASSERT_TRUE(raw.trainable);
    ASSERT_TRUE(cdma.trainable);
    // Same logical bytes leave the device; fewer bytes cross PCIe.
    EXPECT_EQ(cdma.offloadedBytesPerIter, raw.offloadedBytesPerIter);
    EXPECT_LT(cdma.pcieBytesPerIter, raw.pcieBytesPerIter);
    EXPECT_LE(cdma.transferStallTime, raw.transferStallTime);
}

// --- prefetch-priority hints -------------------------------------------------

TEST(PrefetchHints, NegativePriorityDisablesPrefetch)
{
    auto network = net::buildTinyCnn(16);
    MemoryPlan plan = OffloadAllPlanner(AlgoPreference::MemoryOptimal)
                          .plan(*network, titanCtx());
    // Hint every buffer out of overlapped prefetching: the executor
    // must fall back to serialized on-demand fetches.
    for (BufferDirective &d : plan.buffers)
        d.prefetchPriority = -1;

    dnn::CudnnSim cudnn(gpu::titanXMaxwell());
    gpu::Cluster cluster({{gpu::titanXMaxwell()}});
    gpu::Device &rt = cluster.device(0);
    MemoryManager mm(rt, cluster.pool(0), cluster.host(0), /*client=*/0);
    Executor ex(*network, cudnn, rt, mm, plan);
    ASSERT_TRUE(ex.setup());
    IterationResult r = ex.runIteration();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.prefetches, 0);
    EXPECT_EQ(r.onDemandFetches, r.offloads);
    ex.teardown();
}

TEST(PrefetchHints, HigherPriorityIssuesFirst)
{
    // Two offloaded buffers read by the same CONCAT-style join would
    // normally be issued in input order; the priority hint reorders.
    auto network = net::buildGoogLeNet(16);
    MemoryPlan plan = OffloadAllPlanner(AlgoPreference::MemoryOptimal)
                          .plan(*network, titanCtx());

    // Find a layer with two offloaded input buffers.
    net::LayerId join = net::kInputLayer;
    std::vector<net::BufferId> ins;
    for (net::LayerId id : network->topoOrder()) {
        ins.clear();
        for (net::LayerId in_id : network->node(id).inputs) {
            net::BufferId b = in_id == net::kInputLayer
                                  ? network->inputBuffer()
                                  : network->node(in_id).yBuffer;
            if (plan.offloads(b) &&
                std::find(ins.begin(), ins.end(), b) == ins.end()) {
                ins.push_back(b);
            }
        }
        if (ins.size() >= 2) {
            join = id;
            break;
        }
    }
    ASSERT_NE(join, net::kInputLayer) << "no multi-input join found";

    // Prioritize the *last* input buffer above the others.
    plan.directive(ins.back()).prefetchPriority = 10;

    PrefetchState state(network->numBuffers());
    for (net::BufferId b : ins)
        state.offloaded[std::size_t(b)] = true;
    // Search from the layer right after the join: the backward-order
    // scan examines the join's inputs first.
    const auto &topo = network->topoOrder();
    int join_idx = network->node(join).topoIndex;
    ASSERT_LT(std::size_t(join_idx + 1), topo.size());
    net::LayerId after = topo[std::size_t(join_idx + 1)];
    PrefetchCandidate cand;
    findPrefetchLayer(*network, after, state, cand, /*bounded=*/false,
                      &plan);
    ASSERT_TRUE(cand.found());
    EXPECT_EQ(cand.layer, join);
    ASSERT_GE(cand.buffers.size(), 2u);
    EXPECT_EQ(cand.buffers.front(), ins.back());
    // The sort is stable: the equal-priority rest keep input order.
    ASSERT_EQ(cand.buffers.size(), ins.size());
    for (std::size_t i = 1; i < ins.size(); ++i)
        EXPECT_EQ(cand.buffers[i], ins[i - 1]) << "position " << i;
}

// --- session-level validation ------------------------------------------------

TEST(SessionValidation, CustomPlannerDrivesTheSession)
{
    // A user-written planner: keep everything resident (layer-wise
    // allocation, no offload) with memory-optimal algorithms.
    class ResidentPlanner : public Planner
    {
      public:
        std::string name() const override { return "resident"; }
        MemoryPlan plan(const net::Network &net,
                        const PlannerContext &ctx) override
        {
            MemoryPlan p =
                OffloadAllPlanner(AlgoPreference::MemoryOptimal)
                    .plan(net, ctx);
            p.clearOffloads();
            p.provenance = "custom: keep everything resident";
            return p;
        }
    };

    auto network = net::buildTinyCnn(8);
    SessionConfig cfg;
    cfg.planner = std::make_shared<ResidentPlanner>();
    auto r = runSession(*network, cfg);
    ASSERT_TRUE(r.trainable);
    EXPECT_EQ(r.configName, "resident");
    EXPECT_EQ(r.offloadedBytesPerIter, 0);
    EXPECT_EQ(r.plan.provenance, "custom: keep everything resident");
}

TEST(SessionValidation, InfeasiblePlanFailsSetupWithReason)
{
    class NeverPlanner : public Planner
    {
      public:
        std::string name() const override { return "never"; }
        MemoryPlan plan(const net::Network &net,
                        const PlannerContext &ctx) override
        {
            MemoryPlan p = BaselinePlanner().plan(net, ctx);
            p.feasible = false;
            p.failReason = "synthetic refusal";
            return p;
        }
    };

    auto network = net::buildTinyCnn(8);
    SessionConfig cfg;
    cfg.planner = std::make_shared<NeverPlanner>();
    auto r = runSession(*network, cfg);
    EXPECT_FALSE(r.trainable);
    EXPECT_EQ(r.failReason, "synthetic refusal");
}
