/**
 * @file
 * Tests for the vDNN executor and the planner surface: offload
 * decisions, per-planner behaviour, iteration invariants, failure
 * handling, and the dynamic planner's profiling passes.
 */

#include "core/dynamic_policy.hh"
#include "core/executor.hh"
#include "core/training_session.hh"

#include "common/units.hh"
#include "net/builders.hh"

#include <gtest/gtest.h>

#include <memory>

using namespace vdnn;
using namespace vdnn::core;
using namespace vdnn::literals;

namespace
{

core::SessionResult
run(const net::Network &network, std::shared_ptr<Planner> planner,
    bool oracle = false)
{
    SessionConfig cfg;
    cfg.planner = std::move(planner);
    cfg.oracle = oracle;
    return runSession(network, cfg);
}

std::shared_ptr<Planner>
baseM()
{
    return std::make_shared<BaselinePlanner>(
        AlgoPreference::MemoryOptimal);
}

std::shared_ptr<Planner>
baseP()
{
    return std::make_shared<BaselinePlanner>(
        AlgoPreference::PerformanceOptimal);
}

std::shared_ptr<Planner>
allM()
{
    return std::make_shared<OffloadAllPlanner>(
        AlgoPreference::MemoryOptimal);
}

std::shared_ptr<Planner>
convM()
{
    return std::make_shared<OffloadConvPlanner>(
        AlgoPreference::MemoryOptimal);
}

MemoryPlan
planWith(Planner &&planner, const net::Network &net)
{
    return planner.plan(net,
                        PlannerContext::exclusive(gpu::titanXMaxwell()));
}

} // namespace

// --- plan resolution -----------------------------------------------------------

TEST(Plans, BaselinePlanOffloadsNothing)
{
    auto network = net::buildVgg16(64);
    MemoryPlan plan = planWith(
        BaselinePlanner(AlgoPreference::MemoryOptimal), *network);
    EXPECT_TRUE(plan.staticAllocation);
    EXPECT_EQ(plan.offloadCount(), 0);
}

TEST(Plans, OffloadAllMarksEveryEligibleBuffer)
{
    auto network = net::buildVgg16(64);
    MemoryPlan plan = planWith(
        OffloadAllPlanner(AlgoPreference::MemoryOptimal), *network);
    int offloaded = 0;
    for (net::BufferId b = 0; b < net::BufferId(network->numBuffers());
         ++b) {
        if (plan.offloads(b)) {
            ++offloaded;
            EXPECT_TRUE(offloadEligible(*network, b));
            EXPECT_FALSE(network->buffer(b).classifier);
        }
    }
    // Input + every feature-extraction buffer that is reused backward.
    EXPECT_GT(offloaded, 15);
}

TEST(Plans, OffloadConvIsSubsetEndingAtConvReaders)
{
    auto network = net::buildVgg16(64);
    MemoryPlan all = planWith(
        OffloadAllPlanner(AlgoPreference::MemoryOptimal), *network);
    MemoryPlan conv = planWith(
        OffloadConvPlanner(AlgoPreference::MemoryOptimal), *network);
    for (net::BufferId b = 0; b < net::BufferId(network->numBuffers());
         ++b) {
        if (conv.offloads(b)) {
            EXPECT_TRUE(all.offloads(b));
            net::LayerId last = network->buffer(b).lastFwdReader;
            EXPECT_EQ(network->node(last).spec.kind,
                      dnn::LayerKind::Conv);
        }
    }
}

TEST(Plans, ClassifierBuffersNeverEligible)
{
    auto network = net::buildAlexNet(32);
    for (net::BufferId b = 0; b < net::BufferId(network->numBuffers());
         ++b) {
        if (network->buffer(b).classifier) {
            EXPECT_FALSE(offloadEligible(*network, b));
        }
    }
}

TEST(Plans, NullPlannerDefaultsToDynamic)
{
    // SessionConfig without a planner resolves to vDNN_dyn.
    auto network = net::buildTinyCnn(8);
    SessionConfig cfg;
    auto r = runSession(*network, cfg);
    ASSERT_TRUE(r.trainable);
    EXPECT_EQ(r.configName, "vDNN_dyn");
    EXPECT_FALSE(r.trials.empty());
}

TEST(Plans, ReplanHints)
{
    // Static planners cannot shrink in place; vDNN_dyn can.
    EXPECT_EQ(BaselinePlanner().replanHint(), ReplanHint::Evict);
    EXPECT_EQ(OffloadAllPlanner().replanHint(), ReplanHint::Evict);
    EXPECT_EQ(CompressedOffloadPlanner().replanHint(),
              ReplanHint::Evict);
    EXPECT_EQ(DynamicPlanner().replanHint(), ReplanHint::InPlace);
}

// --- executor invariants ------------------------------------------------------------

TEST(Executor, TinyCnnRunsUnderEveryPlanner)
{
    auto network = net::buildTinyCnn(8);
    for (const auto &planner :
         {baseM(), allM(), convM(),
          std::shared_ptr<Planner>(std::make_shared<DynamicPlanner>())}) {
        auto r = run(*network, planner);
        EXPECT_TRUE(r.trainable) << planner->name();
        EXPECT_GT(r.iterationTime, 0);
    }
}

TEST(Executor, BaselineUsageIsFlat)
{
    auto network = net::buildTinyCnn(8);
    auto r = run(*network, baseM());
    // Network-wide allocation: max == avg.
    EXPECT_EQ(r.maxTotalUsage, r.avgTotalUsage);
    EXPECT_EQ(r.offloadedBytesPerIter, 0);
    EXPECT_EQ(r.offloads, 0);
}

TEST(Executor, VdnnUsesLessMemoryThanBaseline)
{
    auto network = net::buildVgg16(64);
    auto base = run(*network, baseM());
    auto all = run(*network, allM());
    EXPECT_LT(all.maxManagedUsage, base.maxManagedUsage);
    EXPECT_LT(all.avgManagedUsage, base.avgManagedUsage / 2);
}

TEST(Executor, OffloadAllMovesEveryEligibleBufferOnce)
{
    auto network = net::buildVgg16(64);
    MemoryPlan plan = planWith(
        OffloadAllPlanner(AlgoPreference::MemoryOptimal), *network);
    Bytes expected = plan.offloadedBytes(*network);
    auto r = run(*network, allM());
    EXPECT_EQ(r.offloadedBytesPerIter, expected);
    // No compression directives: PCIe traffic equals the raw bytes
    // moved out and back (offloads + prefetches + fetches).
    EXPECT_GE(r.pcieBytesPerIter, 2 * expected);
}

TEST(Executor, IterationsAreSteadyState)
{
    auto network = net::buildVgg16(64);
    SessionConfig cfg;
    cfg.planner = allM();
    cfg.iterations = 3;
    auto r3 = runSession(*network, cfg);
    cfg.iterations = 1;
    auto r1 = runSession(*network, cfg);
    // Per-iteration metrics identical across steady-state iterations.
    EXPECT_EQ(r3.offloadedBytesPerIter, r1.offloadedBytesPerIter);
    EXPECT_NEAR(double(r3.iterationTime), double(r1.iterationTime),
                double(r1.iterationTime) * 0.01);
}

TEST(Executor, StallTimeOnlyWithTransfers)
{
    auto network = net::buildVgg16(64);
    auto base = run(*network, baseM());
    EXPECT_EQ(base.transferStallTime, 0);
    auto all = run(*network, allM());
    EXPECT_GT(all.transferStallTime, 0);
    // Stall is a small fraction of the iteration.
    EXPECT_LT(all.transferStallTime, all.iterationTime / 2);
}

TEST(Executor, VdnnSlowerOrEqualToOracle)
{
    auto network = net::buildVgg16(64);
    auto oracle = run(*network, baseP(), true);
    for (const auto &planner :
         {allM(),
          std::shared_ptr<Planner>(std::make_shared<OffloadAllPlanner>(
              AlgoPreference::PerformanceOptimal)),
          convM(),
          std::shared_ptr<Planner>(std::make_shared<OffloadConvPlanner>(
              AlgoPreference::PerformanceOptimal))}) {
        auto r = run(*network, planner);
        ASSERT_TRUE(r.trainable);
        EXPECT_GE(r.featureExtractionTime,
                  oracle.featureExtractionTime);
    }
}

TEST(Executor, UntrainableReportsReason)
{
    auto network = net::buildVgg16(256);
    auto r = run(*network, baseM());
    EXPECT_FALSE(r.trainable);
    EXPECT_FALSE(r.failReason.empty());
}

TEST(Executor, FailedIterationLeavesCleanPool)
{
    // Static (p) plans fail VGG-16 (256) mid-iteration; the abort
    // path must unwind every allocation so the pool balances.
    auto network = net::buildVgg16(256);
    dnn::CudnnSim cudnn(gpu::titanXMaxwell());
    gpu::Cluster cluster({{gpu::titanXMaxwell()}});
    gpu::Device &rt = cluster.device(0);
    MemoryManager mm(rt, cluster.pool(0), cluster.host(0), /*client=*/0);
    MemoryPlan plan = planWith(
        OffloadAllPlanner(AlgoPreference::PerformanceOptimal), *network);
    Executor ex(*network, cudnn, rt, mm, plan);
    ASSERT_TRUE(ex.setup());
    Bytes persistent = ex.persistentBytes();
    auto res = ex.runIteration();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(mm.pool().usedBytes(), persistent);
    ex.teardown();
    EXPECT_EQ(mm.pool().usedBytes(), 0);
    EXPECT_EQ(mm.host().usedBytes(), 0);
}

TEST(Executor, GoogLeNetForkJoinRunsUnderOffloadAll)
{
    auto network = net::buildGoogLeNet(32);
    auto r = run(*network, allM());
    EXPECT_TRUE(r.trainable);
    EXPECT_GT(r.offloads, 20);
    EXPECT_GT(r.prefetches, 20);
}

TEST(Executor, SmallGpuForcesFailuresGracefully)
{
    gpu::GpuSpec small = gpu::smallGpu4GiB();
    SessionConfig cfg;
    cfg.gpu = small;
    cfg.planner = baseP();
    auto network = net::buildVgg16(64);
    auto base = runSession(*network, cfg);
    EXPECT_FALSE(base.trainable); // ~7 GB > 4 GiB
    cfg.planner = allM();
    auto all = runSession(*network, cfg);
    EXPECT_TRUE(all.trainable); // vDNN rescues it
}

// --- per-layer timings -------------------------------------------------------------

TEST(Executor, LayerTimingsAreOrdered)
{
    auto network = net::buildTinyCnn(8);
    auto r = run(*network, allM());
    ASSERT_EQ(r.layerTimings.size(), network->numLayers());
    const auto &topo = network->topoOrder();
    for (std::size_t i = 1; i < topo.size(); ++i) {
        const auto &prev = r.layerTimings[std::size_t(topo[i - 1])];
        const auto &cur = r.layerTimings[std::size_t(topo[i])];
        EXPECT_GE(cur.fwdStart, prev.fwdEnd); // forward in topo order
        EXPECT_LE(cur.bwdEnd, prev.bwdStart + 1); // backward reversed
    }
    // Reuse distance positive for all but the final layers.
    EXPECT_GT(r.layerTimings[0].reuseDistance(), 0);
}

TEST(Executor, ClassifierTimeIsPartOfMakespan)
{
    auto network = net::buildAlexNet(32);
    auto r = run(*network, baseP());
    EXPECT_GT(r.classifierTime, 0);
    EXPECT_LT(r.classifierTime, r.iterationTime);
    EXPECT_EQ(r.featureExtractionTime,
              r.iterationTime - r.classifierTime);
}

// --- dynamic planner -----------------------------------------------------------------

TEST(DynamicPlannerTest, PicksNoOffloadWhenEverythingFits)
{
    auto network = net::buildAlexNet(128);
    DynamicPlanner dyn;
    MemoryPlan plan = dyn.plan(
        *network, PlannerContext::exclusive(gpu::titanXMaxwell()));
    EXPECT_TRUE(plan.feasible);
    // Phase 2 wins: fastest algorithms, empty offload set.
    EXPECT_EQ(plan.offloadCount(), 0);
    EXPECT_GE(plan.trials.size(), 2u);
    EXPECT_TRUE(plan.trials[0].passed); // vDNN_all (m) probe
    EXPECT_TRUE(plan.trials[1].passed); // no-offload (p)
}

TEST(DynamicPlannerTest, FallsToOffloadWhenNoOffloadOverflows)
{
    auto network = net::buildVgg16(256);
    DynamicPlanner dyn;
    MemoryPlan plan = dyn.plan(
        *network, PlannerContext::exclusive(gpu::titanXMaxwell()));
    EXPECT_TRUE(plan.feasible);
    EXPECT_GT(plan.offloadCount(), 0);
    EXPECT_FALSE(plan.trials[1].passed); // no-offload (p) must fail
}

TEST(DynamicPlannerTest, GreedyDowngradesWorkspaceHogs)
{
    // On VGG-16 (256) the static (p) planners overflow on conv1_2's
    // backward workspace; the greedy pass must downgrade it while
    // keeping faster algorithms elsewhere.
    auto network = net::buildVgg16(256);
    dnn::CudnnSim cudnn(gpu::titanXMaxwell());
    DynamicPlanner dyn;
    MemoryPlan plan = dyn.plan(
        *network, PlannerContext::exclusive(gpu::titanXMaxwell()));
    ASSERT_TRUE(plan.feasible);
    auto fastest = net::performanceOptimalAlgos(*network, cudnn);
    int downgraded = 0;
    int kept = 0;
    for (net::LayerId id : network->topoOrder()) {
        if (network->node(id).spec.kind != dnn::LayerKind::Conv)
            continue;
        if (plan.algos[std::size_t(id)] == fastest[std::size_t(id)]) {
            ++kept;
        } else {
            ++downgraded;
        }
    }
    EXPECT_GT(downgraded, 0);
    EXPECT_GT(kept, downgraded); // local, not global, downgrade
}

TEST(DynamicPlannerTest, UntrainableOnAbsurdlySmallGpu)
{
    gpu::GpuSpec tiny = gpu::titanXMaxwell();
    tiny.dramCapacity = 64_MiB;
    auto network = net::buildVgg16(64);
    DynamicPlanner dyn;
    MemoryPlan plan = dyn.plan(*network, PlannerContext::exclusive(tiny));
    EXPECT_FALSE(plan.feasible);
    EXPECT_FALSE(plan.failReason.empty());
    EXPECT_FALSE(plan.trials.empty());
    EXPECT_FALSE(plan.trials[0].passed);
}

TEST(DynamicPlannerTest, TrialsRecordMakespans)
{
    auto network = net::buildAlexNet(64);
    DynamicPlanner dyn;
    MemoryPlan plan = dyn.plan(
        *network, PlannerContext::exclusive(gpu::titanXMaxwell()));
    for (const auto &trial : plan.trials) {
        if (trial.passed) {
            EXPECT_GT(trial.makespan, 0);
        }
        EXPECT_FALSE(trial.description.empty());
    }
}

// --- parameterized cross-planner invariants ------------------------------------------

namespace
{

struct PlannerCase
{
    const char *label;
    std::shared_ptr<Planner> (*make)();
};

std::shared_ptr<Planner>
makeBaseM()
{
    return baseM();
}
std::shared_ptr<Planner>
makeBaseP()
{
    return baseP();
}
std::shared_ptr<Planner>
makeAllM()
{
    return allM();
}
std::shared_ptr<Planner>
makeAllP()
{
    return std::make_shared<OffloadAllPlanner>(
        AlgoPreference::PerformanceOptimal);
}
std::shared_ptr<Planner>
makeConvM()
{
    return convM();
}
std::shared_ptr<Planner>
makeConvP()
{
    return std::make_shared<OffloadConvPlanner>(
        AlgoPreference::PerformanceOptimal);
}
std::shared_ptr<Planner>
makeDyn()
{
    return std::make_shared<DynamicPlanner>();
}

} // namespace

class PlannerInvariantTest : public ::testing::TestWithParam<PlannerCase>
{};

TEST_P(PlannerInvariantTest, TinyAndSmallNetsBehave)
{
    const PlannerCase &c = GetParam();
    for (std::int64_t batch : {1, 4, 16}) {
        auto network = net::buildTinyCnn(batch);
        auto r = run(*network, c.make());
        ASSERT_TRUE(r.trainable);
        // Memory balanced, makespan positive, usage bounded by pool.
        EXPECT_GT(r.iterationTime, 0);
        EXPECT_LE(r.maxTotalUsage,
                  gpu::titanXMaxwell().dramCapacity);
        EXPECT_LE(r.avgTotalUsage, r.maxTotalUsage);
        EXPECT_LE(r.avgManagedUsage, r.avgTotalUsage);
        if (r.plan.staticAllocation) {
            EXPECT_EQ(r.offloadedBytesPerIter, 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlannerInvariantTest,
    ::testing::Values(PlannerCase{"base_m", makeBaseM},
                      PlannerCase{"base_p", makeBaseP},
                      PlannerCase{"all_m", makeAllM},
                      PlannerCase{"all_p", makeAllP},
                      PlannerCase{"conv_m", makeConvM},
                      PlannerCase{"conv_p", makeConvP},
                      PlannerCase{"dyn", makeDyn}),
    [](const ::testing::TestParamInfo<PlannerCase> &info) {
        return info.param.label;
    });
