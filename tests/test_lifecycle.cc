/**
 * @file
 * Tests for the Session lifecycle state machine: host-driven stepping
 * (golden-pinned against the uninterrupted stepper run),
 * evict-to-host / restore round trips, mid-iteration cancellation,
 * mid-run in-place re-planning against a moving free share, and the
 * executor's verification gate on every re-plan surface.
 */

#include "check/check.hh"
#include "check/plan_verifier.hh"
#include "core/dynamic_policy.hh"
#include "core/executor.hh"
#include "core/training_session.hh"

#include "common/units.hh"
#include "net/builders.hh"
#include "obs/metrics.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace vdnn;
using namespace vdnn::core;
using namespace vdnn::literals;

namespace
{

SessionConfig
vggAllConfig()
{
    SessionConfig cfg;
    cfg.planner = std::make_shared<OffloadAllPlanner>(
        AlgoPreference::MemoryOptimal);
    cfg.iterations = 2;
    return cfg;
}

SessionConfig
tinyAllConfig()
{
    SessionConfig cfg;
    cfg.planner = std::make_shared<OffloadAllPlanner>(
        AlgoPreference::MemoryOptimal);
    return cfg;
}

} // namespace

// --- host-driven stepping ----------------------------------------------------

TEST(Lifecycle, FreshSessionStateMachine)
{
    auto network = net::buildTinyCnn(8);
    Session session(*network, tinyAllConfig());
    EXPECT_EQ(session.state(), SessionState::Fresh);
    ASSERT_TRUE(session.setup());
    EXPECT_EQ(session.state(), SessionState::Active);
    session.teardown();
    EXPECT_EQ(session.state(), SessionState::Torn);
}

TEST(Lifecycle, HostDrivenSteppingAtEveryBoundaryMatchesUninterruptedGolden)
{
    // Golden numbers recorded from the pre-refactor monolithic
    // executor (VGG-16 (64), vDNN_all (m), Titan X, 2 iterations) —
    // the same constants test_iteration_program pins. The host taking
    // control at *every* stepper boundary (one step, then the clock
    // advanced by hand on a Blocked join) must leave the device
    // timeline byte-identical.
    auto network = net::buildVgg16(64);
    Session session(*network, vggAllConfig());
    ASSERT_TRUE(session.setup());
    int boundaries = 0;
    for (int i = 0; i < 2; ++i) {
        IterationStepper &st = session.beginIteration();
        while (!st.finished()) {
            IterationStepper::Status s = st.step();
            if (st.finished())
                break;
            ++boundaries;
            if (s == IterationStepper::Status::Blocked) {
                ASSERT_TRUE(session.runtime().stepDevice());
            }
        }
        ASSERT_EQ(st.status(), IterationStepper::Status::Done);
        session.completeIteration();
    }
    session.teardown();
    SessionResult r = session.result();
    ASSERT_TRUE(r.trainable);
    EXPECT_GT(boundaries, 100);
    EXPECT_EQ(r.iterationTime, 3230943807LL);
    EXPECT_EQ(r.featureExtractionTime, 3213061240LL);
    EXPECT_EQ(r.transferStallTime, 222438258LL);
    EXPECT_EQ(r.pcieBytesPerIter, 8464891904LL);
    EXPECT_EQ(r.offloads, 22);
    EXPECT_EQ(r.prefetches, 22);
    EXPECT_EQ(r.onDemandFetches, 0);
}

// --- evict / restore ---------------------------------------------------------

TEST(Lifecycle, EvictRestoreBetweenIterationsPreservesIterations)
{
    auto network = net::buildVgg16(64);

    // Reference: two uninterrupted iterations.
    SessionResult golden = runSession(*network, vggAllConfig());
    ASSERT_TRUE(golden.trainable);

    // Same experiment, but the tenant is fully evicted to pinned host
    // memory and restored between the two iterations.
    Session session(*network, vggAllConfig());
    ASSERT_TRUE(session.setup());
    Bytes persistent = session.persistentBytes();
    ASSERT_TRUE(session.runIteration().ok);

    ASSERT_TRUE(session.evictToHost());
    EXPECT_EQ(session.state(), SessionState::Evicted);
    // The entire device share is released; the state is staged in
    // pinned host memory.
    EXPECT_EQ(session.memory().pool().usedBytes(), 0);
    EXPECT_EQ(session.evictedBytes(), persistent);

    ASSERT_TRUE(session.resume());
    EXPECT_EQ(session.state(), SessionState::Active);
    EXPECT_EQ(session.evictedBytes(), 0);
    EXPECT_EQ(session.persistentBytes(), persistent);

    ASSERT_TRUE(session.runIteration().ok);
    session.teardown();
    SessionResult r = session.result();
    ASSERT_TRUE(r.trainable);
    EXPECT_EQ(session.iterationsDone(), 2);
    // Per-iteration behaviour is unchanged by the round trip: the
    // restored tenant re-plans to the same plan (same free share) and
    // the steady-state iteration reproduces the golden metrics.
    EXPECT_EQ(r.iterationTime, golden.iterationTime);
    EXPECT_EQ(r.offloadedBytesPerIter, golden.offloadedBytesPerIter);
    EXPECT_EQ(r.pcieBytesPerIter, golden.pcieBytesPerIter);
    EXPECT_EQ(r.offloads, golden.offloads);
    EXPECT_EQ(r.prefetches, golden.prefetches);
}

TEST(Lifecycle, EvictMidIterationCancelsAndRerunsCleanly)
{
    auto network = net::buildVgg16(64);
    Session session(*network, vggAllConfig());
    ASSERT_TRUE(session.setup());
    Bytes persistent = session.persistentBytes();

    // Park the stepper somewhere in the middle of the iteration.
    IterationStepper &st = session.beginIteration();
    for (int steps = 0; steps < 40 && !st.finished(); ++steps) {
        if (st.step() == IterationStepper::Status::Blocked) {
            ASSERT_TRUE(session.runtime().stepDevice());
        }
    }
    ASSERT_FALSE(st.finished());
    ASSERT_GT(st.pc(), 0u);

    ASSERT_TRUE(session.evictToHost());
    // The partial iteration was cancelled, not counted, and every
    // transient it held was unwound before the DMA out.
    EXPECT_EQ(session.iterationsDone(), 0);
    EXPECT_EQ(session.memory().pool().usedBytes(), 0);
    EXPECT_EQ(session.evictedBytes(), persistent);

    ASSERT_TRUE(session.resume());
    EXPECT_EQ(session.activeStepper(), nullptr);
    // The iteration re-runs from the top under the restored state.
    ASSERT_TRUE(session.runIteration().ok);
    EXPECT_EQ(session.iterationsDone(), 1);
    session.teardown();
    // Pool and host fully drained.
    EXPECT_EQ(session.memory().pool().usedBytes(), 0);
    EXPECT_EQ(session.memory().host().usedBytes(), 0);
}

TEST(Lifecycle, EvictFailsGracefullyWhenHostExhausted)
{
    // A pinned host allocator too small to stage the persistent state:
    // evictToHost() must refuse and leave the tenant Active (resident)
    // and runnable.
    gpu::GpuSpec spec = gpu::titanXMaxwell();
    spec.hostCapacity = 1_KiB;
    gpu::Cluster cluster({{spec}});
    mem::MemoryPool &pool = cluster.pool(0);
    SharedGpu shared = shareOf(cluster, 0, /*client=*/1);

    auto network = net::buildTinyCnn(8);
    SessionConfig cfg;
    cfg.planner = std::make_shared<BaselinePlanner>(
        AlgoPreference::MemoryOptimal);
    Session session(*network, cfg, shared);
    ASSERT_TRUE(session.setup());
    EXPECT_FALSE(session.evictToHost());
    EXPECT_EQ(session.state(), SessionState::Active);
    EXPECT_EQ(session.evictedBytes(), 0);
    EXPECT_TRUE(session.runIteration().ok);
    session.teardown();
    EXPECT_EQ(pool.usedBytes(), 0);
}

// --- mid-run re-planning -----------------------------------------------------

TEST(Lifecycle, ReplanRefusedForCapacityIndependentPlanners)
{
    auto network = net::buildTinyCnn(8);
    Session session(*network, tinyAllConfig());
    ASSERT_TRUE(session.setup());
    // vDNN_all advertises ReplanHint::Evict: no in-place swap.
    EXPECT_FALSE(session.replan());
    session.teardown();
}

TEST(Lifecycle, DynamicTenantGrowsBackWhenTheShareFrees)
{
    // A vDNN_dyn tenant squeezed by a co-tenant hog plans offloads;
    // when the hog's share frees, an in-place replan at the iteration
    // boundary grows the plan back to the no-offload ideal — the
    // ROADMAP's mid-run re-planning item.
    gpu::Cluster cluster({{gpu::titanXMaxwell()}});
    mem::MemoryPool &pool = cluster.pool(0);
    auto hog = pool.allocate(7_GiB + 512_MiB, "co-tenant hog", /*client=*/99);
    SharedGpu shared = shareOf(cluster, 0, /*client=*/1);

    auto network = net::buildVgg16(64);
    SessionConfig cfg;
    cfg.planner = std::make_shared<DynamicPlanner>();
    Session session(*network, cfg, shared);
    ASSERT_TRUE(session.setup());
    EXPECT_GT(session.plan().offloadCount(), 0); // squeezed to offload
    ASSERT_TRUE(session.runIteration().ok);

    pool.release(hog);
    ASSERT_TRUE(session.replan());
    EXPECT_EQ(session.plan().offloadCount(), 0); // grown back
    // The recompiled program runs under the new plan.
    core::IterationResult r = session.runIteration();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.offloads, 0);
    session.teardown();
    EXPECT_EQ(pool.usedBytes(), 0);
}

TEST(Lifecycle, ResumedTenantReplansAgainstTheCurrentShare)
{
    // Evicted under a full device, resumed against an empty one: the
    // re-plan on resume() picks a larger plan than the tenant left
    // with (vDNN_dyn grows from offloading to no-offload).
    gpu::Cluster cluster({{gpu::titanXMaxwell()}});
    mem::MemoryPool &pool = cluster.pool(0);
    auto hog = pool.allocate(7_GiB + 512_MiB, "co-tenant hog", /*client=*/99);
    SharedGpu shared = shareOf(cluster, 0, /*client=*/1);

    auto network = net::buildVgg16(64);
    SessionConfig cfg;
    cfg.planner = std::make_shared<DynamicPlanner>();
    Session session(*network, cfg, shared);
    ASSERT_TRUE(session.setup());
    EXPECT_GT(session.plan().offloadCount(), 0);
    ASSERT_TRUE(session.runIteration().ok);

    ASSERT_TRUE(session.evictToHost());
    EXPECT_EQ(pool.usedByClient(1), 0);

    pool.release(hog);
    ASSERT_TRUE(session.resume());
    EXPECT_EQ(session.plan().offloadCount(), 0); // re-planned larger
    EXPECT_TRUE(session.runIteration().ok);
    session.teardown();
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(cluster.host(0).usedBytes(), 0);
}

// --- the verification gate on every re-plan surface --------------------------

namespace
{

/** vDNN_all, advertising in-place re-planning (its plan never changes,
 *  so every re-plan re-verifies the same plan against the share). */
class InPlaceOffloadAllPlanner : public OffloadAllPlanner
{
  public:
    InPlaceOffloadAllPlanner()
        : OffloadAllPlanner(AlgoPreference::MemoryOptimal)
    {}
    ReplanHint replanHint() const override { return ReplanHint::InPlace; }
};

bool
reportsShareExceeded(const check::CheckResult &r)
{
    return std::any_of(r.diags.begin(), r.diags.end(),
                       [](const check::Diagnostic &d) {
                           return d.code == check::DiagCode::ShareExceeded;
                       });
}

} // namespace

TEST(Lifecycle, EveryReplanSurfaceIsVerifiedOnceAgainstTheShare)
{
    // A co-tenant hog leaves a share that holds the tenant's persistent
    // state but not its provable peak. Setup, in-place replan and
    // resume-after-evict each compile one program, and the executor's
    // gate verifies each exactly once against that share: a warning,
    // not a failure, because the runtime degrades to OOM-requeue.
    gpu::GpuSpec spec = gpu::titanXMaxwell();
    gpu::Cluster cluster({{spec}});
    obs::MetricsRegistry metrics;
    cluster.setTelemetry({nullptr, &metrics});
    mem::MemoryPool &pool = cluster.pool(0);

    auto network = net::buildVgg16(64);
    auto planner = std::make_shared<InPlaceOffloadAllPlanner>();
    check::CheckResult full = check::verifyPlan(
        *network, planner->plan(*network, PlannerContext::exclusive(spec)),
        PlannerContext::exclusive(spec), ExecutorConfig{});
    ASSERT_TRUE(full.ok()) << full.report();
    Bytes share = full.persistentBytes +
                  (full.provablePeakBytes - full.persistentBytes) / 2;
    auto hog = pool.allocate(spec.dramCapacity - share, "co-tenant hog",
                             /*client=*/99);

    SharedGpu shared = shareOf(cluster, 0, /*client=*/1);
    SessionConfig cfg;
    cfg.planner = planner;
    cfg.exec.check.verifyPlans = true;
    Session session(*network, cfg, shared);
    obs::Counter &verified = metrics.counter("check.programs_verified");

    ASSERT_TRUE(session.setup());
    EXPECT_EQ(verified.value(), 1.0);
    EXPECT_TRUE(session.checkResult().ok());
    EXPECT_TRUE(reportsShareExceeded(session.checkResult()))
        << session.checkResult().report();

    ASSERT_TRUE(session.replan());
    EXPECT_EQ(verified.value(), 2.0);
    EXPECT_TRUE(reportsShareExceeded(session.checkResult()))
        << session.checkResult().report();

    ASSERT_TRUE(session.evictToHost());
    ASSERT_TRUE(session.resume());
    EXPECT_EQ(verified.value(), 3.0);
    EXPECT_TRUE(reportsShareExceeded(session.checkResult()))
        << session.checkResult().report();

    session.teardown();
    pool.release(hog);
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(cluster.host(0).usedBytes(), 0);
}
