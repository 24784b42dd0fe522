/**
 * @file
 * Tests for the IterationProgram IR and the Executor's resumable
 * cursor: compile shape, static specialization, dump, drain() golden
 * equivalence against the pre-refactor monolithic executor, and
 * stepping one device event at a time producing the identical device
 * timeline.
 */

#include "core/executor.hh"
#include "core/iteration_program.hh"
#include "core/planner.hh"
#include "core/training_session.hh"

#include "common/units.hh"
#include "net/builders.hh"

#include <gtest/gtest.h>

#include <memory>

using namespace vdnn;
using namespace vdnn::core;

namespace
{

MemoryPlan
planFor(const net::Network &net, Planner &&planner)
{
    return planner.plan(net,
                        PlannerContext::exclusive(gpu::titanXMaxwell()));
}

int
countOps(const IterationProgram &p, OpKind kind)
{
    int n = 0;
    for (const IterOp &op : p.ops)
        n += op.kind == kind ? 1 : 0;
    return n;
}

} // namespace

TEST(IterationProgram, CompileShapeBracketsEveryLayer)
{
    auto network = net::buildTinyCnn(16);
    MemoryPlan plan = planFor(
        *network, OffloadAllPlanner(AlgoPreference::MemoryOptimal));
    IterationProgram p =
        IterationProgram::compile(*network, plan, ExecutorConfig{});

    ASSERT_FALSE(p.ops.empty());
    EXPECT_EQ(p.ops.front().kind, OpKind::BeginIteration);
    EXPECT_EQ(p.ops.back().kind, OpKind::EndIteration);
    EXPECT_EQ(countOps(p, OpKind::Barrier), 1);

    // Every layer gets a forward and a backward Kernel/Sync/Release
    // triple, in forward then reverse topological order.
    int layers = int(network->numLayers());
    EXPECT_EQ(countOps(p, OpKind::Kernel), 2 * layers);
    EXPECT_EQ(countOps(p, OpKind::Sync), 2 * layers);
    EXPECT_EQ(countOps(p, OpKind::Release), 2 * layers);

    // The offload set is non-empty under vDNN_all, and so is the
    // prefetch coverage of the backward phase.
    EXPECT_GT(countOps(p, OpKind::Offload), 0);
    EXPECT_GT(countOps(p, OpKind::Prefetch), 0);

    // Forward ops precede the barrier; backward ops follow it.
    bool seen_barrier = false;
    for (const IterOp &op : p.ops) {
        if (op.kind == OpKind::Barrier) {
            seen_barrier = true;
            continue;
        }
        if (op.kind == OpKind::BeginIteration ||
            op.kind == OpKind::EndIteration) {
            continue;
        }
        EXPECT_EQ(op.backward, seen_barrier);
    }
}

TEST(IterationProgram, StaticPlanCompilesAwayMemoryTraffic)
{
    auto network = net::buildTinyCnn(16);
    MemoryPlan plan = planFor(
        *network, BaselinePlanner(AlgoPreference::MemoryOptimal));
    IterationProgram p =
        IterationProgram::compile(*network, plan, ExecutorConfig{});

    EXPECT_EQ(countOps(p, OpKind::Offload), 0);
    EXPECT_EQ(countOps(p, OpKind::Prefetch), 0);
    EXPECT_EQ(countOps(p, OpKind::OnDemandFetch), 0);
    // Backward Allocs are dead too: gradients live in the static
    // region.
    for (const IterOp &op : p.ops) {
        if (op.kind == OpKind::Alloc) {
            EXPECT_FALSE(op.backward);
        }
    }
}

TEST(IterationProgram, PrefetchSpecializedOutWhenDisabled)
{
    auto network = net::buildTinyCnn(16);
    MemoryPlan plan = planFor(
        *network, OffloadAllPlanner(AlgoPreference::MemoryOptimal));
    ExecutorConfig cfg;
    cfg.prefetchEnabled = false;
    IterationProgram p = IterationProgram::compile(*network, plan, cfg);
    EXPECT_EQ(countOps(p, OpKind::Prefetch), 0);
    EXPECT_GT(countOps(p, OpKind::OnDemandFetch), 0);
}

TEST(IterationProgram, DumpListsEveryOp)
{
    auto network = net::buildTinyCnn(16);
    MemoryPlan plan = planFor(
        *network, OffloadAllPlanner(AlgoPreference::MemoryOptimal));
    IterationProgram p =
        IterationProgram::compile(*network, plan, ExecutorConfig{});
    std::string dump = p.dump(*network);
    EXPECT_NE(dump.find("begin"), std::string::npos);
    EXPECT_NE(dump.find("offload"), std::string::npos);
    EXPECT_NE(dump.find("prefetch"), std::string::npos);
    EXPECT_NE(dump.find("end"), std::string::npos);
    // One line per op.
    std::size_t lines = 0;
    for (char c : dump)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, p.ops.size());
}

// --- golden equivalence -----------------------------------------------------

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

} // namespace

TEST(CursorEquivalence, DrainModeMatchesLegacyGoldenOnVgg16)
{
    // Golden numbers recorded from the pre-refactor monolithic
    // executor (VGG-16 (64), vDNN_all (m), Titan X, 2 iterations).
    // The step machine must reproduce them exactly.
    auto network = net::buildVgg16(64);
    SessionResult r = runSession(*network, vggAllConfig());
    ASSERT_TRUE(r.trainable);
    EXPECT_EQ(r.iterationTime, 3230943807LL);
    EXPECT_EQ(r.featureExtractionTime, 3213061240LL);
    EXPECT_EQ(r.transferStallTime, 222438258LL);
    EXPECT_EQ(r.pcieBytesPerIter, 8464891904LL);
    EXPECT_EQ(r.offloads, 22);
    EXPECT_EQ(r.prefetches, 22);
    EXPECT_EQ(r.onDemandFetches, 0);
}

TEST(CursorEquivalence, HostDrivenSteppingMatchesGoldenAndDrainOnVgg16)
{
    auto network = net::buildVgg16(64);

    // Reference: the exclusive drain() driver (runSession).
    SessionResult drained = runSession(*network, vggAllConfig());
    ASSERT_TRUE(drained.trainable);

    // Same experiment, but the host takes control at *every* op
    // boundary: each iteration is driven one step() at a time, and
    // whenever the executor reports Blocked the device clock is
    // advanced one event — the path the packed-overlap scheduler
    // takes. The device timeline must stay byte-identical: the
    // legacy goldens, and layer by layer the drained run.
    Session session(*network, vggAllConfig());
    ASSERT_TRUE(session.setup());
    int boundaries = 0;
    for (int i = 0; i < 2; ++i) {
        session.beginIteration();
        Executor &ex = session.executor();
        while (!ex.finished()) {
            Executor::Status s = ex.step();
            if (ex.finished())
                break;
            ++boundaries;
            if (s == Executor::Status::Blocked) {
                ASSERT_TRUE(session.runtime().stepDevice());
            }
        }
        ASSERT_EQ(ex.status(), Executor::Status::Done);
        session.completeIteration();
    }
    session.teardown();
    SessionResult stepped = session.result();
    ASSERT_TRUE(stepped.trainable);

    EXPECT_GT(boundaries, 100);
    EXPECT_EQ(stepped.iterationTime, 3230943807LL);
    EXPECT_EQ(stepped.featureExtractionTime, 3213061240LL);
    EXPECT_EQ(stepped.transferStallTime, 222438258LL);
    EXPECT_EQ(stepped.pcieBytesPerIter, 8464891904LL);
    EXPECT_EQ(stepped.offloads, 22);
    EXPECT_EQ(stepped.prefetches, 22);
    EXPECT_EQ(stepped.onDemandFetches, 0);

    // Layer-by-layer identical windows.
    ASSERT_EQ(stepped.layerTimings.size(), drained.layerTimings.size());
    for (std::size_t i = 0; i < drained.layerTimings.size(); ++i) {
        EXPECT_EQ(stepped.layerTimings[i].fwdStart,
                  drained.layerTimings[i].fwdStart);
        EXPECT_EQ(stepped.layerTimings[i].fwdEnd,
                  drained.layerTimings[i].fwdEnd);
        EXPECT_EQ(stepped.layerTimings[i].bwdStart,
                  drained.layerTimings[i].bwdStart);
        EXPECT_EQ(stepped.layerTimings[i].bwdEnd,
                  drained.layerTimings[i].bwdEnd);
    }
}

TEST(Cursor, BlockedReportsTheJoinedStream)
{
    auto network = net::buildTinyCnn(16);
    SessionConfig cfg;
    cfg.planner = std::make_shared<OffloadAllPlanner>(
        AlgoPreference::MemoryOptimal);
    Session session(*network, cfg);
    ASSERT_TRUE(session.setup());

    session.beginIteration();
    Executor &ex = session.executor();
    bool saw_blocked = false;
    while (!ex.finished()) {
        Executor::Status s = ex.step();
        if (s == Executor::Status::Blocked) {
            saw_blocked = true;
            EXPECT_GE(ex.blockedStream(), 0);
            ASSERT_TRUE(session.runtime().stepDevice());
        }
    }
    // A kernel launch always outlives the instant host, so at least
    // one Sync boundary must have reported Blocked.
    EXPECT_TRUE(saw_blocked);
    EXPECT_TRUE(session.completeIteration().ok);
    session.teardown();
}
