/**
 * @file
 * Tests for the static-analysis subsystem (src/check/): the clean-pass
 * matrix over every planner x network, seeded-defect rejection with
 * the right diagnostic for each defect class, and the LedgerAuditor's
 * replay over both hand-built and corrupted lifecycle trails.
 *
 * Each seeded defect hand-corrupts a golden artifact (a compiled
 * IterationProgram, a planner-produced MemoryPlan, or a lifecycle
 * event log) the way a real compiler/scheduler bug would, and asserts
 * the matching pass rejects it with the expected DiagCode — so a
 * regression that weakens a verifier check fails here, not in some
 * downstream golden-output diff.
 */

#include "check/check.hh"
#include "check/ledger_auditor.hh"
#include "check/plan_verifier.hh"
#include "check/program_verifier.hh"

#include "common/units.hh"
#include "core/dynamic_policy.hh"
#include "core/executor.hh"
#include "core/iteration_program.hh"
#include "core/memory_manager.hh"
#include "core/planner.hh"
#include "gpu/cluster.hh"
#include "mem/memory_pool.hh"
#include "net/builders.hh"
#include "serve/admission.hh"
#include "serve/serve_stats.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

using namespace vdnn;
using namespace vdnn::core;
using check::CheckResult;
using check::DiagCode;

namespace
{

PlannerContext
titanCtx()
{
    return PlannerContext::exclusive(gpu::titanXMaxwell());
}

bool
hasCode(const CheckResult &r, DiagCode code)
{
    return std::any_of(r.diags.begin(), r.diags.end(),
                       [code](const check::Diagnostic &d) {
                           return d.code == code;
                       });
}

/** The diagnostic codes of @p r, in report order. */
std::vector<DiagCode>
codes(const CheckResult &r)
{
    std::vector<DiagCode> out;
    for (const check::Diagnostic &d : r.diags)
        out.push_back(d.code);
    return out;
}

/** Index of the @p nth op matching (kind, backward), or -1. */
int
findOp(const IterationProgram &p, OpKind kind, bool backward,
       int nth = 0)
{
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
        if (p.ops[i].kind == kind && p.ops[i].backward == backward &&
            nth-- == 0) {
            return int(i);
        }
    }
    return -1;
}

/** A golden (net, plan, program) triple under vDNN_all. */
struct Golden
{
    std::unique_ptr<net::Network> net;
    MemoryPlan plan;
    ExecutorConfig cfg;
    IterationProgram prog;

    explicit Golden(ExecutorConfig config = {})
        : net(net::buildTinyCnn(8)), cfg(config)
    {
        plan = OffloadAllPlanner(AlgoPreference::MemoryOptimal)
                   .plan(*net, titanCtx());
        prog = IterationProgram::compile(*net, plan, cfg);
    }

    CheckResult verify() const
    {
        return check::verifyProgram(*net, plan, cfg, prog);
    }
};

} // namespace

// --- clean passes ------------------------------------------------------------

TEST(CheckCleanPass, EveryPlannerByEveryNetwork)
{
    // Also the differential test of the one footprint definition and
    // the shared op operands: admission's persistent estimate, the
    // PlanVerifier's and what Executor::setup() allocates agree, and
    // one executed iteration never outgrows the provable peak. Pool
    // blocks round up to kAlignment, the only allowed slack.
    struct NetCase
    {
        const char *label;
        std::unique_ptr<net::Network> net;
    };
    std::vector<NetCase> nets;
    nets.push_back({"VGG-16 (64)", net::buildVgg16(64)});
    nets.push_back({"AlexNet (128)", net::buildAlexNet(128)});
    nets.push_back({"OverFeat (128)", net::buildOverFeat(128)});
    // Inception concats repeat an input edge (duplicate operands).
    nets.push_back({"GoogLeNet (32)", net::buildGoogLeNet(32)});

    const Bytes align = mem::MemoryPool::kAlignment;
    dnn::CudnnSim cudnn(gpu::titanXMaxwell());
    for (bool sync_boundary : {true, false}) {
        for (bool prefetch : {true, false}) {
            ExecutorConfig exec;
            exec.syncAtLayerBoundary = sync_boundary;
            exec.prefetchEnabled = prefetch;
            exec.check.verifyPlans = true;
            std::vector<std::shared_ptr<Planner>> planners = {
                std::make_shared<BaselinePlanner>(
                    AlgoPreference::MemoryOptimal),
                std::make_shared<OffloadAllPlanner>(),
                std::make_shared<OffloadConvPlanner>(),
                std::make_shared<CompressedOffloadPlanner>(),
                std::make_shared<DynamicPlanner>(exec),
            };
            for (const NetCase &nc : nets) {
                for (const auto &planner : planners) {
                    std::string what =
                        std::string(nc.label) + " x " + planner->name() +
                        (sync_boundary ? " sync" : " async") +
                        (prefetch ? " prefetch" : " no-prefetch");
                    MemoryPlan plan = planner->plan(*nc.net, titanCtx());
                    ASSERT_TRUE(plan.feasible) << what;
                    CheckResult r = check::verifyPlan(*nc.net, plan,
                                                      titanCtx(), exec);
                    EXPECT_TRUE(r.ok()) << what << "\n" << r.report();
                    EXPECT_GT(r.provablePeakBytes, 0) << what;
                    EXPECT_GT(r.persistentBytes, 0) << what;
                    // Admission reserves this program's numbers: the
                    // same persistent bytes, and the transient peak of
                    // the default config with prefetching off.
                    serve::FootprintEstimate est =
                        serve::estimateFootprint(*nc.net, cudnn, plan);
                    EXPECT_EQ(est.persistent, r.persistentBytes) << what;
                    if (sync_boundary && !prefetch) {
                        EXPECT_EQ(est.transient, r.peakTransientBytes)
                            << what;
                    }

                    gpu::Cluster cluster({{gpu::titanXMaxwell()}});
                    gpu::Device &rt = cluster.device(0);
                    MemoryManager mm(rt, cluster.pool(0), cluster.host(0),
                                     /*client=*/0);
                    Executor ex(*nc.net, cudnn, rt, mm, plan, exec);
                    // The executor's gate on its own program (share:
                    // the fresh pool) finds exactly what standalone
                    // verification finds.
                    const CheckResult &gate = ex.checkResult();
                    EXPECT_EQ(codes(gate), codes(r)) << what;
                    EXPECT_EQ(gate.persistentBytes, r.persistentBytes)
                        << what;
                    EXPECT_EQ(gate.peakTransientBytes, r.peakTransientBytes)
                        << what;
                    EXPECT_EQ(gate.provablePeakBytes, r.provablePeakBytes)
                        << what;
                    ASSERT_TRUE(ex.setup()) << what;
                    Bytes setup_allocs = Bytes(mm.pool().liveAllocations());
                    EXPECT_GE(ex.persistentBytes(), r.persistentBytes)
                        << what;
                    EXPECT_LE(ex.persistentBytes(),
                              r.persistentBytes + align * setup_allocs)
                        << what;

                    IterationResult it = ex.runIteration();
                    ASSERT_TRUE(it.ok) << what << ": " << it.failReason;
                    // An iteration adds at most one feature map and
                    // one gradient per buffer plus one workspace.
                    Bytes max_allocs =
                        setup_allocs + 2 * Bytes(nc.net->numBuffers()) + 1;
                    EXPECT_LE(mm.pool().peakUsage(),
                              r.provablePeakBytes + align * max_allocs)
                        << what;
                    ex.teardown();
                }
            }
        }
    }
}

TEST(CheckCleanPass, AblationsAndStaticPrograms)
{
    // The asynchronous-release ablation and the prefetch-disabled
    // configuration emit differently shaped programs; all must verify.
    for (bool sync_boundary : {true, false}) {
        for (bool prefetch : {true, false}) {
            ExecutorConfig cfg;
            cfg.syncAtLayerBoundary = sync_boundary;
            cfg.prefetchEnabled = prefetch;
            Golden g(cfg);
            CheckResult r = g.verify();
            EXPECT_TRUE(r.ok())
                << "sync=" << sync_boundary << " prefetch=" << prefetch
                << "\n"
                << r.report();
            EXPECT_EQ(r.dmasIssued, r.dmasJoined);
        }
    }
}

TEST(CheckCleanPass, PeakCoversOffloadTraffic)
{
    Golden g;
    CheckResult r = g.verify();
    ASSERT_TRUE(r.ok()) << r.report();
    EXPECT_GT(r.peakTransientBytes, 0);
    EXPECT_GT(r.dmasIssued, 0);

    // Keeping everything resident can only raise the provable peak.
    MemoryPlan resident = g.plan;
    resident.clearOffloads();
    IterationProgram p2 =
        IterationProgram::compile(*g.net, resident, g.cfg);
    CheckResult r2 = check::verifyProgram(*g.net, resident, g.cfg, p2);
    ASSERT_TRUE(r2.ok()) << r2.report();
    EXPECT_GE(r2.peakTransientBytes, r.peakTransientBytes);
}

// --- seeded program defects --------------------------------------------------

TEST(CheckSeededDefect, DroppedReleaseLeaksAllocation)
{
    // Not every backward Release owns live state (an in-place ReLU's
    // may be a no-op), so find one whose removal provably leaks.
    Golden golden;
    bool leaked = false;
    for (int nth = 0;; ++nth) {
        Golden g;
        int idx = findOp(g.prog, OpKind::Release, /*backward=*/true,
                         nth);
        if (idx < 0)
            break;
        g.prog.ops.erase(g.prog.ops.begin() + idx);
        CheckResult r = g.verify();
        EXPECT_FALSE(r.ok()); // at minimum a malformed group
        if (hasCode(r, DiagCode::LeakedAlloc)) {
            leaked = true;
            break;
        }
    }
    EXPECT_TRUE(leaked)
        << "no dropped backward Release produced LeakedAlloc";
}

TEST(CheckSeededDefect, ReorderedSyncRunsReleaseUnderDma)
{
    Golden g;
    // Swap the first forward Sync with the Release that follows it:
    // the Release now runs under its layer's un-joined offload DMAs.
    int idx = findOp(g.prog, OpKind::Sync, /*backward=*/false);
    ASSERT_GE(idx, 0);
    ASSERT_EQ(g.prog.ops[idx + 1].kind, OpKind::Release);
    std::swap(g.prog.ops[idx], g.prog.ops[idx + 1]);
    CheckResult r = g.verify();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::SyncOrder)) << r.report();
}

TEST(CheckSeededDefect, OffloadWithoutFetchReadsStaleData)
{
    // Disable prefetching so the OnDemandFetch ops are the only H2D
    // path, then drop one: the backward kernel reads a Host buffer.
    ExecutorConfig cfg;
    cfg.prefetchEnabled = false;
    // Fetch ops of classifier layers guard already-resident buffers,
    // so find the one whose removal leaves offloaded data stranded.
    bool stale = false;
    for (int nth = 0;; ++nth) {
        Golden g(cfg);
        int idx = findOp(g.prog, OpKind::OnDemandFetch,
                         /*backward=*/true, nth);
        if (idx < 0)
            break;
        g.prog.ops.erase(g.prog.ops.begin() + idx);
        CheckResult r = g.verify();
        if (hasCode(r, DiagCode::ReadOffloaded)) {
            EXPECT_FALSE(r.ok());
            stale = true;
            break;
        }
    }
    EXPECT_TRUE(stale)
        << "no dropped OnDemandFetch produced ReadOffloaded";
}

TEST(CheckSeededDefect, UnjoinedDmaSurvivesToEndIteration)
{
    Golden g;
    // Drop every forward Sync: offload DMAs are never joined (the
    // backward's on-demand fetches would join dropped *prefetches*,
    // but nothing ever joins an offload besides a Sync).
    auto &ops = g.prog.ops;
    ops.erase(std::remove_if(ops.begin(), ops.end(),
                             [](const IterOp &op) {
                                 return op.kind == OpKind::Sync &&
                                        !op.backward;
                             }),
              ops.end());
    CheckResult r = g.verify();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::UnjoinedDma)) << r.report();
}

TEST(CheckSeededDefect, DuplicateReleaseUnderflowsRefcount)
{
    Golden g;
    int idx = findOp(g.prog, OpKind::Release, /*backward=*/false);
    ASSERT_GE(idx, 0);
    g.prog.ops.insert(g.prog.ops.begin() + idx,
                      g.prog.ops[std::size_t(idx)]);
    CheckResult r = g.verify();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::DoubleRelease)) << r.report();
}

TEST(CheckSeededDefect, DroppedAllocLeavesOutputUnallocated)
{
    Golden g;
    // The first layer is a CONV (not in-place): dropping its Alloc
    // leaves its Y unallocated when the kernel writes it.
    ASSERT_FALSE(g.net->node(0).spec.inPlace());
    int idx = findOp(g.prog, OpKind::Alloc, /*backward=*/false,
                     /*nth=*/0);
    ASSERT_GE(idx, 0);
    g.prog.ops.erase(g.prog.ops.begin() + idx);
    CheckResult r = g.verify();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::UseUnallocated)) << r.report();
}

TEST(CheckSeededDefect, MisplacedBarrierBreaksPhaseStructure)
{
    Golden g;
    // A forward op after the Barrier is a phase violation.
    int barrier = findOp(g.prog, OpKind::Barrier, /*backward=*/true);
    if (barrier < 0)
        barrier = findOp(g.prog, OpKind::Barrier, /*backward=*/false);
    ASSERT_GE(barrier, 0);
    int kernel = findOp(g.prog, OpKind::Kernel, /*backward=*/false);
    ASSERT_GE(kernel, 0);
    IterOp moved = g.prog.ops[std::size_t(kernel)];
    g.prog.ops.insert(g.prog.ops.begin() + barrier + 1, moved);
    CheckResult r = g.verify();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::BadStructure)) << r.report();
}

TEST(CheckSeededDefect, DroppedOffloadOperandBreaksPlanCoverage)
{
    // The residency walk alone accepts a buffer silently kept resident;
    // the plan-coverage check must notice the missing offload.
    Golden g;
    int idx = findOp(g.prog, OpKind::Offload, /*backward=*/false);
    ASSERT_GE(idx, 0);
    std::vector<net::BufferId> &bufs = g.prog.ops[std::size_t(idx)].buffers;
    ASSERT_FALSE(bufs.empty());
    net::BufferId dropped = bufs.back();
    bufs.pop_back();
    CheckResult r = g.verify();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(std::any_of(r.diags.begin(), r.diags.end(),
                            [dropped](const check::Diagnostic &d) {
                                return d.code == DiagCode::OffloadCoverage &&
                                       d.buffer == dropped;
                            }))
        << r.report();
}

TEST(CheckSeededDefect, DroppedReleaseOperandLeaksAllocation)
{
    // Drop one managed buffer from the backward Release of its last
    // backward user: nothing else frees it.
    Golden g;
    bool seeded = false;
    for (IterOp &op : g.prog.ops) {
        if (op.kind != OpKind::Release || !op.backward)
            continue;
        auto it = std::find_if(op.buffers.begin(), op.buffers.end(),
                               [&g](net::BufferId b) {
                                   return !g.net->buffer(b).classifier;
                               });
        if (it != op.buffers.end()) {
            op.buffers.erase(it);
            seeded = true;
            break;
        }
    }
    ASSERT_TRUE(seeded);
    CheckResult r = g.verify();
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::LeakedAlloc)) << r.report();
}

// --- seeded plan defects -----------------------------------------------------

TEST(CheckSeededDefect, OffloadOfIneligibleBuffer)
{
    Golden g;
    // The classifier region is never offload-eligible.
    int seeded = -1;
    for (net::BufferId b = 0;
         b < net::BufferId(g.net->numBuffers()); ++b) {
        if (!offloadEligible(*g.net, b)) {
            g.plan.directive(b).action =
                BufferDirective::Action::Offload;
            seeded = int(b);
            break;
        }
    }
    ASSERT_GE(seeded, 0);
    CheckResult r = check::verifyPlan(*g.net, g.plan, titanCtx(),
                                      g.cfg);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::IneligibleOffload)) << r.report();
}

TEST(CheckSeededDefect, CompressedDirectiveWithoutSparsity)
{
    Golden g;
    // Compression on a kept-resident buffer moves nothing over PCIe.
    net::BufferId target = -1;
    for (net::BufferId b = 0;
         b < net::BufferId(g.net->numBuffers()); ++b) {
        if (!g.plan.offloads(b)) {
            target = b;
            break;
        }
    }
    ASSERT_GE(target, 0);
    g.plan.directive(target).compressed = true;
    g.plan.directive(target).dmaScale = 0.5;
    CheckResult r = check::verifyPlan(*g.net, g.plan, titanCtx(),
                                      g.cfg);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::CompressedDense)) << r.report();
}

namespace
{

/** A compressed VGG-16 plan whose first compressed directive carries a
 *  dmaScale of 1.5 — a DMA that would *grow* the traffic. */
MemoryPlan
dmaScaleOutsideUnitInterval(const net::Network &network)
{
    MemoryPlan plan = CompressedOffloadPlanner().plan(network, titanCtx());
    for (net::BufferId b = 0; b < net::BufferId(network.numBuffers());
         ++b) {
        if (plan.offloads(b) && plan.directive(b).compressed) {
            plan.directive(b).dmaScale = 1.5;
            return plan;
        }
    }
    ADD_FAILURE() << "no compressed directive to corrupt";
    return plan;
}

} // namespace

TEST(CheckSeededDefect, DmaScaleOutsideUnitInterval)
{
    auto network = net::buildVgg16(32);
    MemoryPlan plan = dmaScaleOutsideUnitInterval(*network);
    CheckResult r = check::verifyPlan(*network, plan, titanCtx(),
                                      ExecutorConfig{});
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::BadDmaScale)) << r.report();
}

TEST(CheckSeededDefect, ExecutorGateRejectsBadDmaScaleAtConstruction)
{
    // A directly built Executor — the way vDNN_dyn's profiling trials
    // build theirs — runs the plan-level checks too, not only the
    // program check: the contradictory directive dies at compile.
    auto network = net::buildVgg16(32);
    MemoryPlan plan = dmaScaleOutsideUnitInterval(*network);
    ExecutorConfig exec;
    exec.check.verifyPlans = true;
    dnn::CudnnSim cudnn(gpu::titanXMaxwell());
    gpu::Cluster cluster({{gpu::titanXMaxwell()}});
    gpu::Device &rt = cluster.device(0);
    MemoryManager mm(rt, cluster.pool(0), cluster.host(0), /*client=*/0);
    EXPECT_DEATH(Executor(*network, cudnn, rt, mm, plan, exec),
                 "BadDmaScale");
}

TEST(CheckSeededDefect, OversubscribedShareWarns)
{
    Golden g;
    PlannerContext tiny = PlannerContext::shared(
        gpu::titanXMaxwell(), Bytes(4096));
    // A share too small is a capacity condition, not a plan defect:
    // it only warns (the runtime meets it with an OOM and a requeue).
    CheckResult warned =
        check::verifyPlan(*g.net, g.plan, tiny, g.cfg);
    EXPECT_TRUE(warned.ok()) << warned.report();
    EXPECT_TRUE(hasCode(warned, DiagCode::ShareExceeded));
}

TEST(CheckSeededDefect, StaticPlanWithOffloadDirectives)
{
    auto network = net::buildTinyCnn(8);
    MemoryPlan plan =
        BaselinePlanner(AlgoPreference::MemoryOptimal)
            .plan(*network, titanCtx());
    ASSERT_TRUE(plan.staticAllocation);
    for (net::BufferId b = 0;
         b < net::BufferId(network->numBuffers()); ++b) {
        if (offloadEligible(*network, b)) {
            plan.directive(b).action = BufferDirective::Action::Offload;
            break;
        }
    }
    CheckResult r = check::verifyPlan(*network, plan, titanCtx(),
                                      ExecutorConfig{});
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::StaticPlanTraffic)) << r.report();
}

TEST(CheckSeededDefect, PlanShapeMismatch)
{
    Golden g;
    g.plan.buffers.pop_back();
    CheckResult r = check::verifyPlan(*g.net, g.plan, titanCtx(),
                                      g.cfg);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::PlanShape)) << r.report();
}

TEST(CheckSeededDefect, AmbiguousPrefetchPriorities)
{
    // A concat join (GoogLeNet inception) is the only place one layer
    // prefetches several buffers; equal positive priorities there make
    // the issue order fall back to buffer id.
    auto network = net::buildGoogLeNet(8);
    MemoryPlan plan = OffloadAllPlanner().plan(*network, titanCtx());
    bool seeded = false;
    for (net::LayerId id : network->topoOrder()) {
        const net::LayerNode &n = network->node(id);
        std::vector<net::BufferId> offloaded;
        for (net::LayerId in_id : n.inputs) {
            net::BufferId b = in_id == net::kInputLayer
                                  ? network->inputBuffer()
                                  : network->node(in_id).yBuffer;
            if (plan.offloads(b) &&
                std::find(offloaded.begin(), offloaded.end(), b) ==
                    offloaded.end()) {
                offloaded.push_back(b);
            }
        }
        if (offloaded.size() >= 2) {
            plan.directive(offloaded[0]).prefetchPriority = 3;
            plan.directive(offloaded[1]).prefetchPriority = 3;
            seeded = true;
            break;
        }
    }
    ASSERT_TRUE(seeded);
    CheckResult r = check::verifyPlan(*network, plan, titanCtx(),
                                      ExecutorConfig{});
    EXPECT_TRUE(hasCode(r, DiagCode::PriorityConflict)) << r.report();
    EXPECT_TRUE(r.ok()); // a warning, not an error
}

// --- ledger auditing ---------------------------------------------------------

namespace
{

serve::LifecycleEvent
event(TimeNs when, serve::JobId job, const char *what, int device,
      Bytes before, Bytes after)
{
    serve::LifecycleEvent ev;
    ev.when = when;
    ev.job = job;
    ev.what = what;
    ev.device = device;
    ev.reservedBefore = before;
    ev.reservedAfter = after;
    return ev;
}

/** A well-formed single-job trail: admit, preempt, resume, finish. */
serve::ServeReport
goldenReport()
{
    serve::ServeReport rep;
    rep.lifecycle = {
        event(10, 0, "admit", 0, 0, 100),
        event(20, 0, "suspend", 0, 100, 100),
        event(30, 0, "evict", 0, 100, 0),
        event(40, 0, "resume", 0, 0, 100),
        event(50, 0, "finish", 0, 100, 0),
    };
    serve::JobOutcome job;
    job.id = 0;
    job.state = serve::JobState::Finished;
    job.preemptions = 1;
    rep.jobs.push_back(job);
    return rep;
}

} // namespace

TEST(CheckLedgerAudit, GoldenTrailPasses)
{
    CheckResult r = check::auditLedger(goldenReport());
    EXPECT_TRUE(r.ok()) << r.report();
}

TEST(CheckLedgerAudit, BrokenChainRejected)
{
    serve::ServeReport rep = goldenReport();
    rep.lifecycle[3].reservedBefore = 42; // does not chain from evict
    CheckResult r = check::auditLedger(rep);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::LedgerChain)) << r.report();
}

TEST(CheckLedgerAudit, DoubleAdmissionRejected)
{
    serve::ServeReport rep = goldenReport();
    rep.lifecycle.insert(rep.lifecycle.begin() + 1,
                         event(15, 0, "admit", 1, 100, 200));
    for (std::size_t i = 2; i < rep.lifecycle.size(); ++i) {
        rep.lifecycle[i].reservedBefore += 100;
        rep.lifecycle[i].reservedAfter += 100;
    }
    rep.reservedBytesAtEnd = 100;
    CheckResult r = check::auditLedger(rep);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::DoubleResidency)) << r.report();
}

TEST(CheckLedgerAudit, IllegalTransitionRejected)
{
    serve::ServeReport rep = goldenReport();
    rep.lifecycle.erase(rep.lifecycle.begin() + 1); // evict w/o suspend
    CheckResult r = check::auditLedger(rep);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::BadTransition)) << r.report();
}

TEST(CheckLedgerAudit, UnknownEventKindRejected)
{
    // A kind the state machine does not know (here the retired
    // "page-out") is a BadTransition, not a silent no-op.
    serve::ServeReport rep = goldenReport();
    rep.lifecycle.insert(rep.lifecycle.begin() + 1,
                         event(15, 0, "page-out", 0, 100, 100));
    CheckResult r = check::auditLedger(rep);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::BadTransition)) << r.report();
    EXPECT_NE(r.report().find("unknown lifecycle event 'page-out'"),
              std::string::npos)
        << r.report();
}

TEST(CheckLedgerAudit, WrongDeltaSignRejected)
{
    serve::ServeReport rep = goldenReport();
    // A suspend that moves reserved bytes is bookkeeping corruption.
    rep.lifecycle[1].reservedAfter = 150;
    rep.lifecycle[2].reservedBefore = 150;
    rep.lifecycle[2].reservedAfter = 50;
    rep.lifecycle[3].reservedBefore = 50;
    rep.lifecycle[3].reservedAfter = 150;
    rep.lifecycle[4].reservedBefore = 150;
    rep.lifecycle[4].reservedAfter = 50;
    rep.reservedBytesAtEnd = 0;
    CheckResult r = check::auditLedger(rep);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::DeltaSign)) << r.report();
}

TEST(CheckLedgerAudit, UnresolvedPreemptionIsLost)
{
    serve::ServeReport rep = goldenReport();
    rep.lifecycle.resize(3); // ends Evicted, never resumed
    rep.jobs[0].state = serve::JobState::Evicted;
    CheckResult r = check::auditLedger(rep);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::LostJob)) << r.report();
}

TEST(CheckLedgerAudit, UndrainedLedgerRejected)
{
    serve::ServeReport rep = goldenReport();
    rep.reservedBytesAtEnd = 7;
    rep.evictedLedgerAtEnd = 1;
    CheckResult r = check::auditLedger(rep);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::LedgerNonZero)) << r.report();
}

TEST(CheckLedgerAudit, OutcomeCountersMustMatchLog)
{
    serve::ServeReport rep = goldenReport();
    rep.jobs[0].preemptions = 0; // log shows one evict
    CheckResult r = check::auditLedger(rep);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(hasCode(r, DiagCode::OutcomeMismatch)) << r.report();
}

TEST(CheckLedgerAudit, MigrationTrailPasses)
{
    serve::ServeReport rep;
    rep.lifecycle = {
        event(10, 0, "admit", 0, 0, 100),
        event(20, 0, "migrate-out", 0, 100, 0),
        event(21, 0, "migrate", 1, 0, 120),
        event(30, 0, "finish", 1, 120, 0),
    };
    serve::JobOutcome job;
    job.id = 0;
    job.state = serve::JobState::Finished;
    job.migrations = 1;
    rep.jobs.push_back(job);
    CheckResult r = check::auditLedger(rep);
    EXPECT_TRUE(r.ok()) << r.report();
}

TEST(CheckLedgerAudit, StalledMigrationStillCountsAsAMigration)
{
    // A stall re-plans on the target and fails there: the tenant is
    // homed on the target all the same, so it counts as a migration.
    serve::ServeReport rep;
    rep.lifecycle = {
        event(10, 0, "admit", 0, 0, 100),
        event(20, 0, "migrate-out", 0, 100, 0),
        event(21, 0, "migrate-stall", 1, 0, 0),
        event(25, 0, "resume", 1, 0, 120),
        event(30, 0, "finish", 1, 120, 0),
    };
    serve::JobOutcome job;
    job.id = 0;
    job.state = serve::JobState::Finished;
    job.migrations = 1;
    rep.jobs.push_back(job);
    CheckResult r = check::auditLedger(rep);
    EXPECT_TRUE(r.ok()) << r.report();

    rep.jobs[0].migrations = 0;
    r = check::auditLedger(rep);
    EXPECT_TRUE(hasCode(r, DiagCode::OutcomeMismatch)) << r.report();
}

// --- diagnostics rendering ---------------------------------------------------

TEST(CheckDiagnostics, RenderingAndCounts)
{
    CheckResult r;
    r.add(DiagCode::UnjoinedDma, check::Severity::Error, "boom", 12, 3,
          7);
    r.add(DiagCode::ShareExceeded, check::Severity::Warning, "close");
    EXPECT_EQ(r.errorCount(), 1);
    EXPECT_EQ(r.warningCount(), 1);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.diags[0].str(),
              "error[UnjoinedDma] op 12 layer 3 buffer 7: boom");
    EXPECT_NE(r.report().find("warning[ShareExceeded]"),
              std::string::npos);
}
