/**
 * @file
 * Tests for the multi-tenant serving subsystem: admission accounting,
 * arrival generation, scheduler fairness and the headline tenancy
 * result (vDNN_all packs more VGG-16 jobs onto a 12 GB Titan X than
 * the Baseline allocator).
 */

#include "serve/admission.hh"
#include "serve/arrival.hh"
#include "serve/job.hh"
#include "core/dynamic_policy.hh"
#include "serve/scheduler.hh"

#include "check/ledger_auditor.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "mem/memory_pool.hh"
#include "net/builders.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>

using namespace vdnn;
using namespace vdnn::serve;
using namespace vdnn::literals;

// --- per-tenant pool accounting ---------------------------------------------

TEST(PoolClientAccounting, ChargesAndReleasesPerClient)
{
    mem::MemoryPool pool(1_MiB);
    auto a = pool.allocate(100_KiB, "a", /*client=*/1);
    auto b = pool.allocate(200_KiB, "b", /*client=*/2);
    auto c = pool.allocate(50_KiB, "c", /*client=*/1);
    EXPECT_EQ(pool.usedByClient(1), 150_KiB);
    EXPECT_EQ(pool.usedByClient(2), 200_KiB);
    EXPECT_EQ(pool.usedByClient(3), 0);
    EXPECT_TRUE(pool.checkInvariants());

    pool.release(a);
    pool.release(c);
    EXPECT_EQ(pool.usedByClient(1), 0);
    EXPECT_EQ(pool.peakByClient(1), 150_KiB);
    pool.release(b);
    EXPECT_TRUE(pool.checkInvariants());
}

// --- arrival generators ------------------------------------------------------

TEST(Arrivals, PoissonIsDeterministicAndMonotonic)
{
    SplitMix64 rng1(7), rng2(7);
    auto a = poissonArrivals(32, 5.0, rng1);
    auto b = poissonArrivals(32, 5.0, rng2);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 32u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GT(a.front(), 0);
}

TEST(Arrivals, PoissonRateRoughlyHolds)
{
    SplitMix64 rng(11);
    const int n = 2000;
    auto a = poissonArrivals(n, 10.0, rng);
    double horizon_s = toSeconds(a.back());
    double rate = double(n) / horizon_s;
    EXPECT_NEAR(rate, 10.0, 1.0);
}

TEST(Arrivals, UniformAndTrace)
{
    auto u = uniformArrivals(4, 10_ms, 5_ms);
    ASSERT_EQ(u.size(), 4u);
    EXPECT_EQ(u[0], 5_ms);
    EXPECT_EQ(u[3], 35_ms);

    auto t = traceArrivals({2.0, 0.5, 1.0});
    ASSERT_EQ(t.size(), 3u);
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
    EXPECT_EQ(t[0], secondsToNs(0.5));
}

// --- job queue ---------------------------------------------------------------

TEST(JobQueueTest, TakePreservesOrder)
{
    JobQueue q;
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.take(1), 2); // backfill from the middle
    EXPECT_EQ(q.take(0), 1);
    q.pushFront(9);
    EXPECT_EQ(q.take(0), 9);
    EXPECT_EQ(q.take(0), 3);
    EXPECT_TRUE(q.empty());
}

// --- admission controller ----------------------------------------------------

TEST(Admission, RejectWhenFullAdmitAfterRelease)
{
    AdmissionController ac(10_GiB, /*safety=*/1.0);

    FootprintEstimate big;
    big.persistent = 4_GiB;
    big.transient = 2_GiB;

    // persistent sum + shared transient arena: 4+4+2 = 10 GiB fits...
    EXPECT_TRUE(ac.canAdmit(big));
    ac.admit(0, big);
    EXPECT_TRUE(ac.canAdmit(big));
    ac.admit(1, big);
    EXPECT_EQ(ac.admittedCount(), 2);
    EXPECT_EQ(ac.reservedBytes(), 10_GiB);

    // ...but a third tenant would need 4 more persistent GiB: full.
    EXPECT_FALSE(ac.canAdmit(big));
    EXPECT_TRUE(ac.feasible(big)); // would fit an empty device

    // Teardown frees the reservation and admission resumes.
    ac.release(0);
    EXPECT_TRUE(ac.canAdmit(big));
    ac.admit(2, big);
    EXPECT_FALSE(ac.canAdmit(big));
}

TEST(Admission, TransientArenaIsSharedNotSummed)
{
    AdmissionController ac(10_GiB, /*safety=*/1.0);
    FootprintEstimate est;
    est.persistent = 1_GiB;
    est.transient = 7_GiB;
    // Summed reservations would cap at one tenant (8 GiB each);
    // the shared arena admits three: 3x1 + 7 = 10 GiB.
    ac.admit(0, est);
    ac.admit(1, est);
    EXPECT_TRUE(ac.canAdmit(est));
    ac.admit(2, est);
    EXPECT_FALSE(ac.canAdmit(est));
    EXPECT_EQ(ac.reservedBytes(), 10_GiB);
}

TEST(Admission, InfeasibleJobDetected)
{
    AdmissionController ac(1_GiB);
    FootprintEstimate est;
    est.persistent = 2_GiB;
    EXPECT_FALSE(ac.feasible(est));
    EXPECT_FALSE(ac.canAdmit(est));
}

TEST(Admission, BackoffInflationCanMakeJobInfeasible)
{
    // After OOM requeues grow a job's reservation scale, feasibility
    // must be judged at the grown scale or the job queues forever.
    AdmissionController ac(10_GiB, /*safety=*/1.0);
    FootprintEstimate est;
    est.persistent = 5_GiB;
    est.transient = 3_GiB;
    EXPECT_TRUE(ac.feasible(est));
    EXPECT_FALSE(ac.feasible(est, /*scale=*/1.5));
}

TEST(Admission, FeasibleMeansFitsAnEmptyLedger)
{
    // One rounding rule: each component is scaled and rounded up, so
    // {8, 8} at +5% reserves 9 + 9 = 18 B. A 17 B device can never
    // hold it, so the job must be rejected, not left queued forever.
    FootprintEstimate est;
    est.persistent = 8;
    est.transient = 8;
    AdmissionController tight(17, 1.05);
    EXPECT_EQ(tight.reservationFor(est), 18);
    EXPECT_FALSE(tight.canAdmit(est));
    EXPECT_FALSE(tight.feasible(est));
    AdmissionController roomy(18, 1.05);
    EXPECT_TRUE(roomy.canAdmit(est));
    EXPECT_TRUE(roomy.feasible(est));
}

TEST(Admission, FootprintEstimateShape)
{
    auto vgg = net::buildVgg16(64);
    core::PlannerContext ctx =
        core::PlannerContext::exclusive(gpu::titanXMaxwell());

    FootprintEstimate base = estimateFootprint(
        *vgg,
        core::BaselinePlanner(core::AlgoPreference::MemoryOptimal)
            .plan(*vgg, ctx));
    FootprintEstimate all = estimateFootprint(
        *vgg,
        core::OffloadAllPlanner(core::AlgoPreference::MemoryOptimal)
            .plan(*vgg, ctx));
    FootprintEstimate conv = estimateFootprint(
        *vgg,
        core::OffloadConvPlanner(core::AlgoPreference::MemoryOptimal)
            .plan(*vgg, ctx));

    // Baseline holds everything persistently; vDNN virtualizes the
    // feature maps away into a much smaller persistent footprint.
    EXPECT_EQ(base.transient, 0);
    EXPECT_GT(base.persistent, 4 * all.persistent);
    EXPECT_GT(all.transient, 0);
    EXPECT_LT(all.total(), base.total());
    // vDNN_conv keeps the non-CONV-consumed buffers resident.
    EXPECT_GE(conv.transient, all.transient);
}

TEST(Admission, DynamicBudgetedAtTheMemoryFloor)
{
    // Dynamic jobs are budgeted at the vDNN_dyn memory floor
    // (vDNN_all with memory-optimal algorithms), without trials.
    auto vgg = net::buildVgg16(64);
    core::PlannerContext ctx =
        core::PlannerContext::exclusive(gpu::titanXMaxwell());

    core::OffloadAllPlanner all_m(core::AlgoPreference::MemoryOptimal);
    FootprintEstimate floor =
        estimateFootprint(*vgg, all_m.admissionPlan(*vgg, ctx));
    core::DynamicPlanner dyn;
    FootprintEstimate budget =
        estimateFootprint(*vgg, dyn.admissionPlan(*vgg, ctx));
    EXPECT_EQ(budget.persistent, floor.persistent);
    EXPECT_EQ(budget.transient, floor.transient);
}

// --- scheduler ---------------------------------------------------------------

namespace
{

std::shared_ptr<const net::Network>
tinyNet()
{
    return net::buildTinyCnn(16);
}

JobSpec
makeJob(const std::shared_ptr<const net::Network> &network,
        std::shared_ptr<core::Planner> planner, TimeNs arrival,
        int iterations)
{
    JobSpec spec;
    spec.network = network;
    spec.planner = std::move(planner);
    spec.arrival = arrival;
    spec.iterations = iterations;
    return spec;
}

std::shared_ptr<core::Planner>
vdnnAll()
{
    return std::make_shared<core::OffloadAllPlanner>(
        core::AlgoPreference::MemoryOptimal);
}

std::shared_ptr<core::Planner>
baseline()
{
    return std::make_shared<core::BaselinePlanner>(
        core::AlgoPreference::MemoryOptimal);
}

} // namespace

TEST(Scheduler, SingleJobRunsToCompletion)
{
    SchedulerConfig cfg;
    Scheduler sched(cfg);
    auto network = tinyNet();
    sched.submit(makeJob(network, vdnnAll(), 10_ms, 3));
    ServeReport rep = sched.run();
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].state, JobState::Finished);
    EXPECT_EQ(rep.jobs[0].iterations, 3);
    EXPECT_EQ(rep.jobs[0].queueingDelay, 0);
    EXPECT_GT(rep.makespan, 0);
    EXPECT_EQ(rep.finishedCount(), 1);
    // The shared pool drains completely after teardown.
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
    EXPECT_EQ(sched.admissionStateOn(0).admittedCount(), 0);
}

TEST(Scheduler, RoundRobinIsFairAcrossEqualJobs)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    Scheduler sched(cfg);
    auto network = tinyNet();
    const int kIters = 4;
    for (int i = 0; i < 3; ++i) {
        sched.submit(makeJob(network, vdnnAll(), 0, kIters));
    }
    ServeReport rep = sched.run();
    ASSERT_EQ(rep.finishedCount(), 3);
    EXPECT_EQ(rep.peakJobsInFlight, 3);

    // Equal budgets served round-robin finish within one iteration of
    // each other: nobody is starved.
    TimeNs first = rep.jobs[0].finishTime;
    TimeNs last = rep.jobs[2].finishTime;
    TimeNs iter = rep.jobs[0].serviceTime / kIters;
    for (const JobOutcome &j : rep.jobs) {
        first = std::min(first, j.finishTime);
        last = std::max(last, j.finishTime);
        EXPECT_EQ(j.iterations, kIters);
        EXPECT_LE(j.queueingDelay, iter);
    }
    EXPECT_LE(last - first, 2 * iter + 2 * kNsPerMs);
}

TEST(Scheduler, FifoExclusiveSerializesJobs)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::FifoExclusive;
    Scheduler sched(cfg);
    auto network = tinyNet();
    sched.submit(makeJob(network, vdnnAll(), 0, 4));
    sched.submit(makeJob(network, vdnnAll(), 0, 4));
    ServeReport rep = sched.run();
    EXPECT_EQ(rep.finishedCount(), 2);
    EXPECT_EQ(rep.peakJobsInFlight, 1);
    // The second job waits for the whole first job.
    EXPECT_GE(rep.jobs[1].queueingDelay, rep.jobs[0].serviceTime);
}

TEST(Scheduler, InfeasibleJobIsRejected)
{
    SchedulerConfig cfg; // 12 GB Titan X
    Scheduler sched(cfg);
    // VGG-16 (256) under Baseline needs ~28 GB network-wide: can
    // never fit, must be rejected, and must not wedge the queue.
    std::shared_ptr<const net::Network> vgg256 = net::buildVgg16(256);
    sched.submit(makeJob(vgg256, baseline(), 0, 2));
    sched.submit(makeJob(tinyNet(), vdnnAll(), 0, 2));
    ServeReport rep = sched.run();
    EXPECT_EQ(rep.jobs[0].state, JobState::Rejected);
    EXPECT_EQ(rep.jobs[1].state, JobState::Finished);
    EXPECT_EQ(rep.rejectedCount(), 1);
    EXPECT_EQ(rep.finishedCount(), 1);
}

TEST(Scheduler, BaselineAdmitsSecondTenantOnlyAfterTeardown)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    Scheduler sched(cfg);
    // Two Baseline VGG-16 (64) jobs: each holds ~6.4 GiB persistently,
    // so the 12 GiB device fits exactly one at a time.
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);
    sched.submit(makeJob(vgg, baseline(), 0, 2));
    sched.submit(makeJob(vgg, baseline(), 0, 2));
    ServeReport rep = sched.run();
    EXPECT_EQ(rep.finishedCount(), 2);
    EXPECT_EQ(rep.peakJobsInFlight, 1);
    EXPECT_GE(rep.jobs[1].admitTime, rep.jobs[0].finishTime);
}

TEST(Scheduler, VdnnAllPacksMoreVgg16TenantsThanBaseline)
{
    // The headline: on the paper's 12 GB Titan X, vDNN_all admits
    // strictly more concurrent VGG-16 tenants than Baseline.
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);
    auto peakTenants =
        [&](const std::function<std::shared_ptr<core::Planner>()>
                &planner) {
            SchedulerConfig cfg;
            cfg.policy = SchedPolicy::RoundRobin;
            Scheduler sched(cfg);
            for (int i = 0; i < 6; ++i)
                sched.submit(makeJob(vgg, planner(), 0, 2));
            ServeReport rep = sched.run();
            EXPECT_EQ(rep.finishedCount(), 6);
            return rep.peakJobsInFlight;
        };
    int base_peak = peakTenants(baseline);
    int vdnn_peak = peakTenants(vdnnAll);
    EXPECT_EQ(base_peak, 1);
    EXPECT_GT(vdnn_peak, base_peak);
    EXPECT_GE(vdnn_peak, 2 * base_peak);
}

TEST(Scheduler, PlannerJobSpecDrivesTheTenant)
{
    // A job submitted with an explicit Planner (no enum fields) runs
    // under that planner and reports its name.
    SchedulerConfig cfg;
    Scheduler sched(cfg);
    JobSpec spec;
    spec.network = tinyNet();
    spec.planner = std::make_shared<core::CompressedOffloadPlanner>();
    spec.iterations = 2;
    sched.submit(std::move(spec));
    ServeReport rep = sched.run();
    ASSERT_EQ(rep.finishedCount(), 1);
    EXPECT_EQ(rep.jobs[0].configName, "vDNN_all+cDMA (m)");
    EXPECT_GT(rep.jobs[0].offloadedBytes, 0);
}

TEST(Scheduler, ShortestRemainingFavorsShortJobs)
{
    auto meanJct = [](SchedPolicy policy) {
        SchedulerConfig cfg;
        cfg.policy = policy;
        Scheduler sched(cfg);
        auto network = tinyNet();
        sched.submit(makeJob(network, vdnnAll(), 0, 16));
        for (int i = 0; i < 3; ++i) {
            sched.submit(makeJob(network, vdnnAll(), 0, 2));
        }
        ServeReport rep = sched.run();
        EXPECT_EQ(rep.finishedCount(), 4);
        return rep.meanJct();
    };
    // SRPT strictly beats plain round-robin on a short-vs-long mix.
    EXPECT_LT(meanJct(SchedPolicy::ShortestRemaining),
              meanJct(SchedPolicy::RoundRobin));
}

// --- packed overlap ----------------------------------------------------------

namespace
{

/** Mixed stall-heavy workload used by the overlap tests. */
std::vector<JobSpec>
overlapWorkload()
{
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);
    std::shared_ptr<const net::Network> alex = net::buildAlexNet(128);
    std::vector<JobSpec> specs;
    for (int i = 0; i < 4; ++i) {
        JobSpec spec;
        spec.network = i % 2 == 0 ? vgg : alex;
        spec.planner = std::make_shared<core::OffloadAllPlanner>(
            core::AlgoPreference::MemoryOptimal);
        spec.arrival = TimeNs(i) * 50 * kNsPerMs;
        spec.iterations = 2 + i % 2;
        specs.push_back(std::move(spec));
    }
    return specs;
}

ServeReport
runOverlapMix(SchedPolicy policy)
{
    SchedulerConfig cfg;
    cfg.policy = policy;
    Scheduler sched(cfg);
    for (JobSpec &spec : overlapWorkload())
        sched.submit(std::move(spec));
    return sched.run();
}

} // namespace

TEST(PackedOverlap, FinishesEveryJobAndDrainsThePool)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PackedOverlap;
    Scheduler sched(cfg);
    auto network = tinyNet();
    for (int i = 0; i < 3; ++i) {
        sched.submit(makeJob(network, vdnnAll(), 0, 3));
    }
    ServeReport rep = sched.run();
    EXPECT_EQ(rep.finishedCount(), 3);
    for (const JobOutcome &j : rep.jobs)
        EXPECT_EQ(j.iterations, 3);
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
    EXPECT_EQ(sched.admissionStateOn(0).admittedCount(), 0);
}

TEST(PackedOverlap, BeatsRoundRobinOnJctAndComputeUtilization)
{
    ServeReport rr = runOverlapMix(SchedPolicy::RoundRobin);
    ServeReport packed = runOverlapMix(SchedPolicy::PackedOverlap);
    ASSERT_EQ(rr.finishedCount(), 4);
    ASSERT_EQ(packed.finishedCount(), 4);
    // Dispatching tenant B's compute under tenant A's DMAs must
    // strictly raise utilization and lower mean JCT.
    EXPECT_LT(packed.meanJct(), rr.meanJct());
    EXPECT_GT(packed.computeUtilization(), rr.computeUtilization());
    EXPECT_LE(packed.makespan, rr.makespan);
}

TEST(PackedOverlap, AdmissionReservesTransientsSummed)
{
    AdmissionController ac(10_GiB, /*safety=*/1.0,
                           /*overlap_transients=*/true);
    FootprintEstimate est;
    est.persistent = 1_GiB;
    est.transient = 3_GiB;
    // Shared-arena accounting would admit three (3x1 + 3 = 6 GiB);
    // overlapping iterations need 2x(1+3) = 8, and a third tenant's
    // 1+3 would burst the 10 GiB device.
    ac.admit(0, est);
    EXPECT_TRUE(ac.canAdmit(est));
    ac.admit(1, est);
    EXPECT_EQ(ac.reservedBytes(), 8_GiB);
    EXPECT_FALSE(ac.canAdmit(est));
}

// --- service-time accounting -------------------------------------------------

TEST(Scheduler, SparseArrivalIdleTimeIsNotBilledAsService)
{
    // Job A finishes long before job B arrives; the scheduler advances
    // the device clock across the gap. Identical jobs must report
    // identical service time — the advance belongs to neither, even
    // though A sat in the system while the clock moved.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    Scheduler sched(cfg);
    auto network = tinyNet();
    sched.submit(makeJob(network, vdnnAll(), 0, 2));
    sched.submit(makeJob(network, vdnnAll(), 60'000 * kNsPerMs, 2));
    ServeReport rep = sched.run();
    ASSERT_EQ(rep.finishedCount(), 2);
    EXPECT_EQ(rep.jobs[0].serviceTime, rep.jobs[1].serviceTime);
    // Service time is the iterations' own window, a tiny fraction of
    // the 60 s arrival gap.
    EXPECT_LT(rep.jobs[0].serviceTime, 1'000 * kNsPerMs);
    EXPECT_GE(rep.jobs[1].admitTime, 60'000 * kNsPerMs);
}

// --- in-flight OOM requeue path ----------------------------------------------

namespace
{

/**
 * A planner whose admission estimate is honest vDNN_all but whose
 * execution plan keeps every feature map resident: admission happily
 * admits it, and the iteration then OOMs in flight — the path that
 * exercises evict -> reservation inflation -> readmission.
 */
class UnderestimatingPlanner : public core::Planner
{
  public:
    std::string name() const override { return "underestimator"; }

    core::MemoryPlan plan(const net::Network &net,
                          const core::PlannerContext &ctx) override
    {
        core::MemoryPlan p =
            core::OffloadAllPlanner(core::AlgoPreference::MemoryOptimal)
                .plan(net, ctx);
        p.clearOffloads(); // keep everything resident at run time
        return p;
    }

    core::MemoryPlan admissionPlan(const net::Network &net,
                                   const core::PlannerContext &ctx) override
    {
        return core::OffloadAllPlanner(
                   core::AlgoPreference::MemoryOptimal)
            .plan(net, ctx);
    }
};

} // namespace

TEST(Scheduler, InFlightOomRequeuesBoundedThenFails)
{
    // A lone tenant whose true working set can never fit the device:
    // every admission ends in an in-flight OOM abort. The scheduler
    // must evict it, inflate its reservation, requeue it at the head,
    // and give up with Failed after its three requeues (the fourth
    // OOM) — not wedge the queue or loop forever. GoogLeNet (512)'s
    // vDNN_all reservation stays feasible through three 1.25x
    // backoff steps, so the bound is what ends it.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    Scheduler sched(cfg);
    JobSpec spec;
    spec.network = net::buildGoogLeNet(512);
    spec.planner = std::make_shared<UnderestimatingPlanner>();
    spec.iterations = 1;
    sched.submit(std::move(spec));
    ServeReport rep = sched.run();
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].state, JobState::Failed);
    EXPECT_EQ(rep.jobs[0].oomRequeues, 4);
    EXPECT_NE(rep.jobs[0].failReason.find("repeated iteration OOM"),
              std::string::npos);
    EXPECT_EQ(rep.failedCount(), 1);
    check::CheckResult audit = check::auditLedger(rep);
    EXPECT_TRUE(audit.ok()) << audit.report();
    // The abort path released everything it took.
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
    EXPECT_EQ(sched.admissionStateOn(0).admittedCount(), 0);
}

namespace
{

/**
 * Runs like UnderestimatingPlanner the first time (the iteration OOMs
 * in flight, so the job is requeued), then plans a network-wide static
 * allocation too large for the device, so every readmission fails at
 * setup while the honest vDNN_all reservation still fits the ledger.
 */
class SetupOomAfterRequeuePlanner : public UnderestimatingPlanner
{
  public:
    std::string name() const override { return "setup-oom"; }

    core::MemoryPlan plan(const net::Network &net,
                          const core::PlannerContext &ctx) override
    {
        if (plans++ == 0)
            return UnderestimatingPlanner::plan(net, ctx);
        return core::BaselinePlanner(core::AlgoPreference::MemoryOptimal)
            .plan(net, ctx);
    }

  private:
    int plans = 0;
};

} // namespace

TEST(Scheduler, SetupOomGiveUpAfterRequeueAuditsClean)
{
    // Requeued after an in-flight OOM, then given up on by admission
    // after repeated setup OOM: the job must leave a "fail" event, or
    // the auditor finds it lost in the queue. GoogLeNet (512) stays
    // feasible through every backoff step, as above.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    Scheduler sched(cfg);
    JobSpec spec;
    spec.network = net::buildGoogLeNet(512);
    spec.planner = std::make_shared<SetupOomAfterRequeuePlanner>();
    spec.iterations = 1;
    sched.submit(std::move(spec));
    ServeReport rep = sched.run();

    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].state, JobState::Failed);
    EXPECT_EQ(rep.jobs[0].oomRequeues, 4);
    EXPECT_NE(rep.jobs[0].failReason.find("repeated setup OOM"),
              std::string::npos);
    ASSERT_FALSE(rep.lifecycle.empty());
    EXPECT_STREQ(rep.lifecycle.back().what, "fail");
    check::CheckResult audit = check::auditLedger(rep);
    EXPECT_TRUE(audit.ok()) << audit.report();
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
}

TEST(Scheduler, OomBackoffPastEveryDeviceFailsWithEventAndAuditsClean)
{
    // VGG-16 (256)'s vDNN_all reservation fits the device once but not
    // after one 1.25x backoff step. The requeued job must not be
    // rejected from the queue without a lifecycle event (its last
    // event would be "requeue", and the auditor would find it lost):
    // the backoff gives up on it with Failed and a "fail" event.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    Scheduler sched(cfg);
    JobSpec spec;
    spec.network = net::buildVgg16(256);
    spec.planner = std::make_shared<UnderestimatingPlanner>();
    spec.iterations = 1;
    sched.submit(std::move(spec));
    ServeReport rep = sched.run();

    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].state, JobState::Failed);
    EXPECT_EQ(rep.jobs[0].oomRequeues, 1);
    EXPECT_NE(rep.jobs[0].failReason.find("fits no device"),
              std::string::npos)
        << rep.jobs[0].failReason;
    ASSERT_FALSE(rep.lifecycle.empty());
    EXPECT_STREQ(rep.lifecycle.back().what, "fail");
    check::CheckResult audit = check::auditLedger(rep);
    EXPECT_TRUE(audit.ok()) << audit.report();
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
    EXPECT_EQ(sched.admissionStateOn(0).admittedCount(), 0);
}

TEST(Scheduler, InFlightOomRequeueRecoversWhenCoTenantLeaves)
{
    // The same underestimating tenant OOMs only because a Baseline hog
    // crowds the pool; after eviction + backoff inflation its grown
    // reservation no longer fits beside the hog, so it waits, readmits
    // once the hog finishes, and completes — with the requeue counted.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    Scheduler sched(cfg);
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);

    JobSpec hog;
    hog.network = vgg;
    hog.planner = std::make_shared<core::BaselinePlanner>(
        core::AlgoPreference::PerformanceOptimal);
    hog.iterations = 6;
    JobId hog_id = sched.submit(std::move(hog));

    JobSpec liar;
    liar.network = vgg;
    liar.planner = std::make_shared<UnderestimatingPlanner>();
    liar.arrival = 1 * kNsPerMs;
    liar.iterations = 1;
    JobId liar_id = sched.submit(std::move(liar));

    ServeReport rep = sched.run();
    const JobOutcome &hog_out = rep.jobs[std::size_t(hog_id)];
    const JobOutcome &liar_out = rep.jobs[std::size_t(liar_id)];
    EXPECT_EQ(rep.finishedCount(), 2);
    EXPECT_EQ(hog_out.state, JobState::Finished);
    ASSERT_EQ(liar_out.state, JobState::Finished);
    EXPECT_GE(liar_out.oomRequeues, 1);
    // Recovery happened after the hog freed the pool.
    EXPECT_GE(liar_out.finishTime, hog_out.finishTime);
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
}

// --- preemptive priority: the tenant lifecycle state machine -----------------

TEST(Admission, EvictReadmitLedgerTracksTheStateMachine)
{
    AdmissionController ac(10_GiB, /*safety=*/1.0);
    FootprintEstimate est;
    est.persistent = 4_GiB;
    est.transient = 2_GiB;
    ac.admit(0, est);
    ac.admit(1, est);
    EXPECT_EQ(ac.reservedBytes(), 10_GiB);
    EXPECT_FALSE(ac.canAdmit(est));

    // Evicting a tenant frees its device bytes but keeps it on the
    // books: a third tenant fits, and the evicted one can come back
    // only once the space frees again.
    ac.evict(0);
    EXPECT_EQ(ac.admittedCount(), 1);
    EXPECT_EQ(ac.evictedCount(), 1);
    EXPECT_EQ(ac.reservedBytes(), 6_GiB);
    EXPECT_TRUE(ac.canAdmit(est));
    ac.admit(2, est);
    EXPECT_FALSE(ac.canReadmit(0));
    ac.release(2);
    EXPECT_TRUE(ac.canReadmit(0));
    ac.readmit(0);
    EXPECT_EQ(ac.reservedBytes(), 10_GiB);
    EXPECT_EQ(ac.evictedCount(), 0);

    // release() balances the books from either ledger.
    ac.evict(1);
    ac.release(1);
    ac.release(0);
    EXPECT_EQ(ac.reservedBytes(), 0);
    EXPECT_EQ(ac.admittedCount(), 0);
    EXPECT_EQ(ac.evictedCount(), 0);
}

TEST(PreemptivePriority, HighPriorityArrivalPreemptsAndVictimResumes)
{
    // Two Baseline VGG-16 (64) tenants can never share the 12 GiB
    // device. The low-priority incumbent must be suspended and
    // evicted to host when the high-priority job arrives, then
    // resume and finish after it leaves.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PreemptivePriority;
    Scheduler sched(cfg);
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);

    JobSpec low;
    low.network = vgg;
    low.planner = baseline();
    low.priority = 0;
    low.iterations = 4;
    JobId low_id = sched.submit(std::move(low));

    JobSpec high;
    high.network = vgg;
    high.planner = baseline();
    high.priority = 10;
    high.arrival = 1 * kNsPerMs;
    high.iterations = 2;
    JobId high_id = sched.submit(std::move(high));

    ServeReport rep = sched.run();
    const JobOutcome &low_out = rep.jobs[std::size_t(low_id)];
    const JobOutcome &high_out = rep.jobs[std::size_t(high_id)];
    EXPECT_EQ(rep.finishedCount(), 2);
    EXPECT_EQ(low_out.preemptions, 1);
    EXPECT_EQ(high_out.preemptions, 0);
    // The high-priority job ran to completion while the victim sat
    // evicted, then the victim resumed.
    EXPECT_LT(high_out.finishTime, low_out.finishTime);
    EXPECT_GT(low_out.iterations, 0);

    // The admission ledger balances to zero after the drain.
    EXPECT_EQ(rep.reservedBytesAtEnd, 0);
    EXPECT_EQ(rep.evictedLedgerAtEnd, 0);
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
    EXPECT_EQ(sched.admissionStateOn(0).admittedCount(), 0);

    // The audit log shows the suspend -> evict -> resume round trip,
    // with reserved bytes dropping at eviction and restored on resume.
    bool saw_suspend = false, saw_evict = false, saw_resume = false;
    for (const LifecycleEvent &ev : rep.lifecycle) {
        if (ev.job != low_id)
            continue;
        if (std::string(ev.what) == "suspend")
            saw_suspend = true;
        if (std::string(ev.what) == "evict") {
            saw_evict = true;
            EXPECT_LT(ev.reservedAfter, ev.reservedBefore);
        }
        if (std::string(ev.what) == "resume" && saw_evict) {
            saw_resume = true;
            EXPECT_GT(ev.reservedAfter, ev.reservedBefore);
        }
    }
    EXPECT_TRUE(saw_suspend);
    EXPECT_TRUE(saw_evict);
    EXPECT_TRUE(saw_resume);
}

TEST(PreemptivePriority, HighPriorityJctBeatsRoundRobinUnderLoad)
{
    auto runMix = [](SchedPolicy policy) {
        SchedulerConfig cfg;
        cfg.policy = policy;
        Scheduler sched(cfg);
        auto network = tinyNet();
        for (int i = 0; i < 4; ++i) {
            JobSpec spec;
            spec.network = network;
            spec.planner = vdnnAll();
            spec.priority = 0;
            spec.iterations = 8;
            sched.submit(std::move(spec));
        }
        JobSpec high;
        high.network = network;
        high.planner = vdnnAll();
        high.priority = 10;
        high.arrival = 1 * kNsPerMs;
        high.iterations = 2;
        JobId high_id = sched.submit(std::move(high));
        ServeReport rep = sched.run();
        EXPECT_EQ(rep.finishedCount(), 5);
        return rep.jobs[std::size_t(high_id)].completionTime;
    };
    TimeNs rr = runMix(SchedPolicy::RoundRobin);
    TimeNs pp = runMix(SchedPolicy::PreemptivePriority);
    // Strict priority dispatch gets the important job out first.
    EXPECT_LT(pp, rr);
}

TEST(PreemptivePriority, GrowBackReplanAfterCoTenantExit)
{
    // A vDNN_dyn tenant admitted beside a Baseline hog plans against
    // the squeezed share; when the hog exits, the re-plan sweep lets
    // it swap to a larger plan at its next iteration boundary.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PreemptivePriority;
    Scheduler sched(cfg);
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);

    JobSpec hog;
    hog.network = vgg;
    hog.planner = baseline();
    hog.iterations = 2;
    sched.submit(std::move(hog));

    JobSpec dyn;
    dyn.network = vgg;
    dyn.planner = std::make_shared<core::DynamicPlanner>();
    dyn.arrival = 1 * kNsPerMs;
    dyn.iterations = 8;
    JobId dyn_id = sched.submit(std::move(dyn));

    ServeReport rep = sched.run();
    EXPECT_EQ(rep.finishedCount(), 2);
    const JobOutcome &dyn_out = rep.jobs[std::size_t(dyn_id)];
    EXPECT_GE(dyn_out.replans, 1);
    bool saw_replan = false;
    for (const LifecycleEvent &ev : rep.lifecycle)
        saw_replan |= std::string(ev.what) == "replan";
    EXPECT_TRUE(saw_replan);
    EXPECT_EQ(rep.reservedBytesAtEnd, 0);
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
}

// --- priority aging ----------------------------------------------------------

namespace
{

/** Starved low-priority job vs a hostile high-priority stream. */
ServeReport
runHostileStream(double aging_rate, JobId *starved_id,
                 std::vector<JobId> *hostile_ids)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PreemptivePriority;
    Scheduler sched(cfg);
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);

    // Baseline VGG-16 (64): exactly one fits the device, so whoever
    // holds it starves everyone else.
    JobSpec hostile;
    hostile.network = vgg;
    hostile.planner = baseline();
    hostile.priority = 10;
    hostile.iterations = 2;
    hostile_ids->clear();
    for (int i = 0; i < 3; ++i) {
        JobSpec h = hostile;
        h.name = "hostile-" + std::to_string(i);
        h.arrival = TimeNs(i) * 1000 * kNsPerMs;
        hostile_ids->push_back(sched.submit(std::move(h)));
    }

    JobSpec starved;
    starved.network = vgg;
    starved.planner = baseline();
    starved.priority = 0;
    starved.agingRatePerSec = aging_rate;
    starved.arrival = 50 * kNsPerMs; // behind hostile-0
    starved.iterations = 1;
    *starved_id = sched.submit(std::move(starved));

    return sched.run();
}

} // namespace

TEST(PriorityAging, QueueWaitLiftsAStarvedJobPastTheHostileStream)
{
    JobId starved;
    std::vector<JobId> hostiles;

    // Without aging the hostile stream monopolizes the device: the
    // low-priority job finishes strictly last.
    ServeReport rigid = runHostileStream(0.0, &starved, &hostiles);
    EXPECT_EQ(rigid.finishedCount(), 4);
    for (JobId h : hostiles) {
        EXPECT_GT(rigid.jobs[std::size_t(starved)].finishTime,
                  rigid.jobs[std::size_t(h)].finishTime);
    }

    // With aging, a few seconds of queue wait lift the starved job's
    // effective priority past 10: it is admitted (preempting the
    // incumbent if needed) and finishes before the stream drains.
    ServeReport aged = runHostileStream(4.0, &starved, &hostiles);
    EXPECT_EQ(aged.finishedCount(), 4);
    TimeNs last_hostile = 0;
    int hostile_preemptions = 0;
    for (JobId h : hostiles) {
        last_hostile = std::max(
            last_hostile, aged.jobs[std::size_t(h)].finishTime);
        hostile_preemptions += aged.jobs[std::size_t(h)].preemptions;
    }
    EXPECT_LT(aged.jobs[std::size_t(starved)].finishTime,
              last_hostile);
    // It got there by out-prioritizing the stream, not by luck: the
    // starved job was dispatched while hostile jobs still had work.
    EXPECT_GT(hostile_preemptions, 0);
    // Ledgers still balance after the aged preemptions.
    EXPECT_EQ(aged.reservedBytesAtEnd, 0);
    EXPECT_EQ(aged.evictedLedgerAtEnd, 0);
}

// --- trace replay ------------------------------------------------------------

TEST(TraceReplay, ParsesSortsAndSkipsCommentsAndHeader)
{
    TraceArrivals t = TraceArrivals::parseString(
        "# a comment\n"
        "submit_s,net,priority,planner,iterations\n"
        "0.50,alexnet:128,0,vdnn_all,3\n"
        "\n"
        "0.10,vgg16:64,5,baseline\n"
        "0.25,overfeat:128,0,vdnn_dyn,2\n");
    ASSERT_TRUE(t.ok()) << t.error();
    ASSERT_EQ(t.size(), 3u);
    // Sorted by submit time.
    EXPECT_EQ(t.entries()[0].net, "vgg16:64");
    EXPECT_EQ(t.entries()[0].submit, secondsToNs(0.1));
    EXPECT_EQ(t.entries()[0].priority, 5);
    EXPECT_EQ(t.entries()[0].planner, "baseline");
    EXPECT_EQ(t.entries()[0].iterations, 1); // defaulted
    EXPECT_EQ(t.entries()[1].net, "overfeat:128");
    EXPECT_EQ(t.entries()[1].iterations, 2);
    EXPECT_EQ(t.entries()[2].net, "alexnet:128");
    EXPECT_EQ(t.entries()[2].iterations, 3);
}

TEST(TraceReplay, MalformedLinesPoisonTheTrace)
{
    TraceArrivals bad_time = TraceArrivals::parseString(
        "0.1,vgg16:64,0,vdnn_all\n"
        "oops,vgg16:64,0,vdnn_all\n");
    EXPECT_FALSE(bad_time.ok());

    TraceArrivals bad_fields =
        TraceArrivals::parseString("0.1,vgg16:64,0\n");
    EXPECT_FALSE(bad_fields.ok());

    TraceArrivals bad_iters =
        TraceArrivals::parseString("0.1,vgg16:64,0,vdnn_all,0\n");
    EXPECT_FALSE(bad_iters.ok());

    // Non-finite / overflowing numerics are corrupt lines, not data.
    EXPECT_FALSE(TraceArrivals::parseString(
                     "inf,vgg16:64,0,vdnn_all\n")
                     .ok());
    EXPECT_FALSE(TraceArrivals::parseString(
                     "1e300,vgg16:64,0,vdnn_all\n")
                     .ok());
    EXPECT_FALSE(TraceArrivals::parseString(
                     "0.1,vgg16:64,99999999999,vdnn_all\n")
                     .ok());

    // A malformed first data line must poison the trace, not vanish
    // as a pretend header (headers start with a letter).
    TraceArrivals typo = TraceArrivals::parseString(
        "0.5s,vgg16:64,0,vdnn_all\n"
        "1.0,vgg16:64,0,vdnn_all\n");
    EXPECT_FALSE(typo.ok());
    TraceArrivals empty_field = TraceArrivals::parseString(
        ",vgg16:64,0,vdnn_all\n");
    EXPECT_FALSE(empty_field.ok());

    TraceArrivals missing = TraceArrivals::load("/nonexistent.csv");
    EXPECT_FALSE(missing.ok());
}

TEST(TraceReplay, ShippedSampleTraceLoads)
{
    TraceArrivals t =
        TraceArrivals::load(VDNN_SOURCE_DIR "/bench/traces/"
                            "skewed_arrivals.csv");
    ASSERT_TRUE(t.ok()) << t.error();
    EXPECT_GE(t.size(), 10u);
    for (const TraceEntry &e : t.entries())
        EXPECT_GE(e.iterations, 1);
}

// Golden byte-identity pin for a multi-tenant serve run: three equal
// tenants under round-robin with staggered arrivals.  The exact
// makespan, per-job finish times, and engine busy totals are
// deterministic; simulator-speed work (pooled events, flat dispatch,
// indexed accounting) must not move any of them.
TEST(Scheduler, GoldenMultiTenantExactValues)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    Scheduler sched(cfg);
    auto network = tinyNet();
    sched.submit(makeJob(network, vdnnAll(), 0, 3));
    sched.submit(makeJob(network, vdnnAll(), 1_ms, 3));
    sched.submit(makeJob(network, vdnnAll(), 2_ms, 3));
    ServeReport rep = sched.run();
    ASSERT_EQ(rep.finishedCount(), 3);
    EXPECT_EQ(rep.makespan, 4349448);
    EXPECT_EQ(rep.computeBusyTime, 1747998);
    EXPECT_EQ(rep.copyBusyTime, 3761280);
    EXPECT_EQ(rep.poolPeakBytes, 5025792);
    for (const JobOutcome &j : rep.jobs) {
        EXPECT_EQ(j.iterations, 3);
    }
    EXPECT_EQ(rep.jobs[0].finishTime, 1449816);
    EXPECT_EQ(rep.jobs[1].finishTime, 3382904);
    EXPECT_EQ(rep.jobs[2].finishTime, 4349448);
}
