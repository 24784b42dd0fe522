/**
 * @file
 * Golden equivalence suite for the event-driven cluster serve loop.
 *
 * PR 9 replaced the polling `runCluster()` (scan every device per
 * turn) with a wake-list loop that drains only devices an executed
 * event actually woke. The refactor must not change a single
 * scheduling decision: these tests pin ServeReports produced by the
 * *polling* loop — makespan, per-job admit/dispatch/finish times,
 * iteration counts, placements and the full lifecycle ledger folded
 * into one hash — on deterministic workloads covering the cluster
 * round-robin burst (with rebalance migration), the sparse FIFO idle
 * path (clock advances to the next arrival), SRPT packing, the
 * single-device preemptive-priority state machine whose idle path
 * shares the nextPendingArrival fast path, and (pinned later, before
 * the scheduler's policy table) Op-granularity priority churn,
 * op-packed overlap on two devices and priority
 * make-room on two devices, and (pinned before the per-device ready
 * list) a dense single-device op-packed burst of 64 tenants.
 *
 * If any of these change, the wake-list loop made a different
 * decision than the polling loop did — a correctness bug, not a perf
 * win. Debug by diffing `memory_timeline lifecycle` / bench_cluster
 * output against a pre-change build.
 *
 * Re-pinned on purpose once: when the scheduler collapsed to one
 * cadence (one admission sweep at every device count, no
 * iteration-boundary special case for a single device), the
 * single-device iteration-granularity workloads — SingleRoundRobin,
 * SingleSrpt and Preemption — started processing arrivals at the
 * next engine turn instead of the in-flight tenant's next iteration
 * boundary. Their admit and first-dispatch times moved, so their
 * foldJobs/foldLifecycle hashes moved; their makespans, finished
 * counts and lifecycle sizes did not, every cluster golden and the
 * FIFO/packed goldens held, and each spurious-wakeup twin still equals
 * its non-spurious value.
 *
 * Re-pinned on purpose a second time: admission stopped revising a
 * reservation after the first iteration, so the lifecycle event each
 * job logged after its profiled first iteration is gone. Every
 * makespan, finished count and foldJobs hash held; each lifecycle size
 * fell by exactly its old number of those events, and each new
 * foldLifecycle equals the old hash recomputed with them skipped.
 * ClusterBurst (and its twin) is the one exception: its
 * when/job/what/device sequence is identical, but from the first
 * "migrate" on the reserved bytes differ, because a migrated tenant
 * now re-reserves its admission footprint instead of its measured one.
 *
 * Re-pinned on purpose when make-room began sizing a victim set on
 * every device and evicting on the cheapest, instead of scanning only
 * the device with the most below-bar reserved bytes: in ClusterPriority
 * (and its twin) curgent-01 and curgent-02 each evict one priority-0
 * OverFeat (128) tenant of equal size, so the two devices tie and the
 * lower id now goes first. curgent-01 evicts cbg-04 on device 0 (it used to
 * evict cbg-14 on device 1) and curgent-02 then evicts cbg-14 on
 * device 1, so the two swap finish times. The lifecycle's timestamps
 * and reserved bytes, the makespan, the finished count and the
 * lifecycle size held; only those two device choices moved.
 */

#include "serve/placement.hh"
#include "serve/scheduler.hh"

#include "check/ledger_auditor.hh"
#include "common/units.hh"
#include "core/dynamic_policy.hh"
#include "net/builders.hh"
#include "obs/metrics.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

using namespace vdnn;
using namespace vdnn::serve;

namespace
{

std::shared_ptr<core::Planner>
vdnnAll()
{
    return std::make_shared<core::OffloadAllPlanner>(
        core::AlgoPreference::MemoryOptimal);
}

std::shared_ptr<const net::Network>
sharedNet(int which, std::int64_t batch)
{
    // Cached per (builder, batch): network construction is expensive
    // and the specs are immutable.
    static std::map<std::pair<int, std::int64_t>,
                    std::shared_ptr<const net::Network>>
        cache;
    auto key = std::make_pair(which, batch);
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    std::shared_ptr<const net::Network> net =
        which == 0 ? net::buildAlexNet(batch) : net::buildOverFeat(batch);
    cache.emplace(key, net);
    return net;
}

/** FNV-1a over the fields a scheduling decision can influence. */
struct Fold
{
    std::uint64_t h = 1469598103934665603ULL;
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    void
    addStr(const char *s)
    {
        for (; *s; ++s) {
            h ^= std::uint64_t(static_cast<unsigned char>(*s));
            h *= 1099511628211ULL;
        }
    }
};

std::uint64_t
foldJobs(const ServeReport &r)
{
    Fold f;
    for (const JobOutcome &j : r.jobs) {
        f.add(std::uint64_t(j.id));
        f.add(std::uint64_t(j.state));
        f.add(std::uint64_t(j.arrival));
        f.add(std::uint64_t(j.admitTime));
        f.add(std::uint64_t(j.firstDispatchTime));
        f.add(std::uint64_t(j.finishTime));
        f.add(std::uint64_t(j.serviceTime));
        f.add(std::uint64_t(j.iterations));
        f.add(std::uint64_t(j.oomRequeues));
        f.add(std::uint64_t(j.preemptions));
        f.add(std::uint64_t(j.migrations));
        f.add(std::uint64_t(j.device));
        for (int d : j.placements)
            f.add(std::uint64_t(d));
    }
    return f.h;
}

std::uint64_t
foldLifecycle(const ServeReport &r)
{
    Fold f;
    for (const LifecycleEvent &ev : r.lifecycle) {
        f.add(std::uint64_t(ev.when));
        f.add(std::uint64_t(ev.job));
        f.addStr(ev.what);
        f.add(std::uint64_t(ev.device));
        f.add(std::uint64_t(ev.reservedBefore));
        f.add(std::uint64_t(ev.reservedAfter));
    }
    return f.h;
}

/** The ledger must balance and the audit trail must replay cleanly
 *  whatever loop produced the report. */
void
expectClean(const ServeReport &r)
{
    EXPECT_EQ(r.reservedBytesAtEnd, 0);
    EXPECT_EQ(r.evictedLedgerAtEnd, 0);
    check::CheckResult audit = check::auditLedger(r);
    EXPECT_TRUE(audit.ok()) << audit.report();
}

/** Lifecycle events of one kind ("evict", "replan", ...). */
int
countEvents(const ServeReport &r, const char *what)
{
    int n = 0;
    for (const LifecycleEvent &ev : r.lifecycle)
        n += std::string(ev.what) == what;
    return n;
}

// --- workloads ---------------------------------------------------------------

/** The simspeed burst: 8 mixed tenants on 2 devices, round-robin
 *  packing, load-balance placement, rebalance migration. */
ServeReport
runClusterBurst(bool forceWakeAll = false)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.devices.assign(2, gpu::titanXMaxwell());
    cfg.placement = std::make_shared<LoadBalancePlacement>();
    cfg.rebalancePeriod = 100 * kNsPerMs;
    cfg.rebalanceThreshold = 2;
    Scheduler sched(cfg);
    for (int i = 0; i < 8; ++i) {
        JobSpec spec;
        spec.name = strFormat("eq-%02d", i);
        spec.network = sharedNet(i % 2, 128);
        spec.planner = vdnnAll();
        spec.arrival = TimeNs(i) * 5 * kNsPerMs;
        spec.iterations = 3;
        sched.submit(std::move(spec));
    }
    sched.setDebugForceWakeAll(forceWakeAll);
    return sched.run();
}

/** Sparse FIFO arrivals on 3 devices: between bursts every device
 *  drains, so the loop takes the idle advance-to-next-arrival path
 *  (the nextPendingArrival fast path) repeatedly. */
ServeReport
runClusterSparse()
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::FifoExclusive;
    cfg.devices.assign(3, gpu::titanXMaxwell());
    Scheduler sched(cfg);
    for (int i = 0; i < 6; ++i) {
        JobSpec spec;
        spec.name = strFormat("sparse-%02d", i);
        spec.network = sharedNet(0, 64);
        spec.planner = vdnnAll();
        spec.arrival = TimeNs(i) * 3 * kNsPerSec;
        spec.iterations = 2;
        sched.submit(std::move(spec));
    }
    return sched.run();
}

/** SRPT packing with mixed iteration budgets on 2 devices. */
ServeReport
runClusterSrpt(bool forceWakeAll = false)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::ShortestRemaining;
    cfg.devices.assign(2, gpu::titanXMaxwell());
    Scheduler sched(cfg);
    for (int i = 0; i < 10; ++i) {
        JobSpec spec;
        spec.name = strFormat("srpt-%02d", i);
        spec.network = sharedNet(i % 2, 64);
        spec.planner = vdnnAll();
        spec.arrival = TimeNs(i) * 2 * kNsPerMs;
        spec.iterations = i % 4 + 1;
        sched.submit(std::move(spec));
    }
    sched.setDebugForceWakeAll(forceWakeAll);
    return sched.run();
}

// --- single-device workloads (legacy-loop goldens) ---------------------------
//
// PR 10 collapses the legacy single-device loops (`runInterleaved`,
// `runPacked`) into the unified event-driven engine. These workloads
// were pinned against the *pre-refactor* build, one per policy, so
// the engine provably reproduces every legacy scheduling decision:
// FIFO's exclusive idle path, round-robin packing, SRPT ordering,
// op-granularity packed overlap, and (below) the preemptive-priority
// state machine.

ServeReport
runSingleDevice(SchedPolicy policy, bool forceWakeAll = false)
{
    SchedulerConfig cfg;
    cfg.policy = policy;
    Scheduler sched(cfg);
    int n = policy == SchedPolicy::FifoExclusive ? 5 : 8;
    for (int i = 0; i < n; ++i) {
        JobSpec spec;
        spec.name = strFormat("sd-%02d", i);
        spec.network = sharedNet(i % 2, 64);
        spec.planner = vdnnAll();
        // FIFO: 2 s gaps drain the device between arrivals (idle
        // advance path); the packing policies arrive in a 2 ms burst.
        spec.arrival = policy == SchedPolicy::FifoExclusive
                           ? TimeNs(i) * 2 * kNsPerSec
                           : TimeNs(i) * 2 * kNsPerMs;
        spec.iterations = i % 3 + 1;
        sched.submit(std::move(spec));
    }
    sched.setDebugForceWakeAll(forceWakeAll);
    return sched.run();
}

/** The preemption workload: a priority-10 urgent arrival preempts
 *  background tenants on one device. */
ServeReport
runPreemption()
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PreemptivePriority;
    Scheduler sched(cfg);
    for (int i = 0; i < 4; ++i) {
        JobSpec spec;
        spec.name = strFormat("bg-%02d", i);
        spec.network = sharedNet(1, 128);
        spec.planner = vdnnAll();
        spec.priority = 0;
        spec.agingRatePerSec = 0.5;
        spec.arrival = TimeNs(i) * kNsPerMs;
        spec.iterations = 3;
        sched.submit(std::move(spec));
    }
    JobSpec urgent;
    urgent.name = "urgent";
    urgent.network = sharedNet(0, 64);
    urgent.planner = std::make_shared<core::BaselinePlanner>(
        core::AlgoPreference::MemoryOptimal);
    urgent.priority = 10;
    urgent.arrival = 50 * kNsPerMs;
    urgent.iterations = 2;
    sched.submit(std::move(urgent));
    return sched.run();
}

// --- preset rows no golden above runs -----------------------------------------
//
// Pinned before the scheduler resolved each SchedPolicy preset to an
// ordering and a packing axis: Op-granularity preemption, op-packed
// overlap on a cluster, and priority make-room on a cluster.

/** A scaled-down priority-churn mix: a resident field of aging
 *  low-priority OverFeat tenants, then a stream of high-priority
 *  AlexNet arrivals that park (Op granularity) and evict them. An
 *  unpadded reservation lets one iteration OOM in flight, so the
 *  requeue backoff runs too. */
ServeReport
runPriorityChurn(bool forceWakeAll = false)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PreemptivePriority;
    cfg.preemptGranularity = PreemptGranularity::Op;
    cfg.admissionSafety = 1.0;
    Scheduler sched(cfg);
    for (int i = 0; i < 12; ++i) {
        JobSpec spec;
        spec.name = strFormat("low-%02d", i);
        spec.network = sharedNet(1, 128);
        // vDNN_dyn re-plans in place, so co-tenant exits grow it back.
        spec.planner = i % 3 == 0 ? std::make_shared<core::DynamicPlanner>()
                                  : vdnnAll();
        spec.priority = 0;
        spec.agingRatePerSec = 2.0;
        spec.arrival = TimeNs(i) * 3 * kNsPerMs;
        spec.iterations = 4;
        sched.submit(std::move(spec));
    }
    for (int i = 0; i < 8; ++i) {
        JobSpec spec;
        spec.name = strFormat("hi-%02d", i);
        spec.network = sharedNet(0, 128);
        spec.planner = vdnnAll();
        spec.priority = 10;
        spec.arrival = 200 * kNsPerMs + TimeNs(i) * 350 * kNsPerMs;
        spec.iterations = 2;
        sched.submit(std::move(spec));
    }
    sched.setDebugForceWakeAll(forceWakeAll);
    return sched.run();
}

/** Op-granularity packing on 2 devices, mixed batch sizes, with the
 *  rebalance sweep armed (no migration happens in this mix). */
ServeReport
runClusterPacked(bool forceWakeAll = false)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PackedOverlap;
    cfg.devices.assign(2, gpu::titanXMaxwell());
    cfg.placement = std::make_shared<LoadBalancePlacement>();
    cfg.rebalancePeriod = 50 * kNsPerMs;
    cfg.rebalanceThreshold = 2;
    Scheduler sched(cfg);
    for (int i = 0; i < 20; ++i) {
        JobSpec spec;
        spec.name = strFormat("pk-%02d", i);
        spec.network = sharedNet(i % 2, i % 3 == 0 ? 128 : 64);
        spec.planner = vdnnAll();
        spec.arrival = TimeNs(i) * 4 * kNsPerMs;
        spec.iterations = i % 3 + 2;
        sched.submit(std::move(spec));
    }
    sched.setDebugForceWakeAll(forceWakeAll);
    return sched.run();
}

/** Priority make-room across 2 devices: background tenants fill both,
 *  then urgent arrivals evict the lowest-priority ones. No aging, so
 *  victims tie within a level and the latest-arrival-first order
 *  decides who goes. */
ServeReport
runClusterPriority(bool forceWakeAll = false)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PreemptivePriority;
    cfg.devices.assign(2, gpu::titanXMaxwell());
    Scheduler sched(cfg);
    for (int i = 0; i < 24; ++i) {
        JobSpec spec;
        spec.name = strFormat("cbg-%02d", i);
        spec.network = sharedNet(1, 128);
        spec.planner = vdnnAll();
        spec.priority = i % 2;
        spec.arrival = TimeNs(i) * kNsPerMs;
        spec.iterations = 3;
        sched.submit(std::move(spec));
    }
    for (int i = 0; i < 3; ++i) {
        JobSpec urgent;
        urgent.name = strFormat("curgent-%02d", i);
        urgent.network = sharedNet(1, 64);
        urgent.planner = std::make_shared<core::BaselinePlanner>(
            core::AlgoPreference::MemoryOptimal);
        urgent.priority = 10;
        urgent.arrival = 50 * kNsPerMs + TimeNs(i) * 400 * kNsPerMs;
        urgent.iterations = 2;
        sched.submit(std::move(urgent));
    }
    sched.setDebugForceWakeAll(forceWakeAll);
    return sched.run();
}

/** The dense-packed shape scaled to a test: 64 tenants of mixed batch
 *  size pour onto one device in a 16 ms burst under op-granularity
 *  packing, so dozens of residents have an iteration in flight at
 *  once and most of them sit blocked on a DMA join at any instant. An
 *  unpadded reservation (admissionSafety 1.0) lets some setups and
 *  one iteration hit OOM, so both backoff paths run too: the setup-OOM
 *  retry, and the in-flight OOM requeue mid-sweep. */
ServeReport
runDensePacked(bool forceWakeAll = false)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PackedOverlap;
    cfg.admissionSafety = 1.0;
    Scheduler sched(cfg);
    for (int i = 0; i < 64; ++i) {
        JobSpec spec;
        spec.name = strFormat("dense-%02d", i);
        spec.network = sharedNet(i % 2, i % 3 == 0 ? 128 : 64);
        spec.planner = vdnnAll();
        spec.arrival = TimeNs(i) * kNsPerMs / 4;
        spec.iterations = i % 3 + 1;
        sched.submit(std::move(spec));
    }
    sched.setDebugForceWakeAll(forceWakeAll);
    return sched.run();
}

} // namespace

// Golden values produced by the polling-loop build at PR 9's base
// commit. The wake-list loop must reproduce every one of them.

TEST(ServeEquivalence, ClusterBurstGolden)
{
    ServeReport r = runClusterBurst();
    EXPECT_EQ(r.finishedCount(), 8);
    EXPECT_EQ(r.makespan, 7799969597);
    EXPECT_EQ(foldJobs(r), 4623866629423474671ULL);
    EXPECT_EQ(foldLifecycle(r), 7420157868171616484ULL);
    EXPECT_EQ(r.lifecycle.size(), 20u);
    expectClean(r);
}

TEST(ServeEquivalence, ClusterSparseGolden)
{
    ServeReport r = runClusterSparse();
    EXPECT_EQ(r.finishedCount(), 6);
    EXPECT_EQ(r.makespan, 15304944816);
    EXPECT_EQ(foldJobs(r), 11180232576600094268ULL);
    EXPECT_EQ(foldLifecycle(r), 4064006373277777539ULL);
    EXPECT_EQ(r.lifecycle.size(), 12u);
    expectClean(r);
}

TEST(ServeEquivalence, ClusterSrptGolden)
{
    ServeReport r = runClusterSrpt();
    EXPECT_EQ(r.finishedCount(), 10);
    EXPECT_EQ(r.makespan, 7909967178);
    EXPECT_EQ(foldJobs(r), 17133718095427305840ULL);
    EXPECT_EQ(foldLifecycle(r), 14279867683755057749ULL);
    EXPECT_EQ(r.lifecycle.size(), 20u);
    expectClean(r);
}

// Golden values produced by the legacy single-device loops
// (`runInterleaved` / `runPacked`) before the unified engine replaced
// them. The engine must reproduce every one of them, except the
// round-robin, SRPT and preemption hashes re-pinned for the
// one-cadence engine (see the file comment).

TEST(ServeEquivalence, SingleFifoGolden)
{
    ServeReport r = runSingleDevice(SchedPolicy::FifoExclusive);
    EXPECT_EQ(r.finishedCount(), 5);
    EXPECT_EQ(r.makespan, 8304944816);
    EXPECT_EQ(foldJobs(r), 7770679107251919159ULL);
    EXPECT_EQ(foldLifecycle(r), 15419150277073167316ULL);
    expectClean(r);
}

TEST(ServeEquivalence, SingleRoundRobinGolden)
{
    ServeReport r = runSingleDevice(SchedPolicy::RoundRobin);
    EXPECT_EQ(r.finishedCount(), 8);
    EXPECT_EQ(r.makespan, 4803144288);
    EXPECT_EQ(foldJobs(r), 12137626524374515989ULL);
    EXPECT_EQ(foldLifecycle(r), 8077645040235954147ULL);
    expectClean(r);
}

TEST(ServeEquivalence, SingleSrptGolden)
{
    ServeReport r = runSingleDevice(SchedPolicy::ShortestRemaining);
    EXPECT_EQ(r.finishedCount(), 8);
    EXPECT_EQ(r.makespan, 4803144288);
    EXPECT_EQ(foldJobs(r), 6083441925284450525ULL);
    EXPECT_EQ(foldLifecycle(r), 1028321761201343118ULL);
    expectClean(r);
}

TEST(ServeEquivalence, SinglePackedGolden)
{
    ServeReport r = runSingleDevice(SchedPolicy::PackedOverlap);
    EXPECT_EQ(r.finishedCount(), 8);
    EXPECT_EQ(r.makespan, 4513138165);
    EXPECT_EQ(foldJobs(r), 12319659211156963112ULL);
    EXPECT_EQ(foldLifecycle(r), 3992975822172231232ULL);
    expectClean(r);
}

TEST(ServeEquivalence, PreemptionGolden)
{
    ServeReport r = runPreemption();
    EXPECT_EQ(r.finishedCount(), 5);
    EXPECT_EQ(r.makespan, 11466176140);
    EXPECT_EQ(foldJobs(r), 17198612749890686031ULL);
    EXPECT_EQ(foldLifecycle(r), 9910042478005502124ULL);
    EXPECT_EQ(r.lifecycle.size(), 10u);
    expectClean(r);
}

// Spurious-wakeup safety: forceWakeAll re-adds every device to the
// wake-set each turn, so the sweep degenerates to the old full
// polling scan — every wake-list skip becomes an explicit (pure) step
// offer. Outputs must not move by a byte, or a skipped offer was not
// actually pure and the wake-list loop is dropping decisions.

TEST(ServeEquivalence, SpuriousWakeupsClusterBurst)
{
    ServeReport r = runClusterBurst(/*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 7799969597);
    EXPECT_EQ(foldJobs(r), 4623866629423474671ULL);
    EXPECT_EQ(foldLifecycle(r), 7420157868171616484ULL);
    expectClean(r);
}

TEST(ServeEquivalence, SpuriousWakeupsClusterSrpt)
{
    ServeReport r = runClusterSrpt(/*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 7909967178);
    EXPECT_EQ(foldJobs(r), 17133718095427305840ULL);
    EXPECT_EQ(foldLifecycle(r), 14279867683755057749ULL);
    expectClean(r);
}

// Single-device spurious wakeups: forceWakeAll additionally marks
// every resident ready each turn, so every tenant the ready list
// would skip gets an explicit step offer to its blocked iteration.
// Identical outputs prove the skip was pure — re-polling a tenant
// whose streams saw no completion cannot change the trajectory.

TEST(ServeEquivalence, SpuriousWakeupsSingleFifo)
{
    ServeReport r =
        runSingleDevice(SchedPolicy::FifoExclusive, /*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 8304944816);
    EXPECT_EQ(foldJobs(r), 7770679107251919159ULL);
    EXPECT_EQ(foldLifecycle(r), 15419150277073167316ULL);
    expectClean(r);
}

TEST(ServeEquivalence, SpuriousWakeupsSingleRoundRobin)
{
    ServeReport r =
        runSingleDevice(SchedPolicy::RoundRobin, /*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 4803144288);
    EXPECT_EQ(foldJobs(r), 12137626524374515989ULL);
    EXPECT_EQ(foldLifecycle(r), 8077645040235954147ULL);
    expectClean(r);
}

TEST(ServeEquivalence, SpuriousWakeupsSingleSrpt)
{
    ServeReport r = runSingleDevice(SchedPolicy::ShortestRemaining,
                                    /*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 4803144288);
    EXPECT_EQ(foldJobs(r), 6083441925284450525ULL);
    EXPECT_EQ(foldLifecycle(r), 1028321761201343118ULL);
    expectClean(r);
}

TEST(ServeEquivalence, SpuriousWakeupsSinglePacked)
{
    ServeReport r =
        runSingleDevice(SchedPolicy::PackedOverlap, /*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 4513138165);
    EXPECT_EQ(foldJobs(r), 12319659211156963112ULL);
    EXPECT_EQ(foldLifecycle(r), 3992975822172231232ULL);
    expectClean(r);
}

// The serve-loop accounting lands both on the report and in the
// MetricsRegistry (and the counters never appear in golden-pinned
// tables, so they are free to exist).

TEST(ServeEquivalence, LoopCountersFlushToMetrics)
{
    obs::MetricsRegistry metrics;
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.devices.assign(2, gpu::titanXMaxwell());
    cfg.telemetry.metrics = &metrics;
    Scheduler sched(cfg);
    for (int i = 0; i < 4; ++i) {
        JobSpec spec;
        spec.name = strFormat("ctr-%02d", i);
        spec.network = sharedNet(0, 64);
        spec.planner = vdnnAll();
        spec.arrival = TimeNs(i) * 2 * kNsPerSec;
        spec.iterations = 2;
        sched.submit(std::move(spec));
    }
    ServeReport r = sched.run();

    EXPECT_GT(r.loopWakeups, 0u);
    EXPECT_GT(r.loopIdleAdvances, 0u); // 2 s gaps drain the cluster
    EXPECT_EQ(metrics.counter("serve.wakeups").value(),
              double(r.loopWakeups));
    EXPECT_EQ(metrics.counter("serve.fruitless_polls").value(),
              double(r.loopFruitlessPolls));
    EXPECT_EQ(metrics.counter("serve.idle_advances").value(),
              double(r.loopIdleAdvances));
}

// The legacy single-device loops never swept the wake-set, so the
// loop counters read zero on a single GPU and sloAttainment was only
// exercised through the cluster path. The unified engine serves
// single-device configurations through the same wake-set sweep, so
// the counters and SLO accounting must now report there too.

TEST(ServeEquivalence, SingleDeviceCountersAndSlo)
{
    obs::MetricsRegistry metrics;
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.telemetry.metrics = &metrics;
    Scheduler sched(cfg);
    for (int i = 0; i < 3; ++i) {
        JobSpec spec;
        spec.name = strFormat("slo-%02d", i);
        spec.network = sharedNet(0, 64);
        spec.planner = vdnnAll();
        spec.arrival = TimeNs(i) * 2 * kNsPerSec;
        spec.iterations = 2;
        // Job 0 carries a generous SLO (met), job 1 an impossible
        // one-nanosecond SLO (missed), job 2 none (not eligible).
        spec.sloJct = i == 0 ? 60 * kNsPerSec : i == 1 ? TimeNs(1) : 0;
        sched.submit(std::move(spec));
    }
    ServeReport r = sched.run();

    EXPECT_EQ(r.finishedCount(), 3);
    EXPECT_GT(r.loopWakeups, 0u);
    EXPECT_GT(r.loopFruitlessPolls, 0u); // DMA joins block an iteration
    EXPECT_GT(r.loopIdleAdvances, 0u);   // 2 s gaps drain the device
    EXPECT_EQ(metrics.counter("serve.wakeups").value(),
              double(r.loopWakeups));
    EXPECT_EQ(metrics.counter("serve.fruitless_polls").value(),
              double(r.loopFruitlessPolls));

    EXPECT_EQ(r.sloEligible(), 2);
    EXPECT_EQ(r.sloMet(), 1);
    EXPECT_DOUBLE_EQ(r.sloAttainment(), 0.5);
}

// The preset rows pinned above. Each workload also asserts the
// lifecycle paths it exists to cover, so a retuned mix that stops
// exercising them fails loudly instead of pinning nothing.

TEST(ServeEquivalence, PriorityChurnGolden)
{
    ServeReport r = runPriorityChurn();
    EXPECT_EQ(r.finishedCount(), 20);
    EXPECT_EQ(r.makespan, 42390879418);
    EXPECT_EQ(foldJobs(r), 11020798394722260960ULL);
    EXPECT_EQ(foldLifecycle(r), 6664433470646116791ULL);
    EXPECT_EQ(r.lifecycle.size(), 60u);
    // Op-granularity parks (suspends no eviction follows), evictions,
    // grow-back re-plans and an in-flight OOM requeue all occur.
    EXPECT_GT(countEvents(r, "suspend"), countEvents(r, "evict"));
    EXPECT_GT(countEvents(r, "evict"), 0);
    EXPECT_GT(countEvents(r, "replan"), 0);
    EXPECT_GT(countEvents(r, "requeue"), 0);
    expectClean(r);
}

TEST(ServeEquivalence, ClusterPackedGolden)
{
    ServeReport r = runClusterPacked();
    EXPECT_EQ(r.finishedCount(), 20);
    EXPECT_EQ(r.makespan, 14776634872);
    EXPECT_EQ(foldJobs(r), 8346973273147642711ULL);
    EXPECT_EQ(foldLifecycle(r), 18145747530721016706ULL);
    EXPECT_EQ(r.lifecycle.size(), 40u);
    expectClean(r);
}

TEST(ServeEquivalence, ClusterPriorityGolden)
{
    ServeReport r = runClusterPriority();
    EXPECT_EQ(r.finishedCount(), 27);
    EXPECT_EQ(r.makespan, 35784928102);
    EXPECT_EQ(foldJobs(r), 17357491957455780155ULL);
    EXPECT_EQ(foldLifecycle(r), 4928704999489899940ULL);
    EXPECT_EQ(r.lifecycle.size(), 63u);
    EXPECT_GT(countEvents(r, "evict"), 0);
    expectClean(r);
}

TEST(ServeEquivalence, SpuriousWakeupsPriorityChurn)
{
    ServeReport r = runPriorityChurn(/*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 42390879418);
    EXPECT_EQ(foldJobs(r), 11020798394722260960ULL);
    EXPECT_EQ(foldLifecycle(r), 6664433470646116791ULL);
    expectClean(r);
}

TEST(ServeEquivalence, SpuriousWakeupsClusterPacked)
{
    ServeReport r = runClusterPacked(/*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 14776634872);
    EXPECT_EQ(foldJobs(r), 8346973273147642711ULL);
    EXPECT_EQ(foldLifecycle(r), 18145747530721016706ULL);
    expectClean(r);
}

TEST(ServeEquivalence, SpuriousWakeupsClusterPriority)
{
    ServeReport r = runClusterPriority(/*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 35784928102);
    EXPECT_EQ(foldJobs(r), 17357491957455780155ULL);
    EXPECT_EQ(foldLifecycle(r), 4928704999489899940ULL);
    expectClean(r);
}

// Pinned before the per-device ready list replaced the op-packed
// sweep over every resident: the ready list must offer steps in
// exactly the old sweep order. The old sweep offered about 50 steps
// per wakeup here; the ready list offers about one.
//
// Re-pinned on purpose when buffer paging was deleted: this mix paged
// co-tenants at both paging sites. The new values equal the old
// engine's output for this workload with paging switched off.

TEST(ServeEquivalence, DensePackedGolden)
{
    ServeReport r = runDensePacked();
    EXPECT_EQ(r.finishedCount(), 64);
    EXPECT_EQ(r.makespan, 42992793322);
    EXPECT_EQ(foldJobs(r), 1168355420865454967ULL);
    EXPECT_EQ(foldLifecycle(r), 827495140237177941ULL);
    EXPECT_EQ(r.lifecycle.size(), 130u);
    EXPECT_GT(countEvents(r, "requeue"), 0);
    EXPECT_LE(double(r.loopFruitlessPolls), 1.5 * double(r.loopWakeups));
    expectClean(r);
}

TEST(ServeEquivalence, SpuriousWakeupsDensePacked)
{
    ServeReport r = runDensePacked(/*forceWakeAll=*/true);
    EXPECT_EQ(r.makespan, 42992793322);
    EXPECT_EQ(foldJobs(r), 1168355420865454967ULL);
    EXPECT_EQ(foldLifecycle(r), 827495140237177941ULL);
    expectClean(r);
}
