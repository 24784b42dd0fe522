/**
 * @file
 * Tests for the multi-device cluster: shared-clock device overlap,
 * per-device pools, placement policies, per-device admission ledgers,
 * cross-device tenant migration (byte-identity of the migrated
 * tenant's iterations), the scheduler's rebalance sweep, and the
 * priority-aging clock replayed against the lifecycle log.
 */

#include "gpu/cluster.hh"

#include "check/ledger_auditor.hh"
#include "common/units.hh"
#include "core/dynamic_policy.hh"
#include "core/planner.hh"
#include "core/training_session.hh"
#include "net/builders.hh"
#include "serve/placement.hh"
#include "serve/scheduler.hh"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace vdnn;
using namespace vdnn::core;
using namespace vdnn::serve;
using namespace vdnn::literals;

namespace
{

std::shared_ptr<const net::Network>
tinyNet(std::int64_t batch = 16)
{
    return net::buildTinyCnn(batch);
}

std::shared_ptr<core::Planner>
vdnnAll()
{
    return std::make_shared<OffloadAllPlanner>(
        AlgoPreference::MemoryOptimal);
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

/** The per-iteration fields migration byte-identity compares. */
void
expectIterationsIdentical(const IterationResult &a,
                          const IterationResult &b)
{
    EXPECT_EQ(a.makespan(), b.makespan());
    EXPECT_EQ(a.classifierTime, b.classifierTime);
    EXPECT_EQ(a.transferStallTime, b.transferStallTime);
    EXPECT_EQ(a.offloadedBytes, b.offloadedBytes);
    EXPECT_EQ(a.pcieBytes, b.pcieBytes);
    EXPECT_EQ(a.offloads, b.offloads);
    EXPECT_EQ(a.prefetches, b.prefetches);
    EXPECT_EQ(a.onDemandFetches, b.onDemandFetches);
}

} // namespace

// --- the cluster substrate ---------------------------------------------------

TEST(Cluster, DevicesOverlapOnOneSharedClock)
{
    gpu::Cluster cluster(
        gpu::homogeneousCluster(gpu::titanXMaxwell(), 2));
    ASSERT_EQ(cluster.deviceCount(), 2);
    EXPECT_EQ(cluster.device(0).deviceId(), 0);
    EXPECT_EQ(cluster.device(1).deviceId(), 1);

    // One 10 ms kernel per device, launched back to back from the
    // host: on a shared clock they execute concurrently, so the node
    // drains at ~10 ms, not 20 ms (the behavior two devices on
    // separate clocks could never exhibit on one timeline).
    gpu::StreamId s0 = cluster.device(0).createStream("d0");
    gpu::StreamId s1 = cluster.device(1).createStream("d1");
    cluster.device(0).launchKernel(s0, {"k0", 10_ms, 0.0, 0});
    cluster.device(1).launchKernel(s1, {"k1", 10_ms, 0.0, 0});
    cluster.device(0).synchronize(s0);
    cluster.device(1).synchronize(s1);
    EXPECT_EQ(cluster.now(), 10_ms);
    EXPECT_EQ(cluster.device(0).computeBusyTime(), 10_ms);
    EXPECT_EQ(cluster.device(1).computeBusyTime(), 10_ms);
}

TEST(Cluster, PerDevicePoolsAndHostsAreIndependent)
{
    gpu::GpuSpec big = gpu::titanXMaxwell();
    gpu::GpuSpec small = gpu::smallGpu4GiB();
    gpu::Cluster cluster(gpu::ClusterSpec{{big, small}, true});

    EXPECT_EQ(cluster.pool(0).capacity(), big.dramCapacity);
    EXPECT_EQ(cluster.pool(1).capacity(), small.dramCapacity);
    EXPECT_EQ(cluster.totalCapacity(),
              big.dramCapacity + small.dramCapacity);

    auto a = cluster.pool(0).allocate(1_GiB, "d0-only");
    EXPECT_EQ(cluster.pool(0).usedBytes(), 1_GiB);
    EXPECT_EQ(cluster.pool(1).usedBytes(), 0);
    cluster.pool(0).release(a);

    auto h = cluster.host(1).allocate(1_MiB, "d1-host");
    EXPECT_EQ(cluster.host(1).usedBytes(), 1_MiB);
    EXPECT_EQ(cluster.host(0).usedBytes(), 0);
    cluster.host(1).release(h);
}

TEST(Cluster, SoleTenantMatchesRunSession)
{
    // runSession and a Session that is the only tenant of a fresh
    // one-device cluster run the same experiment: every paper figure
    // may therefore stand on the cluster's device, pool and host share.
    struct Case
    {
        std::shared_ptr<core::Planner> planner;
        bool oracle = false;
    };
    auto pref = AlgoPreference::MemoryOptimal;
    std::vector<Case> cases = {
        {std::make_shared<BaselinePlanner>(pref)},
        {std::make_shared<OffloadAllPlanner>(pref)},
        {std::make_shared<OffloadConvPlanner>(pref)},
        {std::make_shared<DynamicPlanner>()},
        {std::make_shared<CompressedOffloadPlanner>(pref)},
        {std::make_shared<BaselinePlanner>(
             AlgoPreference::PerformanceOptimal),
         true},
    };
    for (const auto &network :
         {net::buildAlexNet(128), net::buildVgg16(64)}) {
        for (const Case &c : cases) {
            SessionConfig cfg;
            cfg.planner = c.planner;
            cfg.oracle = c.oracle;
            SessionResult alone = runSession(*network, cfg);

            // The oracle's capacity goes into the cluster's spec.
            gpu::GpuSpec spec = cfg.gpu;
            if (c.oracle)
                spec.dramCapacity = Bytes(1024) * 1024 * 1024 * 1024;
            cfg.oracle = false;
            gpu::Cluster cluster(gpu::ClusterSpec{{spec}});
            Session s(*network, cfg, shareOf(cluster, 0, 0));
            bool ok = s.setup();
            for (int i = 0; ok && i < cfg.iterations; ++i)
                ok = s.runIteration().ok;
            s.teardown();
            SessionResult tenant = s.result();

            std::string what = network->name() + " " + alone.configName;
            ASSERT_EQ(alone.trainable, ok) << what;
            EXPECT_EQ(alone.trainable, tenant.trainable) << what;
            EXPECT_EQ(alone.trials.size(), tenant.trials.size()) << what;
            EXPECT_EQ(alone.iterationTime, tenant.iterationTime) << what;
            EXPECT_EQ(alone.pcieBytesPerIter, tenant.pcieBytesPerIter)
                << what;
            EXPECT_EQ(alone.maxTotalUsage, tenant.maxTotalUsage) << what;
            EXPECT_EQ(alone.avgTotalUsage, tenant.avgTotalUsage) << what;
            EXPECT_EQ(alone.maxManagedUsage, tenant.maxManagedUsage)
                << what;
            EXPECT_EQ(alone.avgManagedUsage, tenant.avgManagedUsage)
                << what;
            ASSERT_EQ(alone.layerTimings.size(), tenant.layerTimings.size())
                << what;
            for (std::size_t l = 0; l < alone.layerTimings.size(); ++l) {
                const LayerTiming &a = alone.layerTimings[l];
                const LayerTiming &b = tenant.layerTimings[l];
                EXPECT_EQ(a.id, b.id) << what;
                EXPECT_EQ(a.fwdStart, b.fwdStart) << what;
                EXPECT_EQ(a.fwdEnd, b.fwdEnd) << what;
                EXPECT_EQ(a.bwdStart, b.bwdStart) << what;
                EXPECT_EQ(a.bwdEnd, b.bwdEnd) << what;
            }
        }
    }
}

// --- placement policies ------------------------------------------------------

TEST(Placement, BestFitPacksRoundRobinRotatesLoadBalanceSpreads)
{
    std::vector<DeviceLoad> loads(2);
    loads[0] = {0, 12_GiB, 4_GiB, 2, true};
    loads[1] = {1, 12_GiB, 1_GiB, 1, true};

    BestFitPlacement best;
    EXPECT_EQ(best.place(loads), 0); // least free bytes wins

    LoadBalancePlacement lb;
    EXPECT_EQ(lb.place(loads), 1); // fewest tenants wins

    RoundRobinPlacement rr;
    EXPECT_EQ(rr.place(loads), 0);
    EXPECT_EQ(rr.place(loads), 1);
    EXPECT_EQ(rr.place(loads), 0);

    // Unfit devices are never chosen; nothing fit -> defer.
    loads[0].fits = false;
    EXPECT_EQ(best.place(loads), 1);
    loads[1].fits = false;
    EXPECT_EQ(best.place(loads), -1);
    EXPECT_EQ(lb.place(loads), -1);
    EXPECT_EQ(rr.place(loads), -1);
}

// --- the cluster scheduler ---------------------------------------------------

namespace
{

SchedulerConfig
clusterConfig(int ndev, std::shared_ptr<PlacementPolicy> placement,
              SchedPolicy policy = SchedPolicy::RoundRobin)
{
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.devices.assign(std::size_t(ndev), gpu::titanXMaxwell());
    cfg.placement = std::move(placement);
    return cfg;
}

} // namespace

TEST(ClusterScheduler, DrainsWithPerDeviceLedgersBalancedToZero)
{
    SchedulerConfig cfg =
        clusterConfig(2, std::make_shared<LoadBalancePlacement>());
    Scheduler sched(cfg);
    auto network = tinyNet();
    // Simultaneous arrivals so the balancer sees real queue depth.
    for (int i = 0; i < 6; ++i)
        sched.submit(makeJob(network, vdnnAll(), 0, 2));
    ServeReport rep = sched.run();

    EXPECT_EQ(rep.finishedCount(), 6);
    EXPECT_EQ(rep.deviceCount, 2);
    ASSERT_EQ(rep.devices.size(), 2u);
    for (const DeviceOutcome &d : rep.devices) {
        EXPECT_EQ(d.reservedAtEnd, 0) << "device " << d.device;
        EXPECT_EQ(d.evictedLedgerAtEnd, 0) << "device " << d.device;
    }
    EXPECT_EQ(rep.reservedBytesAtEnd, 0);
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
    EXPECT_EQ(sched.devicePoolOn(1).usedBytes(), 0);
    // Load balancing actually spread the work.
    EXPECT_GT(rep.devices[0].jobsPlaced, 0);
    EXPECT_GT(rep.devices[1].jobsPlaced, 0);
    // Every job records where it ran.
    for (const JobOutcome &j : rep.jobs) {
        EXPECT_GE(j.device, 0);
        ASSERT_EQ(j.placements.size(), 1u);
        EXPECT_EQ(j.placements[0], j.device);
    }
    // Lifecycle events carry the device.
    for (const LifecycleEvent &ev : rep.lifecycle)
        EXPECT_GE(ev.device, 0);
}

TEST(ClusterScheduler, BestFitConsolidatesLoadBalanceSpreads)
{
    auto network = tinyNet();
    auto runWith = [&](std::shared_ptr<PlacementPolicy> placement) {
        SchedulerConfig cfg = clusterConfig(2, std::move(placement));
        Scheduler sched(cfg);
        // Simultaneous arrivals; every job easily fits either device.
        for (int i = 0; i < 4; ++i)
            sched.submit(makeJob(network, vdnnAll(), 0, 2));
        return sched.run();
    };

    ServeReport best = runWith(std::make_shared<BestFitPlacement>());
    EXPECT_EQ(best.finishedCount(), 4);
    // Best fit keeps choosing the fullest feasible device: everything
    // lands on device 0 while device 1 idles.
    EXPECT_EQ(best.devices[0].jobsPlaced, 4);
    EXPECT_EQ(best.devices[1].jobsPlaced, 0);

    ServeReport lb = runWith(std::make_shared<LoadBalancePlacement>());
    EXPECT_EQ(lb.finishedCount(), 4);
    EXPECT_EQ(lb.devices[0].jobsPlaced, 2);
    EXPECT_EQ(lb.devices[1].jobsPlaced, 2);
    // Spreading four equal jobs over two devices halves the makespan.
    EXPECT_LT(lb.makespan, best.makespan);
}

TEST(ClusterScheduler, ThroughputScalesAcrossDevices)
{
    auto network = tinyNet(32);
    auto runOn = [&](int ndev) {
        SchedulerConfig cfg = clusterConfig(
            ndev, std::make_shared<LoadBalancePlacement>());
        Scheduler sched(cfg);
        for (int i = 0; i < 8; ++i)
            sched.submit(makeJob(network, vdnnAll(), 0, 3));
        return sched.run();
    };
    ServeReport one = runOn(1);
    ServeReport two = runOn(2);
    EXPECT_EQ(one.finishedCount(), 8);
    EXPECT_EQ(two.finishedCount(), 8);
    ASSERT_GT(one.aggregateThroughput(), 0.0);
    EXPECT_GE(two.aggregateThroughput() / one.aggregateThroughput(),
              1.5);
}

// --- cross-device migration --------------------------------------------------

TEST(Migration, EvictedTenantResumesOnAnotherDeviceByteIdentically)
{
    // The migrated tenant: one iteration on device 0, migrate, the
    // second iteration on device 1.
    gpu::Cluster cluster(
        gpu::homogeneousCluster(gpu::titanXMaxwell(), 2));
    auto network = net::buildTinyCnn(8);
    SessionConfig scfg;
    scfg.planner = vdnnAll();
    Session migrant(*network, scfg, shareOf(cluster, 0, 1));
    ASSERT_TRUE(migrant.setup());
    EXPECT_EQ(migrant.deviceId(), 0);
    IterationResult first = migrant.runIteration();
    ASSERT_TRUE(first.ok);

    ASSERT_TRUE(migrant.evictToHost());
    Bytes staged = migrant.evictedBytes();
    EXPECT_GT(staged, 0);
    EXPECT_EQ(cluster.host(0).usedBytes(), staged);

    ASSERT_TRUE(migrant.migrate(shareOf(cluster, 1, 1)));
    EXPECT_EQ(migrant.deviceId(), 1);
    EXPECT_EQ(migrant.state(), SessionState::Active);
    // The staging buffer moved to device 1's host share and was
    // consumed by the restore; device 0 is fully drained.
    EXPECT_EQ(cluster.host(0).usedBytes(), 0);
    EXPECT_EQ(cluster.pool(0).usedBytes(), 0);
    EXPECT_EQ(cluster.pool(1).usedBytes(), migrant.persistentBytes());
    // The restore crossed device 1's PCIe link, not device 0's.
    EXPECT_EQ(cluster.device(1).bytesCopiedByClient(
                  gpu::CopyDir::HostToDevice, 1),
              staged);

    IterationResult second = migrant.runIteration();
    ASSERT_TRUE(second.ok);
    migrant.teardown();
    EXPECT_EQ(cluster.pool(1).usedBytes(), 0);
    EXPECT_EQ(cluster.host(1).usedBytes(), 0);

    // Control: the same two iterations without migration.
    gpu::Cluster control_cluster(
        gpu::homogeneousCluster(gpu::titanXMaxwell(), 2));
    Session control(*network, scfg, shareOf(control_cluster, 0, 1));
    ASSERT_TRUE(control.setup());
    IterationResult c1 = control.runIteration();
    IterationResult c2 = control.runIteration();
    ASSERT_TRUE(c1.ok);
    ASSERT_TRUE(c2.ok);
    control.teardown();

    expectIterationsIdentical(first, c1);
    expectIterationsIdentical(second, c2);
}

TEST(Migration, SqueezedDynamicTenantReplansAgainstTheTargetShare)
{
    // Device 0 is crowded by a hog, so the vDNN_dyn tenant derives an
    // offload-heavy plan; device 1 is empty, so the re-plan on
    // migration grows back to the no-offload ideal — the "different
    // free share -> different plan" half of the acceptance criterion.
    gpu::Cluster cluster(
        gpu::homogeneousCluster(gpu::titanXMaxwell(), 2));
    auto hog = cluster.pool(0).allocate(7_GiB + 512_MiB, "hog", 99);

    auto network = net::buildVgg16(64);
    SessionConfig scfg;
    scfg.planner = std::make_shared<DynamicPlanner>();
    Session session(*network, scfg, shareOf(cluster, 0, 1));
    ASSERT_TRUE(session.setup());
    EXPECT_GT(session.plan().offloadCount(), 0); // squeezed
    ASSERT_TRUE(session.runIteration().ok);

    ASSERT_TRUE(session.evictToHost());
    ASSERT_TRUE(session.migrate(shareOf(cluster, 1, 1)));
    EXPECT_EQ(session.deviceId(), 1);
    EXPECT_EQ(session.plan().offloadCount(), 0); // re-planned larger

    IterationResult after = session.runIteration();
    ASSERT_TRUE(after.ok);
    EXPECT_EQ(after.offloads, 0);

    // Byte-identity against a tenant planned directly on an idle
    // device: migration must be transparent to the iterations.
    gpu::Cluster control_cluster(
        gpu::homogeneousCluster(gpu::titanXMaxwell(), 1));
    Session control(*network, scfg, shareOf(control_cluster, 0, 1));
    ASSERT_TRUE(control.setup());
    ASSERT_TRUE(control.runIteration().ok); // control's first iteration
    IterationResult control_after = control.runIteration();
    ASSERT_TRUE(control_after.ok);
    expectIterationsIdentical(after, control_after);

    control.teardown();
    session.teardown();
    cluster.pool(0).release(hog);
    EXPECT_EQ(cluster.pool(0).usedBytes(), 0);
    EXPECT_EQ(cluster.pool(1).usedBytes(), 0);
}

TEST(Migration, RefusedWhenTargetHostShareIsExhausted)
{
    gpu::GpuSpec big = gpu::titanXMaxwell();
    gpu::GpuSpec no_host = gpu::titanXMaxwell();
    no_host.hostCapacity = 1_KiB; // cannot stage anything
    gpu::Cluster cluster(gpu::ClusterSpec{{big, no_host}, true});

    auto network = net::buildTinyCnn(8);
    SessionConfig scfg;
    scfg.planner = vdnnAll();
    Session session(*network, scfg, shareOf(cluster, 0, 1));
    ASSERT_TRUE(session.setup());
    ASSERT_TRUE(session.runIteration().ok);
    ASSERT_TRUE(session.evictToHost());

    EXPECT_FALSE(session.migrate(shareOf(cluster, 1, 1)));
    // Still evicted, still homed on the source, still resumable there.
    EXPECT_EQ(session.state(), SessionState::Evicted);
    EXPECT_EQ(session.deviceId(), 0);
    ASSERT_TRUE(session.resume());
    EXPECT_TRUE(session.runIteration().ok);
    session.teardown();
}

namespace
{

/**
 * Each job's waiting time read off the lifecycle log: Queued from
 * arrival or a requeue to the next admit or fail, Evicted from an
 * evict or migrate-out to the next resume, migrate, finish or fail (a
 * migrate-stall keeps the spell open).
 */
std::vector<TimeNs>
waitFromLog(const ServeReport &rep)
{
    std::vector<TimeNs> total(rep.jobs.size(), 0);
    std::vector<TimeNs> since(rep.jobs.size(), kTimeNone);
    for (const JobOutcome &j : rep.jobs)
        since[std::size_t(j.id)] = j.arrival;
    for (const LifecycleEvent &ev : rep.lifecycle) {
        std::string what = ev.what;
        TimeNs &open = since[std::size_t(ev.job)];
        if (what == "requeue" || what == "evict" || what == "migrate-out") {
            EXPECT_EQ(open, kTimeNone) << "job " << ev.job << " " << what;
            open = ev.when;
        } else if ((what == "admit" || what == "fail" || what == "resume" ||
                    what == "migrate" || what == "finish") &&
                   open != kTimeNone) {
            total[std::size_t(ev.job)] += ev.when - open;
            open = kTimeNone;
        }
    }
    return total;
}

/** Every job's aging clock equals its waiting time in the log, and no
 *  spell is left open after the drain. @return the summed wait. */
TimeNs
expectAgingMatchesLog(const Scheduler &sched, const ServeReport &rep)
{
    std::vector<TimeNs> logged = waitFromLog(rep);
    TimeNs sum = 0;
    for (const JobOutcome &j : rep.jobs) {
        const Job &job = sched.job(j.id);
        EXPECT_EQ(job.agedWait, logged[std::size_t(j.id)]) << j.name;
        EXPECT_EQ(job.waitingSince, kTimeNone) << j.name;
        sum += job.agedWait;
    }
    return sum;
}

} // namespace

TEST(AgingClock, MatchesTheLogAcrossEvictions)
{
    // A hostile stream of priority-10 Baseline VGG-16 (64) jobs, of
    // which exactly one fits the device, against an aging
    // low-priority one: it waits Queued, ages past the stream, evicts
    // the incumbent, and the evicted tenant waits Evicted.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PreemptivePriority;
    Scheduler sched(cfg);
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);
    auto baseline = std::make_shared<BaselinePlanner>(
        AlgoPreference::MemoryOptimal);
    for (int i = 0; i < 3; ++i) {
        JobSpec hostile = makeJob(vgg, baseline, TimeNs(i) * 1_s, 2);
        hostile.priority = 10;
        sched.submit(std::move(hostile));
    }
    JobSpec starved = makeJob(vgg, baseline, 50_ms, 1);
    starved.agingRatePerSec = 4.0;
    sched.submit(std::move(starved));
    ServeReport rep = sched.run();

    ASSERT_EQ(rep.finishedCount(), 4);
    int evictions = 0;
    for (const JobOutcome &j : rep.jobs)
        evictions += j.preemptions;
    EXPECT_GT(evictions, 0);
    EXPECT_GT(expectAgingMatchesLog(sched, rep), 0);
}

TEST(ClusterScheduler, RebalanceMigratesOffTheLoadedDevice)
{
    // Best-fit placement piles every arrival onto device 0; the
    // rebalance sweep must move tenants to the idle device 1.
    SchedulerConfig cfg =
        clusterConfig(2, std::make_shared<BestFitPlacement>());
    cfg.rebalancePeriod = 2_ms;
    cfg.rebalanceThreshold = 2;
    Scheduler sched(cfg);
    auto network = tinyNet();
    for (int i = 0; i < 6; ++i)
        sched.submit(makeJob(network, vdnnAll(), 0, 6));
    ServeReport rep = sched.run();

    EXPECT_EQ(rep.finishedCount(), 6);
    int migrations = 0;
    for (const JobOutcome &j : rep.jobs)
        migrations += j.migrations;
    EXPECT_GT(migrations, 0);
    EXPECT_EQ(rep.devices[0].migrationsOut,
              rep.devices[1].migrationsIn);
    EXPECT_GT(rep.devices[1].migrationsIn, 0);
    // A migrated job's placement history shows the hop.
    bool hop_recorded = false;
    for (const JobOutcome &j : rep.jobs) {
        if (j.migrations > 0) {
            ASSERT_GE(j.placements.size(), 2u);
            hop_recorded = true;
        }
    }
    EXPECT_TRUE(hop_recorded);
    // The audit log carries migrate events with the target device.
    int migrate_events = 0;
    for (const LifecycleEvent &ev : rep.lifecycle) {
        if (std::string(ev.what) == "migrate") {
            ++migrate_events;
            EXPECT_EQ(ev.device, 1);
        }
    }
    EXPECT_EQ(migrate_events, migrations);
    // The aging clock counts each migration's Evicted spell
    // (migrate-out to migrate), as the log does.
    EXPECT_GT(expectAgingMatchesLog(sched, rep), 0);
    // Ledgers balance to zero on both devices after the drain.
    for (const DeviceOutcome &d : rep.devices) {
        EXPECT_EQ(d.reservedAtEnd, 0);
        EXPECT_EQ(d.evictedLedgerAtEnd, 0);
    }
    EXPECT_EQ(sched.devicePoolOn(0).usedBytes(), 0);
    EXPECT_EQ(sched.devicePoolOn(1).usedBytes(), 0);
}

namespace
{

/** vDNN_all that finds no plan on device 1. Admission's estimate (the
 *  device-independent admissionPlan) still fits there, so the
 *  rebalance sweep migrates tenants to device 1, where their resume
 *  can never re-plan. */
class NoPlanOnDeviceOne : public core::Planner
{
  public:
    std::string name() const override { return inner.name(); }
    MemoryPlan plan(const net::Network &net,
                    const PlannerContext &ctx) override
    {
        MemoryPlan p = inner.plan(net, ctx);
        if (ctx.deviceId == 1) {
            p.feasible = false;
            p.failReason = "no plan on device 1";
        }
        return p;
    }
    MemoryPlan admissionPlan(const net::Network &net,
                             const PlannerContext &ctx) override
    {
        return inner.plan(net, ctx);
    }

  private:
    OffloadAllPlanner inner{AlgoPreference::MemoryOptimal};
};

} // namespace

TEST(ClusterScheduler, StalledMigrationWaitsEvictedUntilTheBackstopFails)
{
    // The rebalance sweep of RebalanceMigratesOffTheLoadedDevice, but
    // no tenant can re-plan on device 1: each migration stalls there
    // (migrate-stall, Migrating -> Evicted), the resume sweep retries
    // in vain, and once nothing else runs the drained backstop fails
    // the tenant from Evicted.
    SchedulerConfig cfg =
        clusterConfig(2, std::make_shared<BestFitPlacement>());
    cfg.rebalancePeriod = 2_ms;
    cfg.rebalanceThreshold = 2;
    Scheduler sched(cfg);
    auto network = tinyNet();
    for (int i = 0; i < 6; ++i) {
        sched.submit(
            makeJob(network, std::make_shared<NoPlanOnDeviceOne>(), 0, 6));
    }
    ServeReport rep = sched.run();

    std::vector<std::string> last(rep.jobs.size());
    int stalls = 0;
    for (const LifecycleEvent &ev : rep.lifecycle) {
        std::string what = ev.what;
        EXPECT_NE(what, "migrate") << "job " << ev.job;
        stalls += what == "migrate-stall";
        last[std::size_t(ev.job)] = what;
    }
    EXPECT_GT(stalls, 0);
    for (const JobOutcome &j : rep.jobs) {
        if (j.migrations == 0) {
            EXPECT_EQ(j.state, JobState::Finished) << j.name;
            continue;
        }
        EXPECT_EQ(j.state, JobState::Failed) << j.name;
        EXPECT_EQ(j.device, 1) << j.name;
        EXPECT_EQ(last[std::size_t(j.id)], "fail") << j.name;
        EXPECT_NE(j.failReason.find("could not be readmitted"),
                  std::string::npos)
            << j.failReason;
    }
    EXPECT_GT(rep.finishedCount(), 0);
    EXPECT_EQ(rep.failedCount(), stalls);
    // The stall keeps the waiting spell open from migrate-out to the
    // final fail, as the log reads it.
    EXPECT_GT(expectAgingMatchesLog(sched, rep), 0);
    check::CheckResult audit = check::auditLedger(rep);
    EXPECT_TRUE(audit.ok()) << audit.report();
}

TEST(ClusterScheduler, RebalanceSkipsAMigrationTheHostCannotStage)
{
    // The rebalance sweep of RebalanceMigratesOffTheLoadedDevice, but
    // the idle target's pinned-host share (1 KiB) cannot take any
    // tenant's staged state: the sweep must not start a migration it
    // cannot finish, so every tenant stays on device 0.
    SchedulerConfig cfg =
        clusterConfig(2, std::make_shared<BestFitPlacement>());
    cfg.devices[1].hostCapacity = 1_KiB;
    cfg.rebalancePeriod = 2_ms;
    cfg.rebalanceThreshold = 2;
    Scheduler sched(cfg);
    auto network = tinyNet();
    for (int i = 0; i < 6; ++i)
        sched.submit(makeJob(network, vdnnAll(), 0, 6));
    ServeReport rep = sched.run();

    EXPECT_EQ(rep.finishedCount(), 6);
    for (const LifecycleEvent &ev : rep.lifecycle) {
        EXPECT_NE(std::string(ev.what), "migrate-out");
        EXPECT_NE(std::string(ev.what), "migrate-stall");
    }
    for (const JobOutcome &j : rep.jobs) {
        EXPECT_EQ(j.migrations, 0);
        EXPECT_EQ(j.device, 0);
    }
    EXPECT_EQ(rep.reservedBytesAtEnd, 0);
    EXPECT_EQ(rep.evictedLedgerAtEnd, 0);
    check::CheckResult audit = check::auditLedger(rep);
    EXPECT_TRUE(audit.ok()) << audit.report();
}

TEST(ClusterScheduler, HeterogeneousDevicesPlaceByCapacity)
{
    // A job too big for the small device must land on the big one
    // even when the small one is emptier.
    gpu::GpuSpec big = gpu::titanXMaxwell();
    gpu::GpuSpec small = gpu::smallGpu4GiB();
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.devices = {small, big};
    cfg.placement = std::make_shared<LoadBalancePlacement>();
    Scheduler sched(cfg);

    // Baseline VGG-16 (64) cannot train on 4 GiB at all.
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);
    sched.submit(makeJob(
        vgg,
        std::make_shared<BaselinePlanner>(
            AlgoPreference::MemoryOptimal),
        0, 1));
    ServeReport rep = sched.run();
    ASSERT_EQ(rep.finishedCount(), 1);
    EXPECT_EQ(rep.jobs[0].device, 1);
    // The report names each distinct device spec with its count.
    EXPECT_EQ(rep.gpuName, "Small 4 GiB GPU x1 + Titan X (Maxwell) x1");
}
