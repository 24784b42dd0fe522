/**
 * @file
 * Raw simulator speed: wall-clock seconds per million simulated
 * events, with telemetry off and on.
 *
 * Every figure bench measures the *simulated* machine; this one
 * measures the simulator. Two scenarios:
 *
 *  - "burst": a fixed 8-tenant AlexNet / OverFeat burst on 2 devices
 *    (round-robin packing, rebalance migration), so the event mix
 *    covers kernels, DMAs, arbiter grants and scheduler decisions.
 *    This is the original trajectory metric and its config must not
 *    change (simspeed.sec_per_mevent is compared across PRs).
 *
 *  - "hightenant": 64 tenants on 8 devices with 1 ms arrival spacing
 *    and 12 iterations each. An order of magnitude more events, with
 *    constant admission-queue pressure, cross-device rebalance
 *    migration and heavy event-queue churn (every DMA start/finish
 *    reschedules the in-flight kernel's completion through a
 *    deschedule + reschedule pair), so this scenario stresses the
 *    event queue itself, not just the op bodies between events.
 *
 * The denominator is the event queue's executed-event counter, so the
 * metric is insensitive to workload rescaling only insofar as the
 * event mix stays put — treat it as a trajectory, not an absolute.
 *
 * The telemetry-on column re-runs the burst scenario with a
 * TraceRecorder and MetricsRegistry attached; the overhead column is
 * what the always-compiled hooks cost when somebody actually looks.
 * With telemetry detached the hooks are null-pointer checks and the
 * overhead must stay in the noise.
 */

#include "bench_common.hh"

#include "check/ledger_auditor.hh"
#include "common/units.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/placement.hh"
#include "serve/scheduler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>

using namespace vdnn;
using namespace vdnn::bench;
using namespace vdnn::serve;

namespace
{

struct Scenario
{
    const char *name;
    int tenants = 8;
    int devices = 2;
    int iterations = 3;
    TimeNs arrivalSpacing = 5 * kNsPerMs;
    SchedPolicy policy = SchedPolicy::RoundRobin;
};

constexpr Scenario kBurst{"burst", 8, 2, 3, 5 * kNsPerMs};
constexpr Scenario kHighTenant{"hightenant", 64, 8, 12, kNsPerMs};
/**
 * The op-granularity density stressor: 256 tenants pour onto ONE
 * device under PackedOverlap, so nearly the whole tenant population
 * sits either in the admission queue or blocked on a DMA join at any
 * instant. The legacy `runPacked` loop re-offered every resident
 * tenant a step and rescanned the whole admission queue on every
 * round; the unified engine sweeps only woken tenants and gates the
 * rescan on the admission dirty flag. This is the scenario the PR 10
 * before/after numbers pin.
 */
constexpr Scenario kDense256x1{"dense256x1", 256, 1, 2, kNsPerMs / 4,
                               SchedPolicy::PackedOverlap};
/**
 * The wake-list stressor: 256 tenants pour onto 16 devices four times
 * faster than hightenant, so for most of the run every device has an
 * iteration in flight and a deep admission queue sits behind them. A
 * serve loop that polls every device (and rescans the queue) per
 * event pays O(devices + queued) per executed event here; the
 * event-driven loop pays only for the devices an event actually
 * woke. This is the scenario the PR 9 before/after numbers pin.
 */
constexpr Scenario kCluster16{"cluster16", 256, 16, 4, kNsPerMs / 4};

std::vector<JobSpec>
speedMix(const Scenario &sc)
{
    std::vector<JobSpec> specs;
    for (int i = 0; i < sc.tenants; ++i) {
        JobSpec spec;
        spec.name = strFormat("speed-%02d", i);
        spec.network = i % 2 == 0 ? net::buildAlexNet(128)
                                  : net::buildOverFeat(128);
        spec.planner = offloadAllPlanner();
        spec.arrival = TimeNs(i) * sc.arrivalSpacing;
        spec.iterations = sc.iterations;
        specs.push_back(std::move(spec));
    }
    return specs;
}

struct SpeedPoint
{
    double wallSeconds = 0.0;
    std::int64_t events = 0;
    double secondsPerMillionEvents() const
    {
        return events > 0 ? wallSeconds * 1e6 / double(events) : 0.0;
    }
};

SpeedPoint
runWorkload(const Scenario &sc, bool telemetry)
{
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    SchedulerConfig cfg;
    cfg.policy = sc.policy;
    if (sc.devices > 1) {
        cfg.devices.assign(std::size_t(sc.devices), gpu::titanXMaxwell());
        cfg.placement = std::make_shared<LoadBalancePlacement>();
        cfg.rebalancePeriod = 100 * kNsPerMs;
        cfg.rebalanceThreshold = 2;
    }
    if (telemetry) {
        cfg.telemetry.trace = &trace;
        cfg.telemetry.metrics = &metrics;
    }
    Scheduler sched(cfg);
    for (JobSpec &spec : speedMix(sc))
        sched.submit(std::move(spec));

    auto t0 = std::chrono::steady_clock::now();
    ServeReport rep = sched.run();
    auto t1 = std::chrono::steady_clock::now();
    VDNN_ASSERT(rep.finishedCount() == int(rep.jobs.size()),
                "simspeed workload must finish (%d/%zu)",
                rep.finishedCount(), rep.jobs.size());

    SpeedPoint p;
    p.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    p.events = std::int64_t(sched.device(0).clock().executed());
    return p;
}

/** Best-of-N to shave scheduler-noise off the wall clock. */
SpeedPoint
bestOf(int n, const Scenario &sc, bool telemetry)
{
    SpeedPoint best = runWorkload(sc, telemetry);
    for (int i = 1; i < n; ++i) {
        SpeedPoint p = runWorkload(sc, telemetry);
        if (p.wallSeconds < best.wallSeconds)
            best = p;
    }
    return best;
}

void
report()
{
    SpeedPoint off = bestOf(3, kBurst, /*telemetry=*/false);
    SpeedPoint on = bestOf(3, kBurst, /*telemetry=*/true);
    SpeedPoint high = bestOf(3, kHighTenant, /*telemetry=*/false);
    SpeedPoint c16 = bestOf(3, kCluster16, /*telemetry=*/false);
    SpeedPoint dense = bestOf(3, kDense256x1, /*telemetry=*/false);
    double overhead_pct =
        off.wallSeconds > 0.0
            ? (on.wallSeconds / off.wallSeconds - 1.0) * 100.0
            : 0.0;

    stats::Table table("Simulator speed (best of 3)");
    table.setColumns({"scenario", "telemetry", "events", "wall (ms)",
                      "s / M events", "M events / s"});
    struct Row
    {
        const char *scenario;
        const char *label;
        const SpeedPoint *p;
    };
    const Row rows[] = {{"8t x 2dev burst", "off", &off},
                        {"8t x 2dev burst", "on", &on},
                        {"64t x 8dev hightenant", "off", &high},
                        {"256t x 16dev cluster16", "off", &c16},
                        {"256t x 1dev dense256x1", "off", &dense}};
    for (const Row &r : rows) {
        double mevs = r.p->secondsPerMillionEvents();
        table.addRow({r.scenario, r.label,
                      stats::Table::cellInt((long long)r.p->events),
                      stats::Table::cell(r.p->wallSeconds * 1e3, 1),
                      stats::Table::cell(mevs, 3),
                      stats::Table::cell(mevs > 0 ? 1.0 / mevs : 0.0,
                                         2)});
    }
    table.print();
    std::printf("telemetry overhead: %+.1f%%\n", overhead_pct);

    recordBenchMetric("simspeed.events", double(off.events));
    recordBenchMetric("simspeed.sec_per_mevent",
                      off.secondsPerMillionEvents());
    recordBenchMetric("simspeed.sec_per_mevent_telemetry",
                      on.secondsPerMillionEvents());
    recordBenchMetric("simspeed.telemetry_overhead_pct", overhead_pct);
    recordBenchMetric("simspeed.hightenant.events", double(high.events));
    recordBenchMetric("simspeed.hightenant.sec_per_mevent",
                      high.secondsPerMillionEvents());
    recordBenchMetric("simspeed.cluster16.events", double(c16.events));
    recordBenchMetric("simspeed.cluster16.sec_per_mevent",
                      c16.secondsPerMillionEvents());
    recordBenchMetric("simspeed.dense256x1.events", double(dense.events));
    recordBenchMetric("simspeed.dense256x1.sec_per_mevent",
                      dense.secondsPerMillionEvents());
}

/** Do two runs agree on every job outcome and lifecycle event? */
bool
sameOutcomes(const ServeReport &a, const ServeReport &b)
{
    auto job_key = [](const JobOutcome &j) {
        return std::make_tuple(j.state, j.admitTime, j.firstDispatchTime,
                               j.finishTime, j.serviceTime, j.iterations,
                               j.oomRequeues, j.preemptions, j.replans,
                               j.pageOuts, j.migrations, j.device,
                               j.placements, j.persistentBytes,
                               j.peakPoolBytes, j.offloadedBytes);
    };
    auto event_key = [](const LifecycleEvent &e) {
        return std::make_tuple(e.when, e.job, std::string(e.what),
                               e.device, e.reservedBefore,
                               e.reservedAfter);
    };
    if (a.makespan != b.makespan || a.jobs.size() != b.jobs.size() ||
        a.lifecycle.size() != b.lifecycle.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        if (job_key(a.jobs[i]) != job_key(b.jobs[i]))
            return false;
    }
    for (std::size_t i = 0; i < a.lifecycle.size(); ++i) {
        if (event_key(a.lifecycle[i]) != event_key(b.lifecycle[i]))
            return false;
    }
    return true;
}

/**
 * `bench_simspeed dense-smoke`: the dense256x1 scenario run to
 * completion twice — normally and with every resident offered a step
 * every turn (Scheduler::setDebugForceWakeAll) — with the lifecycle
 * audit replayed. The two runs must agree on every job outcome and
 * lifecycle event: each step offer the per-device ready list skips
 * must be pure. The CI ASan/UBSan smoke for the unified engine at
 * thousand-tenant density (no timing claims; sanitizers make the wall
 * clock meaningless).
 */
int
denseSmoke()
{
    ServeReport reps[2];
    for (bool force : {false, true}) {
        SchedulerConfig cfg;
        cfg.policy = kDense256x1.policy;
        Scheduler sched(cfg);
        for (JobSpec &spec : speedMix(kDense256x1))
            sched.submit(std::move(spec));
        sched.setDebugForceWakeAll(force);
        reps[force] = sched.run();
    }
    const ServeReport &rep = reps[0];
    check::CheckResult audit = check::auditLedger(rep);
    if (!audit.ok())
        std::printf("ledger audit:\n%s", audit.report().c_str());
    bool same = sameOutcomes(rep, reps[1]);
    if (!same)
        std::printf("forced wakeups changed job outcomes or lifecycle\n");
    bool ok = rep.finishedCount() == int(rep.jobs.size()) &&
              rep.reservedBytesAtEnd == 0 &&
              rep.evictedLedgerAtEnd == 0 && audit.ok() && same;
    std::printf("dense-smoke: %s (%d/%zu tenants finished, %.2f "
                "fruitless offers per wakeup, %.2f forced)\n",
                ok ? "PASS" : "FAIL", rep.finishedCount(), rep.jobs.size(),
                double(rep.loopFruitlessPolls) /
                    double(std::max<std::uint64_t>(rep.loopWakeups, 1)),
                double(reps[1].loopFruitlessPolls) /
                    double(std::max<std::uint64_t>(reps[1].loopWakeups, 1)));
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "dense-smoke") == 0) {
        setQuiet(true);
        return denseSmoke();
    }
    registerSim("simspeed/8_tenants_2dev", [] {
        runWorkload(kBurst, /*telemetry=*/false);
    });
    registerSim("simspeed/64_tenants_8dev", [] {
        runWorkload(kHighTenant, /*telemetry=*/false);
    });
    registerSim("simspeed/256_tenants_16dev", [] {
        runWorkload(kCluster16, /*telemetry=*/false);
    });
    registerSim("simspeed/256_tenants_1dev_packed", [] {
        runWorkload(kDense256x1, /*telemetry=*/false);
    });
    return benchMain(argc, argv, report);
}
