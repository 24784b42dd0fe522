/**
 * @file
 * `bench_simspeed dense-smoke`: the unified serve engine at
 * 256-tenant density, checked for correctness, not timed.
 *
 * 256 tenants pour onto ONE device under PackedOverlap, so nearly the
 * whole tenant population sits either in the admission queue or
 * blocked on a DMA join at any instant. The run is repeated with
 * every resident offered a step every turn, and the two runs must
 * agree. CI runs it under ASan and UBSan.
 *
 * Host time (wall-clock seconds per simulated event, and the
 * telemetry overhead) is measured by the repository benchmark,
 * `python3 perfbench/run.py`, which repeats each workload and reports
 * its spread.
 */

#include "bench_common.hh"

#include "check/ledger_auditor.hh"
#include "common/units.hh"
#include "serve/scheduler.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>

using namespace vdnn;
using namespace vdnn::bench;
using namespace vdnn::serve;

namespace
{

/** The density stressor: 256 AlexNet / OverFeat tenants, 2 iterations
 *  each, arriving every 0.25 ms onto one device. */
constexpr int kTenants = 256;
constexpr int kIterations = 2;
constexpr TimeNs kArrivalSpacing = kNsPerMs / 4;

std::vector<JobSpec>
denseMix()
{
    std::vector<JobSpec> specs;
    for (int i = 0; i < kTenants; ++i) {
        JobSpec spec;
        spec.name = strFormat("speed-%02d", i);
        spec.network = i % 2 == 0 ? net::buildAlexNet(128)
                                  : net::buildOverFeat(128);
        spec.planner = offloadAllPlanner();
        spec.arrival = TimeNs(i) * kArrivalSpacing;
        spec.iterations = kIterations;
        specs.push_back(std::move(spec));
    }
    return specs;
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
 * `bench_simspeed dense-smoke`: the dense mix run to completion twice — normally and with every resident offered a step
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
        cfg.policy = SchedPolicy::PackedOverlap;
        Scheduler sched(cfg);
        for (JobSpec &spec : denseMix())
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
    std::fprintf(stderr,
                 "usage: %s dense-smoke\n"
                 "(host time is measured by python3 perfbench/run.py)\n",
                 argv[0]);
    return 2;
}
