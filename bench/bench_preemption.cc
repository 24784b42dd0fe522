/**
 * @file
 * Preemptive priorities over the tenant lifecycle state machine.
 *
 * Without preemption, an important arrival waits behind whatever the
 * packing scheduler already admitted: its JCT is hostage to the
 * low-priority mix. SchedPolicy::PreemptivePriority instead parks
 * victims (the scheduler's Suspended state) and evicts them through
 * Session::evictToHost() — releasing their *entire* device share
 * over PCIe — admits the arrival at once, and resumes the victims
 * (re-planning against the then-current free share) when it leaves.
 *
 * Scenario A — 8 mixed VGG-16 (64) / AlexNet (128) vDNN_all (m)
 * low-priority tenants resident on one 12 GB Titan X, plus three
 * short high-priority jobs arriving mid-run. Claims checked:
 *  - every job finishes under preemptive-priority;
 *  - high-priority mean and p95 JCT beat RoundRobin and PackedOverlap;
 *  - the high-priority arrivals reach first-iteration dispatch;
 *  - the admission ledger balances to zero after the drain;
 *  - the non-preempted tenants' iteration outputs (offload traffic,
 *    iteration counts) are byte-identical to a run without the
 *    high-priority arrivals.
 *
 * Scenario B — JCT recovery from grow-back: a vDNN_dyn tenant
 * admitted beside a Baseline hog derives a squeezed, offload-heavy
 * plan; when the hog exits, the preemptive scheduler's re-plan sweep
 * lets it swap to the no-offload ideal at an iteration boundary
 * (ReplanHint::InPlace), recovering JCT versus a scheduler with no
 * sweep.
 *
 * `bench_preemption smoke` runs a downsized Scenario A to completion
 * and exits (the CI Release smoke stage).
 */

#include "bench_common.hh"

#include "check/ledger_auditor.hh"
#include "common/units.hh"
#include "serve/scheduler.hh"


#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace vdnn;
using namespace vdnn::bench;
using namespace vdnn::literals;
using namespace vdnn::serve;

namespace
{

constexpr int kLowPriorityJobs = 8;
constexpr int kHighPriorityJobs = 3;
constexpr int kHighPriority = 10;

std::vector<JobSpec>
lowPriorityMix(int njobs, int base_iters)
{
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);
    std::shared_ptr<const net::Network> alex = net::buildAlexNet(128);
    std::vector<JobSpec> specs;
    for (int i = 0; i < njobs; ++i) {
        JobSpec spec;
        bool is_vgg = i % 2 == 0;
        spec.name = strFormat(is_vgg ? "vgg-%d" : "alex-%d", i);
        spec.network = is_vgg ? vgg : alex;
        spec.planner = offloadAllPlanner();
        spec.priority = 0;
        spec.arrival = TimeNs(i) * 50 * kNsPerMs;
        spec.iterations = base_iters + i % 3;
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::vector<JobSpec>
highPriorityArrivals(int njobs, int iterations)
{
    // Urgent Baseline tenants: their network-wide allocation cannot
    // fit beside the full resident mix, so admitting one *requires*
    // evicting some low-priority incumbents (batch 32 keeps the
    // reservation mid-sized: a few victims, not the whole mix).
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(32);
    std::vector<JobSpec> specs;
    for (int i = 0; i < njobs; ++i) {
        JobSpec spec;
        spec.name = strFormat("urgent-%d", i);
        spec.network = vgg;
        spec.planner = baselinePlanner();
        spec.priority = kHighPriority;
        spec.arrival = (400 + TimeNs(i) * 700) * kNsPerMs;
        spec.iterations = iterations;
        specs.push_back(std::move(spec));
    }
    return specs;
}

ServeReport
runMix(SchedPolicy policy, bool with_high, int low_iters = 4,
       int high_iters = 2, int low_jobs = kLowPriorityJobs,
       int high_jobs = kHighPriorityJobs)
{
    SchedulerConfig cfg;
    cfg.policy = policy;
    Scheduler sched(cfg);
    for (JobSpec &spec : lowPriorityMix(low_jobs, low_iters))
        sched.submit(std::move(spec));
    if (with_high) {
        for (JobSpec &spec : highPriorityArrivals(high_jobs, high_iters))
            sched.submit(std::move(spec));
    }
    return sched.run();
}

int
totalJobs(bool with_high)
{
    return kLowPriorityJobs + (with_high ? kHighPriorityJobs : 0);
}

void
scenarioA()
{
    const std::vector<std::pair<const char *, SchedPolicy>> grid = {
        {"round-robin", SchedPolicy::RoundRobin},
        {"packed-overlap", SchedPolicy::PackedOverlap},
        {"preemptive-priority", SchedPolicy::PreemptivePriority},
    };

    stats::Table table(strFormat(
        "Preemptive priorities: %d low-priority VGG-16/AlexNet "
        "vDNN_all (m) tenants + %d high-priority arrivals on a 12 GB "
        "Titan X",
        kLowPriorityJobs, kHighPriorityJobs));
    table.setColumns({"scheduler", "finished", "hi mean JCT (s)",
                      "hi p95 JCT (s)", "hi first dispatch (s)",
                      "low mean JCT (s)", "makespan (s)", "preempts",
                      "ledger (B)"});

    std::map<SchedPolicy, ServeReport> reports;
    for (const auto &[label, policy] : grid) {
        ServeReport rep = runMix(policy, /*with_high=*/true);
        int preempts = 0;
        TimeNs first_dispatch_delay = 0;
        int hi_seen = 0;
        for (const JobOutcome &j : rep.jobs) {
            preempts += j.preemptions;
            if (j.priority == kHighPriority &&
                j.firstDispatchTime != kTimeNone) {
                first_dispatch_delay += j.firstDispatchTime - j.arrival;
                ++hi_seen;
            }
        }
        table.addRow(
            {label, stats::Table::cellInt(rep.finishedCount()),
             stats::Table::cell(
                 toSeconds(rep.meanJctAtPriority(kHighPriority)), 2),
             stats::Table::cell(
                 toSeconds(rep.p95JctAtPriority(kHighPriority)), 2),
             hi_seen > 0 ? stats::Table::cell(
                               toSeconds(first_dispatch_delay / hi_seen),
                               2)
                         : std::string("-"),
             stats::Table::cell(toSeconds(rep.meanJctAtPriority(0)), 2),
             stats::Table::cell(toSeconds(rep.makespan), 2),
             stats::Table::cellInt(preempts),
             strFormat("%lld", (long long)rep.reservedBytesAtEnd)});
        reports.emplace(policy, std::move(rep));
    }
    table.print();

    const ServeReport &rr = reports.at(SchedPolicy::RoundRobin);
    const ServeReport &packed = reports.at(SchedPolicy::PackedOverlap);
    const ServeReport &pp =
        reports.at(SchedPolicy::PreemptivePriority);

    // Byte-identity of the non-preempted tenants: the same preemptive
    // run without the high-priority arrivals must move exactly the
    // same offload traffic through every low-priority tenant.
    ServeReport baseline_run =
        runMix(SchedPolicy::PreemptivePriority, /*with_high=*/false);
    bool outputs_identical = true;
    int untouched = 0;
    for (int i = 0; i < kLowPriorityJobs; ++i) {
        const JobOutcome &with = pp.jobs[std::size_t(i)];
        const JobOutcome &without = baseline_run.jobs[std::size_t(i)];
        if (with.preemptions > 0)
            continue; // preempted tenants re-ran a cancelled iteration
        ++untouched;
        outputs_identical = outputs_identical &&
                            with.iterations == without.iterations &&
                            with.offloadedBytes ==
                                without.offloadedBytes &&
                            with.persistentBytes ==
                                without.persistentBytes;
    }
    int total_preemptions = 0;
    for (const JobOutcome &j : pp.jobs)
        total_preemptions += j.preemptions;

    bool hi_dispatched = true;
    for (const JobOutcome &j : pp.jobs) {
        if (j.priority == kHighPriority)
            hi_dispatched =
                hi_dispatched && j.firstDispatchTime != kTimeNone;
    }

    stats::Comparison cmp("Preemptive priority (suspend/evict/resume)");
    cmp.addBool("every job finishes under preemptive-priority", true,
                pp.finishedCount() == totalJobs(true));
    cmp.addBool("high-priority arrivals reach first dispatch", true,
                hi_dispatched);
    cmp.addBool("high-priority mean JCT below round-robin", true,
                pp.meanJctAtPriority(kHighPriority) <
                    rr.meanJctAtPriority(kHighPriority));
    cmp.addBool("high-priority mean JCT below packed-overlap", true,
                pp.meanJctAtPriority(kHighPriority) <
                    packed.meanJctAtPriority(kHighPriority));
    cmp.addBool("high-priority p95 JCT below round-robin", true,
                pp.p95JctAtPriority(kHighPriority) <
                    rr.p95JctAtPriority(kHighPriority));
    cmp.addBool("admission ledger balances to zero after drain", true,
                pp.reservedBytesAtEnd == 0 &&
                    pp.evictedLedgerAtEnd == 0);
    cmp.addBool("admitting the urgent tenants required preemption",
                true, total_preemptions > 0);
    cmp.addBool("non-preempted tenants' outputs byte-identical to a "
                "run without the arrival",
                true, outputs_identical && untouched > 0);
    cmp.addInfo("high-priority mean JCT reduction vs round-robin",
                "large (preemption removes the queueing)",
                strFormat("%.1fx",
                          toSeconds(rr.meanJctAtPriority(kHighPriority)) /
                              toSeconds(pp.meanJctAtPriority(
                                  kHighPriority))));
    cmp.print();
}

void
scenarioB()
{
    // JCT recovery from grow-back: a vDNN_dyn tenant planned against
    // a hog-squeezed share, with and without the re-plan sweep.
    auto runDyn = [](SchedPolicy policy) {
        SchedulerConfig cfg;
        cfg.policy = policy;
        // An 11 GiB device: the Baseline hog fits beside the
        // vDNN_dyn tenant's floor, but squeezes its free share
        // enough that the derived plan must offload.
        cfg.devices[0].dramCapacity = 11_GiB;
        Scheduler sched(cfg);

        JobSpec hog;
        hog.name = "hog";
        hog.network = net::buildVgg16(64);
        hog.planner = baselinePlanner();
        hog.iterations = 2;
        sched.submit(std::move(hog));

        JobSpec dyn;
        dyn.name = "dyn";
        dyn.network = net::buildVgg16(64);
        dyn.planner = dynamicPlanner();
        dyn.arrival = 1 * kNsPerMs;
        dyn.iterations = 8;
        JobId dyn_id = sched.submit(std::move(dyn));

        ServeReport rep = sched.run();
        return std::make_pair(rep, dyn_id);
    };

    auto [rr, rr_dyn] = runDyn(SchedPolicy::RoundRobin);
    auto [pp, pp_dyn] = runDyn(SchedPolicy::PreemptivePriority);
    const JobOutcome &rr_out = rr.jobs[std::size_t(rr_dyn)];
    const JobOutcome &pp_out = pp.jobs[std::size_t(pp_dyn)];

    stats::Table table("Grow-back after co-tenant exit: vDNN_dyn "
                       "tenant beside a Baseline VGG-16 (64) hog "
                       "on an 11 GiB device");
    table.setColumns({"scheduler", "dyn JCT (s)", "dyn replans",
                      "dyn offloaded (GiB)"});
    table.addRow({"round-robin (no sweep)",
                  stats::Table::cell(toSeconds(rr_out.completionTime), 2),
                  stats::Table::cellInt(rr_out.replans),
                  stats::Table::cell(toGiB(rr_out.offloadedBytes), 2)});
    table.addRow({"preemptive-priority (re-plan sweep)",
                  stats::Table::cell(toSeconds(pp_out.completionTime), 2),
                  stats::Table::cellInt(pp_out.replans),
                  stats::Table::cell(toGiB(pp_out.offloadedBytes), 2)});
    table.print();

    stats::Comparison cmp("Mid-run re-planning (grow-back)");
    cmp.addBool("both schedulers finish the pair", true,
                rr.finishedCount() == 2 && pp.finishedCount() == 2);
    cmp.addBool("re-plan sweep fires after the hog exits", true,
                pp_out.replans >= 1);
    cmp.addBool("grown-back tenant moves less offload traffic", true,
                pp_out.offloadedBytes < rr_out.offloadedBytes);
    cmp.addBool("grow-back recovers JCT", true,
                pp_out.completionTime <= rr_out.completionTime);
    cmp.print();
}

void
report()
{
    scenarioA();
    std::printf("\n");
    scenarioB();
}

int
smoke()
{
    // Downsized Scenario A run to completion: 4 low-priority tenants,
    // one high-priority arrival, short budgets.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PreemptivePriority;
    Scheduler sched(cfg);
    for (JobSpec &spec : lowPriorityMix(4, 2))
        sched.submit(std::move(spec));
    for (JobSpec &spec : highPriorityArrivals(1, 1))
        sched.submit(std::move(spec));
    ServeReport rep = sched.run();
    rep.summaryTable().print();
    check::CheckResult audit = check::auditLedger(rep);
    if (!audit.ok())
        std::printf("ledger audit:\n%s", audit.report().c_str());
    bool ok = rep.finishedCount() == 5 && rep.reservedBytesAtEnd == 0 &&
              rep.evictedLedgerAtEnd == 0 && audit.ok();
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) {
        setQuiet(true);
        return smoke();
    }
    registerSim("preemption/mixed8_plus_high_priority",
                [] { runMix(SchedPolicy::PreemptivePriority, true); });
    return benchMain(argc, argv, report);
}
