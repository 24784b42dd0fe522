/**
 * @file
 * Scenario-generator driver: the serving workloads that prove the
 * event-driven cluster loop at scale.
 *
 * Runs the four ScenarioGenerator shapes (diurnal, bursty,
 * admission-thrash, priority-inversion) on their target clusters and
 * prints one row per scenario: completion counts, makespan, mean JCT,
 * SLO attainment and the serve-loop accounting (wakeups, fruitless
 * polls, idle advances). Every run is audited by check::auditLedger —
 * a generated workload that corrupts the admission ledger fails the
 * bench, not just a unit test.
 *
 * `bench_scenario smoke` runs shrunken adversarial scenarios only
 * (admission-thrash + priority-inversion) and exits: the CI sanitizer
 * job uses it to put generated preemption/eviction/migration traffic
 * under ASan without paying for the full-size runs.
 */

#include "bench_common.hh"

#include "check/ledger_auditor.hh"
#include "serve/placement.hh"
#include "serve/scenario_gen.hh"
#include "serve/scheduler.hh"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace vdnn;
using namespace vdnn::bench;
using namespace vdnn::serve;

namespace
{

struct ScenarioResult
{
    ScenarioConfig cfg;
    ServeReport rep;
};

ScenarioResult
runScenario(const ScenarioConfig &sc)
{
    ScenarioGenerator gen(sc);
    GeneratedScenario workload = gen.generate();

    SchedulerConfig cfg;
    cfg.policy = workload.policy;
    cfg.devices = workload.devices;
    if (workload.devices.size() > 1) {
        cfg.placement = std::make_shared<LoadBalancePlacement>();
        cfg.rebalancePeriod = 50 * kNsPerMs;
        cfg.rebalanceThreshold = 2;
    }
    Scheduler sched(cfg);
    for (JobSpec &spec : workload.jobs)
        sched.submit(std::move(spec));

    ScenarioResult out;
    out.cfg = sc;
    out.rep = sched.run();

    check::CheckResult audit = check::auditLedger(out.rep);
    VDNN_ASSERT(audit.ok(), "scenario %s: ledger audit failed:\n%s",
                scenarioKindName(sc.kind), audit.report().c_str());
    return out;
}

std::vector<ScenarioConfig>
fullConfigs()
{
    // Diurnal/bursty arrive near the cluster's service rate (the
    // production regime: ~29 s of aggregate work over 6 devices), so
    // attainment measures how the loop rides load swings. The
    // adversarial shapes keep their compressed horizons — sustained
    // overload is their point, and their attainment is *expected* low.
    ScenarioConfig diurnal;
    diurnal.kind = ScenarioKind::Diurnal;
    diurnal.seed = 11;
    diurnal.tenants = 96;
    diurnal.devices = 6;
    diurnal.horizon = 40 * kNsPerSec;

    ScenarioConfig bursty;
    bursty.kind = ScenarioKind::Bursty;
    bursty.seed = 22;
    bursty.tenants = 96;
    bursty.devices = 6;
    bursty.horizon = 30 * kNsPerSec;

    ScenarioConfig thrash;
    thrash.kind = ScenarioKind::AdmissionThrash;
    thrash.seed = 33;
    thrash.tenants = 48;
    thrash.devices = 4;

    ScenarioConfig inversion;
    inversion.kind = ScenarioKind::PriorityInversion;
    inversion.seed = 44;
    inversion.tenants = 24;
    inversion.horizon = 20 * kNsPerSec;

    return {diurnal, bursty, thrash, inversion};
}

std::vector<ScenarioConfig>
smokeConfigs()
{
    // Adversarial shapes only, shrunk for the sanitizer job: enough
    // tenants that admission churn, preemption and aged readmission
    // all fire, small enough that ASan finishes in seconds.
    ScenarioConfig thrash;
    thrash.kind = ScenarioKind::AdmissionThrash;
    thrash.seed = 7;
    thrash.tenants = 12;
    thrash.devices = 2;
    thrash.horizon = kNsPerSec / 2;

    ScenarioConfig inversion;
    inversion.kind = ScenarioKind::PriorityInversion;
    inversion.seed = 7;
    inversion.tenants = 9;
    inversion.horizon = kNsPerSec / 2;

    return {thrash, inversion};
}

/** Metric key prefix: "scenario.admission_thrash" etc. */
std::string
metricPrefix(ScenarioKind kind)
{
    std::string key = scenarioKindName(kind);
    for (char &c : key) {
        if (c == '-')
            c = '_';
    }
    return "scenario." + key;
}

void
printResults(const std::vector<ScenarioResult> &results)
{
    stats::Table table("Generated serving scenarios");
    table.setColumns({"scenario", "tenants", "devices", "finished",
                      "failed", "rejected", "makespan (ms)",
                      "mean JCT (ms)", "SLO attain", "wakeups",
                      "fruitless", "idle adv"});
    for (const ScenarioResult &r : results) {
        table.addRow(
            {scenarioKindName(r.cfg.kind),
             stats::Table::cellInt(r.cfg.tenants),
             stats::Table::cellInt(r.rep.deviceCount),
             stats::Table::cellInt(r.rep.finishedCount()),
             stats::Table::cellInt(r.rep.failedCount()),
             stats::Table::cellInt(r.rep.rejectedCount()),
             stats::Table::cell(toMs(r.rep.makespan), 1),
             stats::Table::cell(toMs(r.rep.meanJct()), 1),
             strFormat("%d/%d (%.0f%%)", r.rep.sloMet(),
                       r.rep.sloEligible(),
                       r.rep.sloAttainment() * 100.0),
             stats::Table::cellInt((long long)r.rep.loopWakeups),
             stats::Table::cellInt((long long)r.rep.loopFruitlessPolls),
             stats::Table::cellInt((long long)r.rep.loopIdleAdvances)});
    }
    table.print();
}

void
report()
{
    std::vector<ScenarioResult> results;
    for (const ScenarioConfig &sc : fullConfigs())
        results.push_back(runScenario(sc));

    printResults(results);
    std::printf("ledger audit: clean on all %zu scenarios\n",
                results.size());

    for (const ScenarioResult &r : results) {
        std::string prefix = metricPrefix(r.cfg.kind);
        recordBenchMetric(prefix + ".slo_attainment",
                          r.rep.sloAttainment());
        recordBenchMetric(prefix + ".wakeups",
                          double(r.rep.loopWakeups));
        recordBenchMetric(prefix + ".fruitless_polls",
                          double(r.rep.loopFruitlessPolls));
        recordServeMetrics(prefix, r.rep);
    }
}

int
smoke()
{
    std::vector<ScenarioResult> results;
    for (const ScenarioConfig &sc : smokeConfigs())
        results.push_back(runScenario(sc));
    printResults(results);
    for (const ScenarioResult &r : results) {
        VDNN_ASSERT(r.rep.finishedCount() + r.rep.failedCount() +
                            r.rep.rejectedCount() ==
                        int(r.rep.jobs.size()),
                    "smoke scenario %s left jobs unresolved",
                    scenarioKindName(r.cfg.kind));
    }
    std::printf("smoke: ledger audit clean on %zu adversarial "
                "scenarios\n",
                results.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "smoke") == 0)
        return smoke();

    registerSim("scenario/diurnal_96t_6dev",
                [] { runScenario(fullConfigs()[0]); });
    registerSim("scenario/admission_thrash_48t_4dev",
                [] { runScenario(fullConfigs()[2]); });
    return benchMain(argc, argv, report);
}
