/**
 * @file
 * Multi-device serving: throughput scaling and rebalance migration.
 *
 * vDNN virtualizes one GPU's memory; the cluster layer pluralizes the
 * device. This bench checks the two headline claims of the
 * multi-device scheduler (gpu/cluster.hh + serve/placement.hh):
 *
 * Scenario A — aggregate-throughput scaling: 16 mixed VGG-16 (64) /
 * AlexNet (128) / OverFeat (128) vDNN_all (m) tenants arrive in a
 * burst and are served by 1, 2 and 4 simulated 12 GB Titan X devices
 * (load-balance placement, round-robin packing per device, rebalance
 * migration smoothing the drain tail). Each device contributes an
 * independent compute engine, pool and PCIe link on one shared
 * clock, so completed iterations per second should scale
 * near-linearly: >= 1.8x at 2 devices and >= 3.2x at 4.
 *
 * Scenario A2 — cluster-native PackedOverlap: the unified serve
 * engine steps each admitted tenant's resumable executor per device,
 * so the bench_overlap_serve overlap workload doubled onto two
 * devices must reach >= 0.95 mean per-device compute utilization —
 * co-tenant compute ops dispatch under every DMA-join stall that
 * leaves round-robin iteration interleave idling.
 *
 * Scenario B — migration on imbalance: the shipped skewed arrival
 * trace (bench/traces/skewed_arrivals.csv, replayed through
 * serve::TraceArrivals) front-loads a burst that static best-fit
 * placement consolidates onto one device while its sibling idles.
 * The rebalance sweep (evict-to-host, then Session::migrate: re-plan
 * and resume on the target) repairs exactly that: best-fit
 * *with* migration — and load-balance placement with migration —
 * must beat static best-fit mean JCT.
 *
 * `bench_cluster smoke` replays the trace on 2 devices to completion
 * and exits (the CI Release smoke stage). `bench_cluster --trace
 * out.json` replays it with telemetry on and writes a Chrome
 * trace-event timeline (chrome://tracing / Perfetto): one process
 * track per device, one thread lane per tenant, migration flow
 * arrows from the source eviction to the target admission.
 */

#include "bench_common.hh"

#include "check/ledger_auditor.hh"
#include "common/units.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/arrival.hh"
#include "serve/placement.hh"
#include "serve/scheduler.hh"

#include <cstring>
#include <iostream>
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

// --- workload construction ---------------------------------------------------

/** "vgg16:64" -> buildVgg16(64); networks cached per label. */
std::shared_ptr<const net::Network>
netForLabel(const std::string &label)
{
    static std::map<std::string, std::shared_ptr<const net::Network>>
        cache;
    auto it = cache.find(label);
    if (it != cache.end())
        return it->second;

    std::size_t colon = label.find(':');
    VDNN_ASSERT(colon != std::string::npos,
                "net label '%s' wants builder:batch", label.c_str());
    std::string builder = label.substr(0, colon);
    std::int64_t batch = std::atoll(label.c_str() + colon + 1);
    std::shared_ptr<const net::Network> net;
    if (builder == "vgg16")
        net = net::buildVgg16(batch);
    else if (builder == "alexnet")
        net = net::buildAlexNet(batch);
    else if (builder == "overfeat")
        net = net::buildOverFeat(batch);
    else if (builder == "googlenet")
        net = net::buildGoogLeNet(batch);
    else
        panic("unknown net builder '%s'", builder.c_str());
    cache.emplace(label, net);
    return net;
}

std::shared_ptr<core::Planner>
plannerForLabel(const std::string &label)
{
    if (label == "vdnn_all")
        return offloadAllPlanner();
    if (label == "vdnn_conv")
        return offloadConvPlanner();
    if (label == "vdnn_dyn")
        return dynamicPlanner();
    if (label == "baseline")
        return baselinePlanner(core::AlgoPreference::MemoryOptimal);
    if (label == "cdma") {
        return std::make_shared<core::CompressedOffloadPlanner>(
            core::AlgoPreference::MemoryOptimal);
    }
    panic("unknown planner label '%s'", label.c_str());
}

std::vector<JobSpec>
jobsFromTrace(const TraceArrivals &trace)
{
    std::vector<JobSpec> specs;
    int i = 0;
    for (const TraceEntry &e : trace.entries()) {
        JobSpec spec;
        spec.name = strFormat("t%02d-%s", i++, e.net.c_str());
        spec.network = netForLabel(e.net);
        spec.planner = plannerForLabel(e.planner);
        spec.priority = e.priority;
        spec.arrival = e.submit;
        spec.iterations = e.iterations;
        specs.push_back(std::move(spec));
    }
    return specs;
}

TraceArrivals
loadSkewedTrace()
{
    TraceArrivals trace = TraceArrivals::load(
        VDNN_SOURCE_DIR "/bench/traces/skewed_arrivals.csv");
    VDNN_ASSERT(trace.ok(), "%s", trace.error().c_str());
    return trace;
}

/** The 16-tenant burst mix of Scenario A. */
std::vector<JobSpec>
burstMix()
{
    const char *nets[] = {"vgg16:64", "alexnet:128", "overfeat:128",
                          "alexnet:128"};
    std::vector<JobSpec> specs;
    for (int i = 0; i < 16; ++i) {
        JobSpec spec;
        spec.name = strFormat("mix-%02d", i);
        spec.network = netForLabel(nets[i % 4]);
        spec.planner = offloadAllPlanner();
        // A dense burst: everyone is queued within the first 150 ms,
        // so every device has tenants for the whole run.
        spec.arrival = TimeNs(i) * 10 * kNsPerMs;
        spec.iterations = 3 + i % 3;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/**
 * Scenario A2's mix: bench_overlap_serve's single-device overlap
 * workload (VGG-16 (64) / AlexNet (128) vDNN_all tenants, two
 * long-running anchors plus a stream of short arrivals) doubled onto
 * two devices. PackedOverlap's sum-of-transients admission keeps ~5
 * tenants resident per device — enough ready co-tenants to fill every
 * DMA-join stall without over-subscribing the per-device PCIe link.
 */
std::vector<JobSpec>
denseMix()
{
    // Submitted in same-shape pairs: count-based load-balance
    // placement alternates devices on a burst, so pairing keeps each
    // device's VGG/AlexNet mix — and total work — identical (a lone
    // VGG-16 imbalance is ~10 AlexNet iterations of skew).
    const char *nets[] = {"vgg16:64", "alexnet:128"};
    std::vector<JobSpec> specs;
    for (int i = 0; i < 16; ++i) {
        int pair = i / 2;
        JobSpec spec;
        spec.name = strFormat("dense-%02d", i);
        spec.network = netForLabel(nets[pair % 2]);
        spec.planner = offloadAllPlanner();
        spec.arrival = TimeNs(i) * 50 * kNsPerMs;
        spec.iterations = pair == 0 ? 8 : 2 + pair % 3;
        specs.push_back(std::move(spec));
    }
    return specs;
}

ServeReport
runScaling(int ndev,
           SchedPolicy policy = SchedPolicy::RoundRobin)
{
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.devices.assign(std::size_t(ndev), gpu::titanXMaxwell());
    cfg.placement = std::make_shared<LoadBalancePlacement>();
    // Placement balances tenant *counts*; per-tenant work still
    // differs (a VGG-16 iteration is ~10x an AlexNet one), so the
    // drain leaves stragglers piled on one device while its siblings
    // idle. The rebalance sweep converts that queue-depth imbalance
    // into migrations, which is what keeps the scaling near-linear.
    cfg.rebalancePeriod = 250 * kNsPerMs;
    cfg.rebalanceThreshold = 2;
    Scheduler sched(cfg);
    for (JobSpec &spec : burstMix())
        sched.submit(std::move(spec));
    return sched.run();
}

ServeReport
runDense(int ndev, SchedPolicy policy)
{
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.devices.assign(std::size_t(ndev), gpu::titanXMaxwell());
    cfg.placement = std::make_shared<LoadBalancePlacement>();
    Scheduler sched(cfg);
    for (JobSpec &spec : denseMix())
        sched.submit(std::move(spec));
    return sched.run();
}

ServeReport
runTrace(std::shared_ptr<PlacementPolicy> placement, bool rebalance,
         int ndev = 2)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.devices.assign(std::size_t(ndev), gpu::titanXMaxwell());
    cfg.placement = std::move(placement);
    if (rebalance) {
        cfg.rebalancePeriod = 100 * kNsPerMs;
        cfg.rebalanceThreshold = 2;
    }
    Scheduler sched(cfg);
    for (JobSpec &spec : jobsFromTrace(loadSkewedTrace()))
        sched.submit(std::move(spec));
    return sched.run();
}

int
totalMigrations(const ServeReport &rep)
{
    int n = 0;
    for (const JobOutcome &j : rep.jobs)
        n += j.migrations;
    return n;
}

// --- scenario A: throughput scaling ------------------------------------------

void
scenarioA()
{
    ServeReport one = runScaling(1);
    ServeReport two = runScaling(2);
    ServeReport four = runScaling(4);
    // Cluster-native PackedOverlap: the unified engine steps each
    // tenant's resumable executor per device, so whenever a tenant
    // blocks on a DMA join the next ready co-tenant's compute op
    // dispatches under it — the round-robin iteration interleave
    // above leaves each device idle for exactly those joins.
    ServeReport two_packed =
        runScaling(2, SchedPolicy::PackedOverlap);
    ServeReport four_packed =
        runScaling(4, SchedPolicy::PackedOverlap);

    double t1 = one.aggregateThroughput();
    double t2 = two.aggregateThroughput();
    double t4 = four.aggregateThroughput();

    stats::Table table("Scenario A: 16 mixed vDNN_all tenants on 1/2/4 "
                       "x 12 GB Titan X (load-balance placement + "
                       "rebalance migration)");
    table.setColumns({"config", "finished", "makespan (s)",
                      "throughput (iters/s)", "scaling",
                      "mean JCT (s)", "compute util"});
    struct Row
    {
        const char *label;
        const ServeReport *rep;
        double thru;
    };
    const Row rows[] = {
        {"1 dev, round-robin", &one, t1},
        {"2 dev, round-robin", &two, t2},
        {"4 dev, round-robin", &four, t4},
        {"2 dev, packed-overlap", &two_packed,
         two_packed.aggregateThroughput()},
        {"4 dev, packed-overlap", &four_packed,
         four_packed.aggregateThroughput()}};
    for (const Row &r : rows) {
        table.addRow(
            {r.label, stats::Table::cellInt(r.rep->finishedCount()),
             stats::Table::cell(toSeconds(r.rep->makespan), 1),
             stats::Table::cell(r.thru, 2),
             stats::Table::cell(r.thru / t1, 2),
             stats::Table::cell(toSeconds(r.rep->meanJct()), 1),
             stats::Table::cell(r.rep->computeUtilization(), 3)});
    }
    table.print();

    stats::Comparison cmp("Multi-device aggregate-throughput scaling");
    cmp.addBool("every tenant finishes on every cluster size", true,
                one.finishedCount() == 16 && two.finishedCount() == 16 &&
                    four.finishedCount() == 16);
    cmp.addNumeric("2-device scaling (want >= 1.8x)", 2.0, t2 / t1,
                   0.10);
    cmp.addNumeric("4-device scaling (want >= 3.2x)", 4.0, t4 / t1,
                   0.20);
    cmp.addBool("per-device ledgers balance to zero", true,
                one.reservedBytesAtEnd == 0 &&
                    two.reservedBytesAtEnd == 0 &&
                    four.reservedBytesAtEnd == 0);
    cmp.addBool("packed-overlap drains the burst on every cluster "
                "size",
                true,
                two_packed.finishedCount() == 16 &&
                    four_packed.finishedCount() == 16);
    cmp.addBool("packing beats iteration interleave on mean JCT at "
                "every size",
                true,
                two_packed.meanJct() < two.meanJct() &&
                    four_packed.meanJct() < four.meanJct());
    cmp.print();

    recordServeMetrics("scaling.1dev", one);
    recordServeMetrics("scaling.2dev", two);
    recordServeMetrics("scaling.4dev", four);
    recordServeMetrics("scaling.2dev_packed", two_packed);
    recordServeMetrics("scaling.4dev_packed", four_packed);
    recordBenchMetric("scaling.2dev.speedup", t2 / t1);
    recordBenchMetric("scaling.4dev.speedup", t4 / t1);
}

// --- scenario A2: packed density = utilization -------------------------------

void
scenarioA2()
{
    ServeReport rr = runDense(2, SchedPolicy::RoundRobin);
    ServeReport packed = runDense(2, SchedPolicy::PackedOverlap);

    stats::Table table("Scenario A2: 16 VGG-16/AlexNet vDNN_all "
                       "tenants on 2 x 12 GB Titan X (work-balanced "
                       "paired placement)");
    table.setColumns({"config", "finished", "makespan (s)",
                      "throughput (iters/s)", "mean JCT (s)",
                      "compute util"});
    struct Row
    {
        const char *label;
        const ServeReport *rep;
    };
    const Row rows[] = {{"round-robin interleave", &rr},
                        {"packed-overlap", &packed}};
    for (const Row &r : rows) {
        table.addRow(
            {r.label, stats::Table::cellInt(r.rep->finishedCount()),
             stats::Table::cell(toSeconds(r.rep->makespan), 1),
             stats::Table::cell(r.rep->aggregateThroughput(), 2),
             stats::Table::cell(toSeconds(r.rep->meanJct()), 1),
             stats::Table::cell(r.rep->computeUtilization(), 3)});
    }
    table.print();

    stats::Comparison cmp("Cluster-native PackedOverlap utilization");
    cmp.addBool("every dense tenant finishes under both policies",
                true,
                rr.finishedCount() == int(rr.jobs.size()) &&
                    packed.finishedCount() == int(packed.jobs.size()));
    cmp.addNumeric("packed 2-device compute util (want >= 0.95)", 1.0,
                   packed.computeUtilization(), 0.05);
    cmp.addBool("packing lifts util over iteration interleave", true,
                packed.computeUtilization() >
                    rr.computeUtilization());
    cmp.addBool("ledgers balance to zero", true,
                packed.reservedBytesAtEnd == 0 &&
                    packed.evictedLedgerAtEnd == 0 &&
                    rr.reservedBytesAtEnd == 0 &&
                    rr.evictedLedgerAtEnd == 0);
    cmp.print();

    recordServeMetrics("dense.2dev_rr", rr);
    recordServeMetrics("dense.2dev_packed", packed);
}

// --- scenario B: migration on imbalance --------------------------------------

void
scenarioB()
{
    ServeReport best = runTrace(std::make_shared<BestFitPlacement>(),
                                /*rebalance=*/false);
    ServeReport best_mig = runTrace(std::make_shared<BestFitPlacement>(),
                                    /*rebalance=*/true);
    ServeReport lb_mig =
        runTrace(std::make_shared<LoadBalancePlacement>(),
                 /*rebalance=*/true);

    stats::Table table("Scenario B: skewed arrival trace "
                       "(bench/traces/skewed_arrivals.csv) on 2 x 12 GB "
                       "Titan X");
    table.setColumns({"config", "finished", "mean JCT (s)",
                      "p99 JCT (s)", "makespan (s)", "migrations",
                      "dev0/dev1 placed"});
    struct Row
    {
        const char *label;
        const ServeReport *rep;
    };
    const Row rows[] = {{"best-fit, static", &best},
                        {"best-fit + rebalance", &best_mig},
                        {"load-balance + rebalance", &lb_mig}};
    for (const Row &r : rows) {
        table.addRow(
            {r.label, stats::Table::cellInt(r.rep->finishedCount()),
             stats::Table::cell(toSeconds(r.rep->meanJct()), 1),
             stats::Table::cell(toSeconds(r.rep->p99Jct()), 1),
             stats::Table::cell(toSeconds(r.rep->makespan), 1),
             stats::Table::cellInt(totalMigrations(*r.rep)),
             strFormat("%d/%d", r.rep->devices[0].jobsPlaced,
                       r.rep->devices[1].jobsPlaced)});
    }
    table.print();

    stats::Comparison cmp("Migration on imbalance (Gandiva-style)");
    cmp.addBool("every trace job finishes in every config", true,
                best.finishedCount() == int(best.jobs.size()) &&
                    best_mig.finishedCount() == int(best.jobs.size()) &&
                    lb_mig.finishedCount() == int(best.jobs.size()));
    cmp.addBool("static best-fit consolidates the burst onto one "
                "device",
                true,
                best.devices[0].jobsPlaced == int(best.jobs.size()) ||
                    best.devices[1].jobsPlaced ==
                        int(best.jobs.size()));
    cmp.addBool("the rebalance sweep migrates tenants", true,
                totalMigrations(best_mig) > 0);
    cmp.addBool("best-fit + migration beats static best-fit mean JCT",
                true, best_mig.meanJct() < best.meanJct());
    cmp.addBool("load-balance + migration beats static best-fit mean "
                "JCT",
                true, lb_mig.meanJct() < best.meanJct());
    cmp.addBool("ledgers balance to zero after migrations", true,
                best_mig.reservedBytesAtEnd == 0 &&
                    best_mig.evictedLedgerAtEnd == 0 &&
                    lb_mig.reservedBytesAtEnd == 0 &&
                    lb_mig.evictedLedgerAtEnd == 0);
    cmp.print();

    recordServeMetrics("skewed.bestfit", best);
    recordServeMetrics("skewed.bestfit_rebalance", best_mig);
    recordBenchMetric("skewed.bestfit_rebalance.migrations",
                      double(totalMigrations(best_mig)));
}

void
report()
{
    scenarioA();
    std::printf("\n");
    scenarioA2();
    std::printf("\n");
    scenarioB();
}

int
traceMode(const char *path)
{
    // The migration-rich Scenario B config with telemetry on: every
    // kernel, DMA, iteration, arbiter grant and scheduler decision
    // lands on the timeline; rebalance migrations draw flow arrows.
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.devices.assign(2, gpu::titanXMaxwell());
    cfg.placement = std::make_shared<BestFitPlacement>();
    cfg.rebalancePeriod = 100 * kNsPerMs;
    cfg.rebalanceThreshold = 2;
    cfg.telemetry.trace = &trace;
    cfg.telemetry.metrics = &metrics;
    Scheduler sched(cfg);
    for (JobSpec &spec : jobsFromTrace(loadSkewedTrace()))
        sched.submit(std::move(spec));
    ServeReport rep = sched.run();

    if (!trace.writeJsonFile(path)) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::printf("wrote %zu trace events to %s (%d jobs finished, %d "
                "migrations)\n",
                trace.eventCount(), path, rep.finishedCount(),
                totalMigrations(rep));
    metrics.writeSnapshot(std::cout, sched.device(0).now());
    return rep.finishedCount() == int(rep.jobs.size()) ? 0 : 1;
}

int
smoke()
{
    // The trace replayed on 2 devices with migration, run to
    // completion (the CI Release smoke stage).
    ServeReport rep = runTrace(std::make_shared<BestFitPlacement>(),
                               /*rebalance=*/true);
    rep.summaryTable().print();
    rep.deviceTable().print();
    check::CheckResult audit = check::auditLedger(rep);
    if (!audit.ok())
        std::printf("ledger audit:\n%s", audit.report().c_str());
    bool ok = rep.finishedCount() == int(rep.jobs.size()) &&
              rep.reservedBytesAtEnd == 0 &&
              rep.evictedLedgerAtEnd == 0 &&
              totalMigrations(rep) > 0 && audit.ok();
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
    if (argc > 2 && std::strcmp(argv[1], "--trace") == 0) {
        setQuiet(true);
        return traceMode(argv[2]);
    }
    registerSim("cluster/16_tenants_2dev_loadbalance",
                [] { runScaling(2); });
    registerSim("cluster/16_tenants_2dev_packed_overlap",
                [] { runDense(2, SchedPolicy::PackedOverlap); });
    registerSim("cluster/skewed_trace_bestfit_rebalance", [] {
        runTrace(std::make_shared<BestFitPlacement>(), true);
    });
    return benchMain(argc, argv, report);
}
