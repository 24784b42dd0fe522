/**
 * @file
 * Multi-tenant serving demo: pack a queue of VGG-16 training jobs
 * onto one simulated 12 GB Titan X and compare scheduling/memory
 * policies.
 *
 * The status quo (FIFO-exclusive, baseline allocator) runs one job at
 * a time with head-of-line blocking. vDNN's reduced residency lets
 * the round-robin scheduler admit several tenants at once: queueing
 * delay collapses and short jobs stop waiting behind long ones.
 *
 * The final configuration demos mixed-priority arrivals under
 * SchedPolicy::PreemptivePriority: every third job is submitted as
 * high priority, runs ahead of the low-priority mix, and preempts
 * incumbents (suspend -> evict -> resume) when admission is tight —
 * watch the `prio`/`preempt` columns and the high-priority JCTs.
 *
 * With `--devices N` (N >= 2) the same workload is served by an
 * N-device cluster instead: round-robin packing per device, jobs
 * routed by the three placement policies, and — for the final
 * configuration — the periodic rebalance sweep migrating tenants off
 * the most-loaded device (watch the `dev` column and the per-device
 * table's `migr in`/`migr out`).
 *
 * Usage: serve_cluster [njobs] [batch] [--devices N]
 */

#include "common/logging.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "core/planner.hh"
#include "net/builders.hh"
#include "serve/arrival.hh"
#include "serve/scheduler.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>

using namespace vdnn;
using namespace vdnn::serve;

namespace
{

using PlannerFactory = std::function<std::shared_ptr<core::Planner>()>;

PlannerFactory
baselineM()
{
    return [] {
        return std::make_shared<core::BaselinePlanner>(
            core::AlgoPreference::MemoryOptimal);
    };
}

PlannerFactory
offloadAllM()
{
    return [] {
        return std::make_shared<core::OffloadAllPlanner>(
            core::AlgoPreference::MemoryOptimal);
    };
}

ServeReport
runCluster(const std::shared_ptr<const net::Network> &network,
           int njobs, SchedPolicy sched, const PlannerFactory &planner,
           bool mixed_priorities = false)
{
    SchedulerConfig cfg;
    cfg.policy = sched;

    Scheduler scheduler(cfg);

    // The same deterministic workload for every configuration:
    // Poisson arrivals (2 jobs/s) and budgets mixing short fine-tune
    // jobs with longer training runs. In the mixed-priority demo
    // every third job is urgent.
    SplitMix64 rng(42);
    std::vector<TimeNs> arrivals = poissonArrivals(njobs, 2.0, rng);
    for (int i = 0; i < njobs; ++i) {
        JobSpec spec;
        bool urgent = mixed_priorities && i % 3 == 2;
        spec.name = strFormat(urgent ? "urgent-%d" : "vgg16-%d", i);
        spec.network = network;
        spec.planner = planner();
        spec.priority = urgent ? 10 : 0;
        spec.arrival = arrivals[std::size_t(i)];
        spec.iterations = int(1 + rng.nextRange(1, 7));
        scheduler.submit(std::move(spec));
    }
    return scheduler.run();
}

ServeReport
runMultiDevice(const std::shared_ptr<const net::Network> &network,
               int njobs, int ndev,
               std::shared_ptr<PlacementPolicy> placement,
               const PlannerFactory &planner, bool rebalance)
{
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.devices.assign(std::size_t(ndev), gpu::titanXMaxwell());
    cfg.placement = std::move(placement);
    if (rebalance) {
        cfg.rebalancePeriod = 100 * kNsPerMs;
        cfg.rebalanceThreshold = 2;
    }
    Scheduler scheduler(cfg);

    SplitMix64 rng(42);
    std::vector<TimeNs> arrivals = poissonArrivals(njobs, 2.0, rng);
    for (int i = 0; i < njobs; ++i) {
        JobSpec spec;
        spec.name = strFormat("vgg16-%d", i);
        spec.network = network;
        spec.planner = planner();
        spec.arrival = arrivals[std::size_t(i)];
        spec.iterations = int(1 + rng.nextRange(1, 7));
        scheduler.submit(std::move(spec));
    }
    return scheduler.run();
}

int
mainMultiDevice(int njobs, std::int64_t batch, int ndev)
{
    std::shared_ptr<const net::Network> network =
        net::buildVgg16(batch);
    std::printf("workload: %d x %s training jobs, Poisson arrivals, "
                "served by %d devices\n\n",
                njobs, network->name().c_str(), ndev);

    struct Config
    {
        const char *label;
        std::shared_ptr<PlacementPolicy> placement;
        bool rebalance;
    };
    const Config configs[] = {
        {"best-fit placement (static)",
         std::make_shared<BestFitPlacement>(), false},
        {"round-robin placement (static)",
         std::make_shared<RoundRobinPlacement>(), false},
        {"load-balance placement (static)",
         std::make_shared<LoadBalancePlacement>(), false},
        {"load-balance placement + rebalance migration",
         std::make_shared<LoadBalancePlacement>(), true},
    };
    for (const Config &c : configs) {
        ServeReport rep = runMultiDevice(network, njobs, ndev,
                                         c.placement, offloadAllM(),
                                         c.rebalance);
        std::printf("=== %s ===\n", c.label);
        rep.summaryTable().print();
        rep.deviceTable().print();
        rep.jobTable().print();
        std::printf("aggregate throughput %.2f iters/s\n\n",
                    rep.aggregateThroughput());
    }
    std::printf("placement chooses the device, the rebalance sweep\n"
                "corrects it: migrations (evict-to-host -> re-plan\n"
                "and resume on the target) drain hot devices while\n"
                "tenants keep their training state.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int njobs = 8;
    std::int64_t batch = 64;
    int ndev = 1;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--devices") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--devices needs a device count\n");
                return 1;
            }
            ndev = std::atoi(argv[++i]);
        } else if (positional == 0) {
            njobs = std::atoi(argv[i]);
            ++positional;
        } else if (positional == 1) {
            batch = std::atoll(argv[i]);
            ++positional;
        }
    }
    if (ndev > 1)
        return mainMultiDevice(njobs, batch, ndev);

    std::shared_ptr<const net::Network> network =
        net::buildVgg16(batch);
    std::printf("workload: %d x %s training jobs, Poisson arrivals, "
                "mixed iteration budgets\n\n",
                njobs, network->name().c_str());

    struct Config
    {
        const char *label;
        SchedPolicy sched;
        PlannerFactory planner;
        bool mixedPriorities;
    };
    const Config configs[] = {
        {"fifo-exclusive + baseline", SchedPolicy::FifoExclusive,
         baselineM(), false},
        {"round-robin + baseline", SchedPolicy::RoundRobin,
         baselineM(), false},
        {"fifo-exclusive + vDNN_all", SchedPolicy::FifoExclusive,
         offloadAllM(), false},
        {"round-robin + vDNN_all", SchedPolicy::RoundRobin,
         offloadAllM(), false},
        {"shortest-remaining + vDNN_all", SchedPolicy::ShortestRemaining,
         offloadAllM(), false},
        {"preemptive-priority + baseline, mixed priorities",
         SchedPolicy::PreemptivePriority, baselineM(), true},
        {"preemptive-priority + vDNN_all, mixed priorities",
         SchedPolicy::PreemptivePriority, offloadAllM(), true},
    };

    for (const Config &c : configs) {
        ServeReport rep = runCluster(network, njobs, c.sched,
                                     c.planner, c.mixedPriorities);
        std::printf("=== %s ===\n", c.label);
        rep.summaryTable().print();
        rep.jobTable().print();
        if (c.mixedPriorities) {
            std::printf("high-priority mean JCT %.1f ms vs "
                        "low-priority %.1f ms\n",
                        toMs(rep.meanJctAtPriority(10)),
                        toMs(rep.meanJctAtPriority(0)));
        }
        std::printf("\n");
    }

    std::printf("vDNN virtualization turns freed memory into tenancy:\n"
                "the round-robin + vDNN_all configuration packs several\n"
                "jobs onto the device, eliminating queueing delay;\n"
                "preemptive-priority additionally keeps urgent jobs\n"
                "ahead of the mix by suspending and evicting incumbents\n"
                "through the session lifecycle state machine.\n");
    return 0;
}
