#include "serve/scenario_gen.hh"

#include "common/logging.hh"
#include "core/planner.hh"
#include "net/builders.hh"

#include <algorithm>
#include <cmath>

namespace vdnn::serve
{

const char *
scenarioKindName(ScenarioKind k)
{
    switch (k) {
      case ScenarioKind::Diurnal:
        return "diurnal";
      case ScenarioKind::Bursty:
        return "bursty";
      case ScenarioKind::AdmissionThrash:
        return "admission-thrash";
      case ScenarioKind::PriorityInversion:
        return "priority-inversion";
    }
    return "?";
}

/**
 * One tenant archetype: a network builder choice, a batch size and a
 * rough isolated-run cost per iteration on the simulated Titan X —
 * the base the SLO deadline scales from. The costs are deliberately
 * coarse (the SLO is an observational target, not a model); what
 * matters is that bigger workloads get proportionally looser
 * deadlines, so attainment measures scheduling quality rather than
 * workload size.
 */
struct ScenarioGenerator::Model
{
    int builder;          ///< 0 = AlexNet, 1 = OverFeat, 2 = VGG-16
    std::int64_t batch;
    TimeNs isolatedIter;  ///< rough per-iteration cost, exclusive GPU
};

namespace
{

// Costs track the fig14 vDNN_all memory-optimal column on the Titan X
// (batch-64 rows scaled from the measured batch-128 ones).
constexpr ScenarioGenerator::Model kAlexNet64{0, 64, 150 * kNsPerMs};
constexpr ScenarioGenerator::Model kAlexNet128{0, 128,
                                               290 * kNsPerMs};
constexpr ScenarioGenerator::Model kOverFeat64{1, 64, 450 * kNsPerMs};
constexpr ScenarioGenerator::Model kOverFeat128{1, 128,
                                                900 * kNsPerMs};
constexpr ScenarioGenerator::Model kVgg64{2, 64, 3100 * kNsPerMs};

/** The bread-and-butter serving mix (small to mid footprints). */
constexpr ScenarioGenerator::Model kServingMix[] = {
    kAlexNet64, kAlexNet128, kOverFeat64, kOverFeat128};

} // namespace

ScenarioGenerator::ScenarioGenerator(ScenarioConfig config)
    : cfg(config), rng(config.seed)
{
    VDNN_ASSERT(cfg.tenants >= 1, "scenario needs at least one tenant");
    VDNN_ASSERT(cfg.devices >= 1, "scenario needs at least one device");
    VDNN_ASSERT(cfg.horizon > 0, "scenario horizon must be positive");
    VDNN_ASSERT(cfg.minIterations >= 1 &&
                    cfg.maxIterations >= cfg.minIterations,
                "bad iteration range [%d, %d]", cfg.minIterations,
                cfg.maxIterations);
    VDNN_ASSERT(cfg.diurnalCycles >= 1, "need >= 1 diurnal cycle");
    VDNN_ASSERT(cfg.diurnalPeakToTrough >= 1.0,
                "peak/trough ratio must be >= 1");
    VDNN_ASSERT(cfg.bursts >= 1, "need >= 1 burst");
    VDNN_ASSERT(cfg.sloSlack > 0.0, "SLO slack must be positive");
}

std::vector<gpu::GpuSpec>
ScenarioGenerator::heterogeneousCluster(int devices)
{
    // The three 12 GB-class presets, round-robin: placement sees
    // different FLOPs/bandwidth per device while every tenant still
    // fits somewhere, so heterogeneity shapes decisions rather than
    // forcing rejections.
    std::vector<gpu::GpuSpec> specs;
    specs.reserve(std::size_t(devices));
    for (int d = 0; d < devices; ++d) {
        switch (d % 3) {
          case 0:
            specs.push_back(gpu::titanXMaxwell());
            break;
          case 1:
            specs.push_back(gpu::titanXPascal());
            break;
          default:
            specs.push_back(gpu::teslaK40());
            break;
        }
    }
    return specs;
}

std::shared_ptr<const net::Network>
ScenarioGenerator::network(const Model &m)
{
    auto key = std::make_pair(m.builder, m.batch);
    auto it = netCache.find(key);
    if (it != netCache.end())
        return it->second;
    std::shared_ptr<const net::Network> net;
    switch (m.builder) {
      case 0:
        net = net::buildAlexNet(m.batch);
        break;
      case 1:
        net = net::buildOverFeat(m.batch);
        break;
      default:
        net = net::buildVgg16(m.batch);
        break;
    }
    netCache.emplace(key, net);
    return net;
}

JobSpec
ScenarioGenerator::makeJob(int index, const Model &m, TimeNs arrival)
{
    JobSpec spec;
    spec.name = strFormat("%s-%03d", scenarioKindName(cfg.kind), index);
    spec.network = network(m);
    spec.planner = offloadAll;
    spec.arrival = arrival;
    spec.iterations =
        int(rng.nextRange(cfg.minIterations, cfg.maxIterations));
    // Deadline: slack x the tenant's isolated-run estimate. Queueing
    // and co-tenant interference must fit inside the slack, which is
    // exactly what attainment is supposed to measure.
    spec.sloJct = TimeNs(cfg.sloSlack *
                         double(m.isolatedIter * spec.iterations));
    return spec;
}

std::vector<TimeNs>
ScenarioGenerator::diurnalArrivals(int count)
{
    // Discretized inverse-CDF sampling of a sinusoidal intensity:
    // slot weights trace `cycles` full trough->peak->trough periods
    // across the horizon, each arrival picks a slot by CDF walk and a
    // uniform offset inside it. O(slots) setup, O(slots) per sample —
    // plenty for a few thousand tenants, and deterministic.
    constexpr int kSlots = 256;
    double weights[kSlots];
    double total = 0.0;
    const double ratio = cfg.diurnalPeakToTrough;
    for (int s = 0; s < kSlots; ++s) {
        double phase = 2.0 * M_PI * cfg.diurnalCycles * (s + 0.5) /
                       kSlots;
        // sin shifted to start at the trough; weight in [1, ratio].
        double lift = 0.5 - 0.5 * std::cos(phase);
        weights[s] = 1.0 + (ratio - 1.0) * lift;
        total += weights[s];
    }
    TimeNs slotLen = cfg.horizon / kSlots;
    std::vector<TimeNs> arrivals;
    arrivals.reserve(std::size_t(count));
    for (int i = 0; i < count; ++i) {
        double u = rng.nextDouble() * total;
        int s = 0;
        while (s < kSlots - 1 && u >= weights[s]) {
            u -= weights[s];
            ++s;
        }
        TimeNs base = slotLen * s;
        arrivals.push_back(
            base + TimeNs(rng.nextDouble() * double(slotLen)));
    }
    std::sort(arrivals.begin(), arrivals.end());
    return arrivals;
}

std::vector<TimeNs>
ScenarioGenerator::burstyArrivals(int count)
{
    // Burst centers spread across the horizon (jittered, sorted);
    // every tenant joins a burst with a one-sided geometric-ish
    // offset, so each burst slams the admission queue near-instantly
    // and the gaps between bursts drain the cluster to idle.
    std::vector<TimeNs> centers;
    centers.reserve(std::size_t(cfg.bursts));
    TimeNs stride = cfg.horizon / cfg.bursts;
    for (int b = 0; b < cfg.bursts; ++b) {
        TimeNs base = stride * b;
        centers.push_back(
            base + TimeNs(rng.nextDouble() * double(stride) * 0.5));
    }
    std::vector<TimeNs> arrivals;
    arrivals.reserve(std::size_t(count));
    for (int i = 0; i < count; ++i) {
        TimeNs center =
            centers[std::size_t(rng.nextRange(0, cfg.bursts - 1))];
        // Exponential-shaped offset via inverse transform, clamped to
        // a few spreads so a straggler cannot leak into the next gap.
        double u = rng.nextDouble();
        double gap = -std::log(1.0 - u * 0.98);
        arrivals.push_back(center +
                           TimeNs(gap * double(cfg.burstSpread)));
    }
    std::sort(arrivals.begin(), arrivals.end());
    return arrivals;
}

GeneratedScenario
ScenarioGenerator::generate()
{
    GeneratedScenario out;
    switch (cfg.kind) {
      case ScenarioKind::Diurnal: {
        out.policy = SchedPolicy::RoundRobin;
        out.devices = heterogeneousCluster(cfg.devices);
        std::vector<TimeNs> when = diurnalArrivals(cfg.tenants);
        for (int i = 0; i < cfg.tenants; ++i) {
            const Model &m =
                kServingMix[std::size_t(rng.nextRange(0, 3))];
            out.jobs.push_back(makeJob(i, m, when[std::size_t(i)]));
        }
        break;
      }
      case ScenarioKind::Bursty: {
        out.policy = SchedPolicy::RoundRobin;
        out.devices = heterogeneousCluster(cfg.devices);
        std::vector<TimeNs> when = burstyArrivals(cfg.tenants);
        for (int i = 0; i < cfg.tenants; ++i) {
            const Model &m =
                kServingMix[std::size_t(rng.nextRange(0, 3))];
            out.jobs.push_back(makeJob(i, m, when[std::size_t(i)]));
        }
        break;
      }
      case ScenarioKind::AdmissionThrash: {
        // Every third tenant is a near-device-sized VGG-16 under the
        // *baseline* planner (whole network resident — the admission
        // ledger's worst customer); the rest are small backfillers.
        // Arrivals compress into the first fifth of the horizon so
        // the queue is deep from the start and admission re-decides
        // on every completion, eviction and rebalance.
        out.policy = SchedPolicy::RoundRobin;
        out.devices = heterogeneousCluster(cfg.devices);
        TimeNs window = std::max<TimeNs>(cfg.horizon / 5, 1);
        for (int i = 0; i < cfg.tenants; ++i) {
            TimeNs arrival =
                TimeNs(rng.nextDouble() * double(window));
            bool heavy = i % 3 == 0;
            const Model &m = heavy ? kVgg64 : kAlexNet64;
            JobSpec spec = makeJob(i, m, arrival);
            if (heavy) {
                spec.planner = baseline;
                // Keep the ledger churning: heavies come and go
                // instead of squatting.
                spec.iterations = cfg.minIterations;
                spec.sloJct = TimeNs(cfg.sloSlack *
                                     double(m.isolatedIter *
                                            spec.iterations));
            }
            out.jobs.push_back(std::move(spec));
        }
        std::sort(out.jobs.begin(), out.jobs.end(),
                  [](const JobSpec &a, const JobSpec &b) {
                      return a.arrival < b.arrival;
                  });
        break;
      }
      case ScenarioKind::PriorityInversion: {
        // Single device, PreemptivePriority: a resident field of
        // low-priority long jobs, then a hostile stream of
        // high-priority arrivals. The low jobs carry aging, so the
        // inversion must resolve instead of starving them forever.
        out.policy = SchedPolicy::PreemptivePriority;
        out.devices = {gpu::titanXMaxwell()};
        int lowJobs = std::max(1, cfg.tenants / 3);
        TimeNs window = std::max<TimeNs>(cfg.horizon / 4, 1);
        for (int i = 0; i < cfg.tenants; ++i) {
            bool low = i < lowJobs;
            const Model &m = low ? kOverFeat128 : kAlexNet64;
            TimeNs arrival =
                low ? TimeNs(rng.nextDouble() * double(window) * 0.1)
                    : window / 8 +
                          TimeNs(rng.nextDouble() * double(window));
            JobSpec spec = makeJob(i, m, arrival);
            spec.priority = low ? 0 : 10;
            if (low) {
                spec.agingRatePerSec = 2.0;
                spec.iterations = cfg.maxIterations;
                // Preemption and aged readmission are the point; the
                // deadline must tolerate one full park/resume cycle.
                spec.sloJct = TimeNs(3.0 * cfg.sloSlack *
                                     double(m.isolatedIter *
                                            spec.iterations));
            }
            out.jobs.push_back(std::move(spec));
        }
        std::sort(out.jobs.begin(), out.jobs.end(),
                  [](const JobSpec &a, const JobSpec &b) {
                      return a.arrival < b.arrival;
                  });
        break;
      }
    }
    return out;
}

} // namespace vdnn::serve
