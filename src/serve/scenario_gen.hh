/**
 * @file
 * ScenarioGenerator: seeded serving workloads that stress the
 * cluster scheduler at scale.
 *
 * The figure benches replay the paper's fixed workloads; this
 * generator produces the *serving* traffic the ROADMAP north-star
 * cares about — hundreds of tenants over heterogeneous multi-GPU
 * nodes — in four shapes:
 *
 *  - Diurnal: arrival intensity follows a sinusoidal day-cycle
 *    (trough -> peak -> trough), the classic production pattern a
 *    serving cluster must ride without idle-burning the trough or
 *    queue-collapsing the peak.
 *  - Bursty: arrivals clump into tight bursts separated by silence —
 *    the admission queue goes from empty to deep in microseconds,
 *    exercising backfill and the idle fast path between bursts.
 *  - AdmissionThrash (adversarial): alternating near-device-sized and
 *    small tenants on a compressed timeline, so admission constantly
 *    re-decides, backfills around blocked heads and rebalances —
 *    worst case for any serve loop that rescans per event.
 *  - PriorityInversion (adversarial): a field of low-priority
 *    long-running tenants, then a hostile stream of high-priority
 *    arrivals that preempt them; the low jobs carry aging so the
 *    inversion must eventually resolve (single device,
 *    PreemptivePriority).
 *
 * Every job carries a JCT SLO derived from its isolated-run cost, so
 * ServeReport::sloAttainment() turns a generated run into one
 * headline quality number. Generation is deterministic per seed
 * (SplitMix64 — no global RNG state), so bench_scenario runs are
 * reproducible and CI can pin them.
 */

#ifndef VDNN_SERVE_SCENARIO_GEN_HH
#define VDNN_SERVE_SCENARIO_GEN_HH

#include "common/random.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "core/planner.hh"
#include "gpu/gpu_spec.hh"
#include "net/network.hh"
#include "serve/job.hh"
#include "serve/scheduler.hh"

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace vdnn::serve
{

enum class ScenarioKind : std::uint8_t
{
    Diurnal,
    Bursty,
    AdmissionThrash,
    PriorityInversion,
};

const char *scenarioKindName(ScenarioKind k);

struct ScenarioConfig
{
    ScenarioKind kind = ScenarioKind::Diurnal;
    std::uint64_t seed = 1;
    int tenants = 64;
    /** Devices of the (heterogeneous) cluster. PriorityInversion is
     *  single-device by construction and ignores this. */
    int devices = 4;
    /** Arrival window [0, horizon). */
    TimeNs horizon = 2 * kNsPerSec;
    /** Iteration budget range (inclusive), sampled per tenant. */
    int minIterations = 2;
    int maxIterations = 6;
    /** Diurnal: full day-cycles across the horizon, and the peak
     *  arrival intensity as a multiple of the trough's. */
    int diurnalCycles = 2;
    double diurnalPeakToTrough = 8.0;
    /** Bursty: number of bursts and the intra-burst arrival spread. */
    int bursts = 6;
    TimeNs burstSpread = 2 * kNsPerMs;
    /** SLO slack: deadline = slack x isolated-run cost estimate. */
    double sloSlack = 6.0;
};

/** A generated workload plus the cluster/policy it is aimed at. */
struct GeneratedScenario
{
    std::vector<JobSpec> jobs; ///< arrival-sorted
    /** Per-device specs of the target cluster (heterogeneous mix;
     *  exactly one entry for PriorityInversion). */
    std::vector<gpu::GpuSpec> devices;
    SchedPolicy policy = SchedPolicy::RoundRobin;
};

class ScenarioGenerator
{
  public:
    explicit ScenarioGenerator(ScenarioConfig config);

    /** Build the full scenario (deterministic per config+seed). */
    GeneratedScenario generate();

    /** Round-robin mix of the three 12 GB-class GpuSpec presets —
     *  the heterogeneous node the placement policies see. */
    static std::vector<gpu::GpuSpec> heterogeneousCluster(int devices);

    /** One (network builder, batch) tenant archetype; public so the
     *  .cc can define its archetype table at namespace scope. */
    struct Model;

  private:

    std::vector<TimeNs> diurnalArrivals(int count);
    std::vector<TimeNs> burstyArrivals(int count);
    JobSpec makeJob(int index, const Model &m, TimeNs arrival);
    std::shared_ptr<const net::Network> network(const Model &m);

    ScenarioConfig cfg;
    SplitMix64 rng;
    /** Networks shared across tenants of the same (model, batch). */
    std::map<std::pair<int, std::int64_t>,
             std::shared_ptr<const net::Network>>
        netCache;
    /** Planners shared across tenants, as the networks are, so the
     *  scheduler derives one admission estimate per (network, planner)
     *  rather than one per job. */
    std::shared_ptr<core::Planner> offloadAll =
        std::make_shared<core::OffloadAllPlanner>(
            core::AlgoPreference::MemoryOptimal);
    std::shared_ptr<core::Planner> baseline =
        std::make_shared<core::BaselinePlanner>(
            core::AlgoPreference::MemoryOptimal);
};

} // namespace vdnn::serve

#endif // VDNN_SERVE_SCENARIO_GEN_HH
