/**
 * @file
 * The four benchmark workloads, each generated from a seed.
 *
 *  - paper-sweep: closed loop of single-tenant core::Session runs over
 *    the paper's grid (AlexNet/OverFeat/GoogLeNet at 128, VGG-16 at 64
 *    and 256; all seven planners; real and oracle Titan X) plus a
 *    seed-drawn batch and GPU preset for every (network, planner) pair
 *    and one very deep VGG.
 *  - cluster-diurnal: ScenarioGenerator Diurnal arrivals, open loop in
 *    simulated time, on 16 heterogeneous devices (RoundRobin,
 *    LoadBalance placement, rebalance migration).
 *  - dense-packed: Bursty arrivals on one Titan X under PackedOverlap
 *    with buffer paging.
 *  - priority-churn: PriorityInversion on one device under
 *    PreemptivePriority at op granularity with buffer paging.
 *
 * A serve workload simulates several independently seeded scenarios
 * per repetition and pools their outcomes. runRep() runs one
 * repetition: set-up (seed to first event) and the simulation, timed
 * apart per unit of work, then the correctness gate and every
 * simulated metric. Simulated values repeat exactly for a seed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "spans.hh"

#include "obs/metrics.hh"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

enum class Workload : std::uint8_t
{
    PaperSweep,
    ClusterDiurnal,
    DensePacked,
    PriorityChurn,
};

const char *workloadName(Workload w);
std::optional<Workload> parseWorkload(const std::string &name);
const std::vector<Workload> &allWorkloads();

/** Full benchmark size, or the shrunken size the self-tests run. */
enum class Scale : std::uint8_t
{
    Full,
    Smoke,
};

/** Sinks of a traced repetition; both null in an untraced one. */
struct Tracing
{
    SpanRecorder *spans = nullptr;
    vdnn::obs::MetricsRegistry *metrics = nullptr;
};

/** Everything one repetition produced. */
struct RepResult
{
    /**
     * Host seconds per unit of work, in an order fixed by the seed:
     * seed to first event (one entry for the sweep, one per serve
     * scenario), and the simulation itself (one entry per session of
     * the sweep, one per serve scenario).
     */
    std::vector<double> setupS;
    std::vector<double> hostS;
    /** FNV-1a digests of the generated inputs and of every simulated
     *  output (job outcomes, lifecycle log, session results, clock). */
    std::uint64_t inputDigest = 0;
    std::uint64_t outputDigest = 0;
    /** Simulated end-to-end metrics, by name. */
    std::map<std::string, double> sim;
    /** Simulated per-layer metrics (counts, fractions), by name. */
    std::map<std::string, double> layer;
    /** Simulated events executed. */
    std::uint64_t events = 0;
    /** Jobs (serve) or sessions (paper-sweep) run, and how many of
     *  them failed (Failed/Rejected jobs; oracle configs that could
     *  not train). */
    int attempted = 0;
    int failed = 0;
    /** Correctness-gate violations (empty = the rep passed). */
    std::vector<std::string> gateErrors;
};

RepResult runRep(Workload w, std::uint64_t seed, Scale scale,
                 const Tracing &tracing);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
