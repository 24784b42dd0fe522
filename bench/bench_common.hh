/**
 * @file
 * Shared helpers for the figure-reproduction benchmark binaries.
 *
 * Every bench binary follows the same shape:
 *   1. run the experiment(s) on the simulated Titan X node,
 *   2. print the paper-style table plus a paper-vs-measured comparison,
 *   3. register google-benchmark entries that re-run representative
 *      simulations so the binary doubles as a perf benchmark of the
 *      simulator itself.
 *
 * All helpers speak the Planner API directly.
 */

#ifndef VDNN_BENCH_COMMON_HH
#define VDNN_BENCH_COMMON_HH

#include "common/logging.hh"
#include "common/units.hh"
#include "core/dynamic_policy.hh"
#include "core/planner.hh"
#include "core/training_session.hh"
#include "net/builders.hh"
#include "net/network_stats.hh"
#include "serve/serve_stats.hh"
#include "stats/comparison.hh"
#include "stats/table.hh"

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>

namespace vdnn::bench
{

/** One column of the Figs. 11/12/14 planner grid. */
struct PlannerPoint
{
    std::shared_ptr<core::Planner> planner;
    const char *label;
    /** Baseline (no offloading) column — figures treat it as the
     *  reference, not a measurement. */
    bool isBaseline = false;
    /** vDNN_dyn column (derives its own per-layer algorithms). */
    bool isDynamic = false;
    /** Algorithm preference of the static planners; meaningless for
     *  the dynamic column. */
    core::AlgoPreference pref = core::AlgoPreference::PerformanceOptimal;
};

/** all/conv x (m)/(p), dyn, base x (m)/(p) — the paper's column order. */
const std::vector<PlannerPoint> &figurePlannerGrid();

// Shorthand planner factories for the paper's configurations.
std::shared_ptr<core::Planner> baselinePlanner(
    core::AlgoPreference pref = core::AlgoPreference::PerformanceOptimal);
std::shared_ptr<core::Planner> offloadAllPlanner(
    core::AlgoPreference pref = core::AlgoPreference::MemoryOptimal);
std::shared_ptr<core::Planner> offloadConvPlanner(
    core::AlgoPreference pref = core::AlgoPreference::MemoryOptimal);
std::shared_ptr<core::Planner> dynamicPlanner();

/** Run one session under an explicit planner on the Titan X node. */
core::SessionResult runPlanner(const net::Network &net,
                               std::shared_ptr<core::Planner> planner,
                               bool oracle = false);

/**
 * Register a google-benchmark that executes @p fn once per iteration.
 * The simulation is deterministic, so a single iteration suffices.
 */
void registerSim(const std::string &name, std::function<void()> fn);

/**
 * Machine-readable metric sink. Benches call recordBenchMetric()
 * while building their report; when the binary was invoked with
 * `--bench-json <path>`, benchMain() writes every recorded metric to
 * @p path as one JSON document (`{"bench": ..., "metrics": {...}}`) —
 * the BENCH_<name>.json perf-trajectory snapshots CI archives. Keys
 * are unique: recording one twice panics and names the key.
 */
void recordBenchMetric(const std::string &name, double value);

/** Record the standard serving metrics of @p r under "<prefix>.":
 *  throughput, mean/p95/p99 JCT, queueing-delay percentiles, compute
 *  utilization and offloaded PCIe traffic. */
void recordServeMetrics(const std::string &prefix,
                        const serve::ServeReport &r);

/**
 * Standard bench main body: strip `--bench-json <path>`, print
 * tables, run the google-benchmark registry, then emit the recorded
 * metrics when the flag was given.
 */
int benchMain(int argc, char **argv, std::function<void()> report);

} // namespace vdnn::bench

#endif // VDNN_BENCH_COMMON_HH
