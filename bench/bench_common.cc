#include "bench_common.hh"

#include "common/logging.hh"
#include "common/units.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

namespace vdnn::bench
{

using core::AlgoPreference;

std::shared_ptr<core::Planner>
baselinePlanner(AlgoPreference pref)
{
    return std::make_shared<core::BaselinePlanner>(pref);
}

std::shared_ptr<core::Planner>
offloadAllPlanner(AlgoPreference pref)
{
    return std::make_shared<core::OffloadAllPlanner>(pref);
}

std::shared_ptr<core::Planner>
offloadConvPlanner(AlgoPreference pref)
{
    return std::make_shared<core::OffloadConvPlanner>(pref);
}

std::shared_ptr<core::Planner>
dynamicPlanner()
{
    return std::make_shared<core::DynamicPlanner>();
}

const std::vector<PlannerPoint> &
figurePlannerGrid()
{
    static const std::vector<PlannerPoint> grid = {
        {offloadAllPlanner(AlgoPreference::MemoryOptimal), "all (m)",
         false, false, AlgoPreference::MemoryOptimal},
        {offloadAllPlanner(AlgoPreference::PerformanceOptimal),
         "all (p)", false, false, AlgoPreference::PerformanceOptimal},
        {offloadConvPlanner(AlgoPreference::MemoryOptimal), "conv (m)",
         false, false, AlgoPreference::MemoryOptimal},
        {offloadConvPlanner(AlgoPreference::PerformanceOptimal),
         "conv (p)", false, false, AlgoPreference::PerformanceOptimal},
        {dynamicPlanner(), "dyn", false, true,
         AlgoPreference::PerformanceOptimal},
        {baselinePlanner(AlgoPreference::MemoryOptimal), "base (m)",
         true, false, AlgoPreference::MemoryOptimal},
        {baselinePlanner(AlgoPreference::PerformanceOptimal),
         "base (p)", true, false,
         AlgoPreference::PerformanceOptimal},
    };
    return grid;
}

core::SessionResult
runPlanner(const net::Network &net,
           std::shared_ptr<core::Planner> planner, bool oracle)
{
    core::SessionConfig cfg;
    cfg.planner = std::move(planner);
    cfg.oracle = oracle;
    return core::runSession(net, cfg);
}

namespace
{

std::vector<std::pair<std::string, std::function<void()>>> &
registry()
{
    static std::vector<std::pair<std::string, std::function<void()>>> r;
    return r;
}

void
runRegistered(benchmark::State &state, const std::function<void()> &fn)
{
    for (auto _ : state) {
        fn();
        benchmark::ClobberMemory();
    }
}

} // namespace

void
registerSim(const std::string &name, std::function<void()> fn)
{
    registry().emplace_back(name, std::move(fn));
}

namespace
{

std::vector<std::pair<std::string, double>> &
metricSink()
{
    static std::vector<std::pair<std::string, double>> m;
    return m;
}

/** Take `--bench-json <path>` out of argv before google-benchmark
 *  sees it; returns the path ("" when absent). */
std::string
stripBenchJsonFlag(int &argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--bench-json" && i + 1 < argc) {
            std::string path = argv[i + 1];
            for (int k = i; k + 2 < argc; ++k)
                argv[k] = argv[k + 2];
            argc -= 2;
            return path;
        }
    }
    return "";
}

void
writeJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "0";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << buf;
}

bool
writeBenchJson(const std::string &path, const std::string &bench)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    os << "{\n  \"bench\": \"" << bench << "\",\n  \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metricSink()) {
        os << (first ? "" : ",") << "\n    \"" << name << "\": ";
        writeJsonNumber(os, value);
        first = false;
    }
    os << "\n  }\n}\n";
    return bool(os);
}

} // namespace

void
recordBenchMetric(const std::string &name, double value)
{
    for (const auto &[key, v] : metricSink()) {
        if (key == name)
            panic("bench metric '%s' recorded twice", name.c_str());
    }
    metricSink().emplace_back(name, value);
}

void
recordServeMetrics(const std::string &prefix, const serve::ServeReport &r)
{
    Bytes offloaded = 0;
    for (const serve::JobOutcome &j : r.jobs)
        offloaded += j.offloadedBytes;
    recordBenchMetric(prefix + ".finished", double(r.finishedCount()));
    recordBenchMetric(prefix + ".failed", double(r.failedCount()));
    recordBenchMetric(prefix + ".makespan_ms", toMs(r.makespan));
    recordBenchMetric(prefix + ".throughput_iters_per_s",
                      r.aggregateThroughput());
    recordBenchMetric(prefix + ".mean_jct_ms", toMs(r.meanJct()));
    recordBenchMetric(prefix + ".p95_jct_ms", toMs(r.p95Jct()));
    recordBenchMetric(prefix + ".p99_jct_ms", toMs(r.p99Jct()));
    recordBenchMetric(prefix + ".mean_queue_ms",
                      toMs(r.meanQueueingDelay()));
    recordBenchMetric(prefix + ".p99_queue_ms",
                      toMs(r.p99QueueingDelay()));
    recordBenchMetric(prefix + ".compute_util", r.computeUtilization());
    recordBenchMetric(prefix + ".offloaded_gib", toGiB(offloaded));
}

int
benchMain(int argc, char **argv, std::function<void()> report)
{
    std::string json_path = stripBenchJsonFlag(argc, argv);
    // Keep stdout clean for the figure tables.
    setQuiet(true);
    benchmark::Initialize(&argc, argv);

    report();

    for (auto &[name, fn] : registry()) {
        benchmark::RegisterBenchmark(
            name.c_str(), [fn = fn](benchmark::State &state) {
                runRegistered(state, fn);
            })
            ->Unit(benchmark::kMillisecond);
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (!json_path.empty()) {
        std::string bench = argv[0];
        std::size_t slash = bench.find_last_of('/');
        if (slash != std::string::npos)
            bench = bench.substr(slash + 1);
        if (!writeBenchJson(json_path, bench))
            return 1;
    }
    return 0;
}

} // namespace vdnn::bench
