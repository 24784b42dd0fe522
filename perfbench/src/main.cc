/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out PATH]
 *   perfbench --selftest
 *
 * After an untimed warm-up, repeats one seeded workload for S seconds
 * of host time (at least kMinReps repetitions), checks every
 * repetition against the correctness gate, and prints a human-readable
 * summary followed, as the last line of stdout, by one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics, measured with no span
 * recorder and no MetricsRegistry attached. --trace 1 alternates
 * untraced and traced repetitions and reports the per-layer metrics:
 * host time under the benchmark's own spans, the simulator's counts,
 * and the tracing overhead. Exit status is non-zero when the gate
 * fails.
 */

#include "spans.hh"
#include "workloads.hh"

#include "common/logging.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

using namespace perfbench;

namespace
{

constexpr int kMinReps = 3;
/** Untimed repetitions run first for this long (at least one): the
 *  first repetitions of a process run measurably slower. */
constexpr double kWarmupS = 1.0;

/**
 * Value of an end-to-end metric on a workload outside its column of
 * the metric map (e.g. JCT on paper-sweep, which has no jobs): the
 * contract asks for every metric, never 0, on every workload.
 */
constexpr double kNotApplicable = 1.0;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (--trace 0), in BENCHMARK.json order. */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"host_s", "s"},
    {"host_peak_rss_mb", "MiB"},
    {"finished_frac", "ratio"},
    {"sim_iters_per_s", "iter/sim_s"},
    {"jct_p50_s", "sim_s"},
    {"jct_p95_s", "sim_s"},
    {"slo_attainment", "ratio"},
    {"hipri_jct_p95_s", "sim_s"},
    {"norm_perf_geomean", "ratio"},
    {"avg_mem_saving", "ratio"},
};

/** Benchmark spans, each reported as total and self host seconds per
 *  repetition. The first kTopSpans are the spans host_s is measured
 *  over (one per workload family); obs.span_coverage is the share of
 *  their time covered by child spans. */
const std::vector<const char *> kSpans = {
    "serve.run",         "core.session",   "net.build",
    "serve.generate",    "serve.submit",   "core.session_setup",
    "core.iteration",    "core.plan",      "check.verify_plan",
    "check.audit",
};
constexpr std::size_t kTopSpans = 2;

/** Simulated and derived per-layer metrics (--trace 1). */
const std::vector<MetricDef> kLayerCounts = {
    {"core.plan_calls", "count"},
    {"core.dyn_trials", "count"},
    {"core.replans", "count"},
    {"core.stall_frac", "ratio"},
    {"core.offloads", "count"},
    {"core.prefetches", "count"},
    {"core.on_demand_fetches", "count"},
    {"check.programs_verified", "count"},
    {"serve.jct_samples", "count"},
    {"serve.admissions", "count"},
    {"serve.migrations", "count"},
    {"serve.preemptions", "count"},
    {"serve.parks", "count"},
    {"serve.evictions", "count"},
    {"serve.resumes", "count"},
    {"serve.page_outs", "count"},
    {"serve.oom_requeues", "count"},
    {"serve.preempt_latency_p95_ms", "sim_ms"},
    {"serve.queue_p95_s", "sim_s"},
    {"serve.wakeups", "count"},
    {"serve.idle_advances", "count"},
    {"serve.fruitless_per_event", "ratio"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"gpu.compute_util", "ratio"},
    {"gpu.copy_busy_frac", "ratio"},
    {"gpu.kernels", "count"},
    {"interconnect.pcie_gib", "GiB"},
    {"mem.pool_peak_frac", "ratio"},
    {"mem.pool_avg_frac", "ratio"},
    {"mem.host_stage_peak_gib", "GiB"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.span_coverage", "ratio"},
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Options
{
    Workload workload = Workload::PaperSweep;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

/** All repetitions of one run, split by whether they were traced. */
struct RunLog
{
    std::vector<RepResult> untraced;
    std::vector<RepResult> traced;
    std::vector<int> tracedRuns; ///< span run ids of the traced reps
    std::vector<std::string> gateErrors;
};

RunLog
measure(const Options &opt, SpanRecorder &spans)
{
    RunLog log;
    std::int64_t warm_until = hostNowNs() + std::int64_t(kWarmupS * 1e9);
    do {
        runRep(opt.workload, opt.seed, Scale::Full, Tracing{});
    } while (hostNowNs() < warm_until);

    std::int64_t deadline =
        hostNowNs() + std::int64_t(opt.seconds * 1e9);
    int rep = 0;
    auto want_more = [&] {
        std::size_t least = opt.trace ? std::min(log.untraced.size(),
                                                 log.traced.size())
                                      : log.untraced.size();
        return hostNowNs() < deadline || least < std::size_t(kMinReps);
    };
    while (want_more()) {
        // Traced runs alternate, so drift hits both sides alike.
        bool traced = opt.trace && rep % 2 == 1;
        if (traced) {
            vdnn::obs::MetricsRegistry registry;
            spans.setRun(rep);
            log.tracedRuns.push_back(rep);
            log.traced.push_back(
                runRep(opt.workload, opt.seed, Scale::Full,
                       Tracing{&spans, &registry}));
        } else {
            log.untraced.push_back(
                runRep(opt.workload, opt.seed, Scale::Full, Tracing{}));
        }
        ++rep;
    }

    // The correctness gate: every rep clean, and every rep — traced or
    // not — produced the same inputs and the same simulated outputs.
    const RepResult &ref = log.untraced.front();
    auto check = [&](const std::vector<RepResult> &reps, const char *kind) {
        for (const RepResult &r : reps) {
            for (const std::string &e : r.gateErrors)
                log.gateErrors.push_back(e);
            if (r.inputDigest != ref.inputDigest ||
                r.outputDigest != ref.outputDigest) {
                log.gateErrors.push_back(
                    std::string(kind) +
                    " repetition digest differs from the first untraced");
            }
        }
    };
    check(log.untraced, "untraced");
    check(log.traced, "traced");
    std::sort(log.gateErrors.begin(), log.gateErrors.end());
    log.gateErrors.erase(
        std::unique(log.gateErrors.begin(), log.gateErrors.end()),
        log.gateErrors.end());
    return log;
}

/**
 * Host time of one repetition's work, as the sum over its units of work
 * (a session, a scenario) of each unit's fastest time across @p reps.
 * Neighbours on a shared machine slow stretches of a run by up to
 * 1.6x; a unit's fastest repetition is the least disturbed one, while
 * a slower simulator slows them all. (Back-to-back paper-sweep runs:
 * whole-repetition medians 27% apart, these sums 5%.)
 */
double
fastestSum(const std::vector<RepResult> &reps,
           std::vector<double> RepResult::*parts)
{
    std::vector<double> best = reps.front().*parts;
    for (const RepResult &r : reps) {
        const std::vector<double> &p = r.*parts;
        for (std::size_t i = 0; i < best.size() && i < p.size(); ++i)
            best[i] = std::min(best[i], p[i]);
    }
    double sum = 0.0;
    for (double b : best)
        sum += b;
    return sum;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};
using Metrics = std::vector<Metric>;

Metrics
endToEnd(const RunLog &log)
{
    const RepResult &first = log.untraced.front();
    Metrics m;
    for (const MetricDef &def : kEndToEnd) {
        std::string n = def.name;
        double v = 0.0;
        if (n == "setup_s")
            v = fastestSum(log.untraced, &RepResult::setupS);
        else if (n == "host_s")
            v = fastestSum(log.untraced, &RepResult::hostS);
        else if (n == "host_peak_rss_mb")
            v = peakRssMiB();
        else if (auto it = first.sim.find(n); it != first.sim.end())
            v = it->second;
        else
            v = kNotApplicable;
        m.push_back({n, def.unit, v});
    }
    return m;
}

Metrics
perLayer(const RunLog &log, const SpanRecorder &spans)
{
    Metrics m;
    // Span time is summed per traced repetition (0 where a span never
    // ran), then the median is taken over those repetitions.
    std::map<std::string, SpanRecorder::Totals> totals = spans.totals();
    auto per_rep = [&](const std::map<int, double> &by_run) {
        std::vector<double> v;
        for (int run : log.tracedRuns) {
            auto it = by_run.find(run);
            v.push_back(it == by_run.end() ? 0.0 : it->second);
        }
        return median(v);
    };
    double top_total = 0.0, top_self = 0.0;
    for (std::size_t i = 0; i < kSpans.size(); ++i) {
        auto it = totals.find(kSpans[i]);
        double total = it == totals.end() ? 0.0 : per_rep(it->second.totalS);
        double self = it == totals.end() ? 0.0 : per_rep(it->second.selfS);
        m.push_back({std::string(kSpans[i]) + "_s", "s", total});
        m.push_back({std::string(kSpans[i]) + ".self_s", "s", self});
        if (i < kTopSpans) {
            top_total += total;
            top_self += self;
        }
    }

    const RepResult &last = log.traced.back();
    double host_untraced = fastestSum(log.untraced, &RepResult::hostS);
    double host_traced = fastestSum(log.traced, &RepResult::hostS);
    for (const MetricDef &def : kLayerCounts) {
        std::string n = def.name;
        double v = 0.0;
        if (n == "sim.events")
            v = double(last.events);
        else if (n == "sim.host_ns_per_event")
            v = last.events ? host_untraced * 1e9 / double(last.events) : 0.0;
        else if (n == "obs.trace_overhead_pct")
            v = host_untraced > 0 ? 100.0 * (host_traced / host_untraced - 1.0)
                                  : 0.0;
        else if (n == "obs.span_coverage")
            v = top_total > 0 ? 1.0 - top_self / top_total : 0.0;
        else if (auto it = last.layer.find(n); it != last.layer.end())
            v = it->second;
        m.push_back({n, def.unit, v});
    }
    return m;
}

void
printJson(bool correct, int attempted, int failed, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < m.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m[i].name.c_str(), m[i].value,
                    m[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
runBenchmark(const Options &opt)
{
    SpanRecorder spans;
    RunLog log = measure(opt, spans);

    int attempted = 0, failed = 0;
    for (const auto *reps : {&log.untraced, &log.traced}) {
        for (const RepResult &r : *reps) {
            attempted += r.attempted;
            failed += r.failed;
        }
    }
    const RepResult &first = log.untraced.front();
    std::printf("workload %s, seed %" PRIu64 ": %zu untraced + %zu traced "
                "repetitions\n",
                workloadName(opt.workload), opt.seed, log.untraced.size(),
                log.traced.size());
    std::printf("input digest  %016" PRIx64 "\n", first.inputDigest);
    std::printf("output digest %016" PRIx64 " (untraced)\n",
                first.outputDigest);
    if (!log.traced.empty()) {
        std::printf("output digest %016" PRIx64 " (traced)\n",
                    log.traced.front().outputDigest);
    }
    auto samples = first.layer.find("serve.jct_samples");
    std::printf("simulated events %" PRIu64 ", JCT samples %.0f, "
                "jobs/sessions per repetition %d (%d failed)\n",
                first.events,
                samples == first.layer.end() ? 0.0 : samples->second,
                first.attempted, first.failed);
    for (const std::string &e : log.gateErrors)
        std::printf("GATE FAILED: %s\n", e.c_str());

    Metrics m = opt.trace ? perLayer(log, spans) : endToEnd(log);
    for (const Metric &x : m) {
        bool na = !opt.trace && x.name != "setup_s" &&
                  x.name != "host_s" && x.name != "host_peak_rss_mb" &&
                  !first.sim.count(x.name);
        std::printf("  %-34s %16.6g %s%s\n", x.name.c_str(), x.value,
                    x.unit.c_str(), na ? "  (n/a on this workload)" : "");
    }
    if (opt.trace && !opt.spansOut.empty()) {
        if (!spans.writeJson(opt.spansOut)) {
            std::fprintf(stderr, "cannot write %s\n", opt.spansOut.c_str());
            return 2;
        }
        std::printf("%zu spans written to %s\n", spans.size(),
                    opt.spansOut.c_str());
    }
    bool correct = log.gateErrors.empty();
    printJson(correct, attempted, failed, m);
    return correct ? 0 : 1;
}

/**
 * The benchmark's self-tests, at the shrunken (smoke) size of every
 * workload: same seed -> identical simulated outputs and metrics;
 * traced -> the same outputs as untraced; different seeds -> different
 * generated inputs; and every repetition passes the correctness gate.
 */
int
selfTest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what, Workload w) {
        std::printf("%s  %-16s %s\n", ok ? "ok  " : "FAIL", workloadName(w),
                    what);
        if (!ok)
            ++failures;
    };
    for (Workload w : allWorkloads()) {
        SpanRecorder spans;
        vdnn::obs::MetricsRegistry registry;
        RepResult a = runRep(w, 1, Scale::Smoke, Tracing{});
        RepResult b = runRep(w, 1, Scale::Smoke, Tracing{});
        RepResult t = runRep(w, 1, Scale::Smoke, Tracing{&spans, &registry});
        RepResult c = runRep(w, 2, Scale::Smoke, Tracing{});
        expect(a.gateErrors.empty() && b.gateErrors.empty() &&
                   t.gateErrors.empty() && c.gateErrors.empty(),
               "smoke size passes the correctness gate", w);
        expect(a.outputDigest == b.outputDigest && a.sim == b.sim &&
                   a.layer == b.layer && a.events == b.events,
               "same seed: identical simulated metrics and digest", w);
        expect(t.outputDigest == a.outputDigest && t.sim == a.sim,
               "traced run: same digest as untraced", w);
        expect(spans.size() > 0, "traced run records spans", w);
        expect(c.inputDigest != a.inputDigest,
               "different seed: different generated inputs", w);
    }
    std::printf("selftest: %s\n", failures ? "FAILED" : "passed");
    return failures ? 1 : 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans-out PATH]\n"
                 "       perfbench --selftest\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    vdnn::setQuiet(true);
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--selftest")
            return selfTest();
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            auto w = parseWorkload(val);
            if (!w)
                usage(("unknown workload " + val).c_str());
            opt.workload = *w;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end)
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || opt.seconds <= 0)
                usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            opt.trace = val == "1";
        } else if (arg == "--spans-out") {
            opt.spansOut = val;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return runBenchmark(opt);
}
