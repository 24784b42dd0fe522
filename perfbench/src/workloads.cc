#include "workloads.hh"

#include "check/ledger_auditor.hh"
#include "check/plan_verifier.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "core/dynamic_policy.hh"
#include "core/planner.hh"
#include "core/training_session.hh"
#include "net/builders.hh"
#include "serve/placement.hh"
#include "serve/scenario_gen.hh"
#include "serve/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

namespace perfbench
{

using namespace vdnn;

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::PaperSweep:
        return "paper-sweep";
      case Workload::ClusterDiurnal:
        return "cluster-diurnal";
      case Workload::DensePacked:
        return "dense-packed";
      case Workload::PriorityChurn:
        return "priority-churn";
    }
    return "?";
}

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {
        Workload::PaperSweep, Workload::ClusterDiurnal,
        Workload::DensePacked, Workload::PriorityChurn};
    return all;
}

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : allWorkloads()) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

namespace
{

/** FNV-1a over the bytes of every folded value. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void add(std::int64_t v) { add(std::uint64_t(v)); }
    void add(int v) { add(std::uint64_t(std::int64_t(v))); }
    void add(bool v) { add(std::uint64_t(v)); }
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
    void add(const std::string &s)
    {
        add(std::uint64_t(s.size()));
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Nearest-rank percentile (the ServeReport convention). */
double
nearestRank(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(
        std::max(1.0, std::ceil(pct * double(v.size()))));
    return v[rank - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / double(v.size()));
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / double(v.size());
}

/**
 * Traced reps only: per-layer counts the simulator records itself once
 * a MetricsRegistry is attached (kernels per device, executor DMA
 * counts, programs verified).
 */
void
registryToLayers(obs::MetricsRegistry *m, int devices, RepResult &out)
{
    if (!m)
        return;
    double kernels = 0.0;
    for (int dev = 0; dev < devices; ++dev)
        kernels += m->counter("gpu" + std::to_string(dev) + ".kernels")
                       .value();
    out.layer["gpu.kernels"] = kernels;
    out.layer["core.offloads"] = m->counter("exec.offloads").value();
    out.layer["core.prefetches"] = m->counter("exec.prefetches").value();
    out.layer["core.on_demand_fetches"] =
        m->counter("exec.on_demand_fetches").value();
    out.layer["check.programs_verified"] =
        m->counter("check.programs_verified").value();
}

/** What the benchmark's planner wrapper counted in a traced rep. */
struct PlanStats
{
    int calls = 0;
    int replans = 0;
    int trials = 0;
    std::vector<std::string> verifyErrors;
};

/**
 * Traced runs only: forwards to the real planner inside a `core.plan`
 * span, then verifies the plan itself inside a `check.verify_plan`
 * span — the session's own verification is switched off for the run,
 * so each plan is still verified exactly once, by the same call with
 * the same arguments (check::verifyPlan against the context the plan
 * was made for), and that call is now timed from outside.
 */
class TracedPlanner : public core::Planner
{
  public:
    TracedPlanner(std::shared_ptr<core::Planner> inner_,
                  core::ExecutorConfig exec_, SpanRecorder *spans_,
                  PlanStats *stats_)
        : inner(std::move(inner_)), exec(exec_), spans(spans_),
          stats(stats_)
    {}

    std::string name() const override { return inner->name(); }

    core::MemoryPlan
    plan(const net::Network &net, const core::PlannerContext &ctx) override
    {
        core::MemoryPlan p;
        {
            Scope s(spans, "core.plan");
            p = inner->plan(net, ctx);
        }
        ++stats->calls;
        if (planned)
            ++stats->replans;
        planned = true;
        stats->trials += int(p.trials.size());
        if (p.feasible && exec.check.verifyPlans) {
            Scope s(spans, "check.verify_plan");
            check::CheckResult r =
                check::verifyPlan(net, p, ctx, exec, exec.check);
            if (!r.ok())
                stats->verifyErrors.push_back(inner->name() + ": " +
                                              r.report());
        }
        return p;
    }

    core::MemoryPlan
    admissionPlan(const net::Network &net,
                  const core::PlannerContext &ctx) override
    {
        return inner->admissionPlan(net, ctx);
    }

    core::ReplanHint replanHint() const override
    {
        return inner->replanHint();
    }

  private:
    std::shared_ptr<core::Planner> inner;
    core::ExecutorConfig exec; ///< the config the session would verify with
    SpanRecorder *spans;
    PlanStats *stats;
    bool planned = false;
};

/** On a traced rep, wrap @p planner and switch the session's own plan
 *  verification off in @p exec (the wrapper verifies instead). */
std::shared_ptr<core::Planner>
maybeTrace(std::shared_ptr<core::Planner> planner,
           core::ExecutorConfig &exec, const Tracing &tr, PlanStats &stats)
{
    if (!tr.spans)
        return planner;
    auto traced = std::make_shared<TracedPlanner>(std::move(planner), exec,
                                                  tr.spans, &stats);
    exec.check.verifyPlans = false;
    return traced;
}

void
planStatsToLayers(const PlanStats &ps, RepResult &out)
{
    out.layer["core.plan_calls"] = ps.calls;
    out.layer["core.dyn_trials"] = ps.trials;
    out.layer["core.replans"] = ps.replans;
    for (const std::string &e : ps.verifyErrors)
        out.gateErrors.push_back("plan verification failed: " + e);
}

template <typename F>
double
timedS(F &&fn)
{
    std::int64_t t0 = hostNowNs();
    fn();
    return double(hostNowNs() - t0) * 1e-9;
}

// --- paper-sweep -------------------------------------------------------------

enum class NetKind : std::uint8_t
{
    AlexNet,
    OverFeat,
    GoogLeNet,
    Vgg16,
    VggDeep,
};

struct NetKey
{
    NetKind kind;
    std::int64_t batch;
    int depth = 16; ///< VggDeep only

    auto operator<=>(const NetKey &) const = default;
};

std::unique_ptr<net::Network>
buildNet(const NetKey &k)
{
    switch (k.kind) {
      case NetKind::AlexNet:
        return net::buildAlexNet(k.batch);
      case NetKind::OverFeat:
        return net::buildOverFeat(k.batch);
      case NetKind::GoogLeNet:
        return net::buildGoogLeNet(k.batch);
      case NetKind::Vgg16:
        return net::buildVgg16(k.batch);
      case NetKind::VggDeep:
        return net::buildVggDeep(k.depth, k.batch);
    }
    return nullptr;
}

/** The seven planner configurations of the paper (Figs. 11/14). */
constexpr int kPlanners = 7;

std::shared_ptr<core::Planner>
makePlanner(int index)
{
    using core::AlgoPreference;
    switch (index) {
      case 0:
        return std::make_shared<core::OffloadAllPlanner>(
            AlgoPreference::MemoryOptimal);
      case 1:
        return std::make_shared<core::OffloadAllPlanner>(
            AlgoPreference::PerformanceOptimal);
      case 2:
        return std::make_shared<core::OffloadConvPlanner>(
            AlgoPreference::MemoryOptimal);
      case 3:
        return std::make_shared<core::OffloadConvPlanner>(
            AlgoPreference::PerformanceOptimal);
      case 4:
        return std::make_shared<core::DynamicPlanner>();
      case 5:
        return std::make_shared<core::BaselinePlanner>(
            AlgoPreference::MemoryOptimal);
      default:
        return std::make_shared<core::BaselinePlanner>(
            AlgoPreference::PerformanceOptimal);
    }
}
constexpr int kPlannerAllM = 0;
constexpr int kPlannerConvM = 2;
constexpr int kPlannerBaseM = 5;
constexpr int kPlannerBaseP = 6;

gpu::GpuSpec
gpuPreset(int index)
{
    switch (index) {
      case 0:
        return gpu::titanXMaxwell();
      case 1:
        return gpu::titanXPascal();
      case 2:
        return gpu::teslaK40();
      default:
        return gpu::smallGpu4GiB();
    }
}

/** One session of the sweep. */
struct SweepConfig
{
    NetKey net;
    int planner = 0;
    int gpu = 0;
    bool oracle = false;
    /** Index of the oracle base (p) config this one normalizes
     *  against (-1: none). */
    int reference = -1;
    /** Part of the paper's fixed grid (not a seed-drawn point). */
    bool paper = false;
};

struct SweepOutcome
{
    core::SessionResult result;
    double simS = 0.0; ///< simulated seconds the session took
    std::uint64_t events = 0;
    TimeNs computeBusy = 0;
    TimeNs copyBusy = 0;
    Bytes pcieBytes = 0;
    Bytes capacity = 0;
};

/** The paper's grid plus the seed-drawn points (deterministic). */
std::vector<SweepConfig>
sweepConfigs(std::uint64_t seed, Scale scale)
{
    std::vector<SweepConfig> cfgs;
    auto add_point = [&](NetKey net, int planner, int gpu) {
        // Every real-GPU point carries its oracle base (p) reference,
        // and the gate requires that reference to train.
        SweepConfig ref{net, kPlannerBaseP, gpu, true, -1};
        cfgs.push_back(ref);
        int ref_index = int(cfgs.size()) - 1;
        cfgs.push_back(SweepConfig{net, planner, gpu, false, ref_index});
    };

    std::vector<NetKey> paper = {
        {NetKind::AlexNet, 128}, {NetKind::OverFeat, 128},
        {NetKind::GoogLeNet, 128}, {NetKind::Vgg16, 64},
        {NetKind::Vgg16, 256}};
    if (scale == Scale::Smoke)
        paper = {{NetKind::AlexNet, 32}};
    for (const NetKey &net : paper) {
        cfgs.push_back(SweepConfig{net, kPlannerBaseP, 0, true, -1, true});
        int ref_index = int(cfgs.size()) - 1;
        for (int p = 0; p < kPlanners; ++p) {
            cfgs.push_back(
                SweepConfig{net, p, 0, false, ref_index, true});
            if (p != kPlannerBaseP)
                cfgs.push_back(SweepConfig{net, p, 0, true, -1, true});
        }
    }

    // Seed-drawn points: every (network, planner) pair once, at a
    // drawn batch and GPU preset. Stratifying on the pair keeps the
    // sweep's total work, and so its host time, steady across seeds
    // while the points themselves change.
    SplitMix64 rng(seed);
    static constexpr std::int64_t kBatches[] = {32, 64, 128, 256};
    const int kinds = scale == Scale::Smoke ? 1 : 4;
    const int planners = scale == Scale::Smoke ? 2 : kPlanners;
    for (int k = 0; k < kinds; ++k) {
        for (int p = 0; p < planners; ++p) {
            std::int64_t batch = scale == Scale::Smoke
                                     ? 16 * rng.nextRange(1, 4)
                                     : kBatches[rng.nextRange(0, 3)];
            add_point(NetKey{NetKind(k), batch}, p,
                      int(rng.nextRange(0, 3)));
        }
    }
    // One very deep VGG (Fig. 15: 416 CONV layers, batch 32) under a
    // drawn vDNN planner on a drawn 12 GB preset.
    if (scale == Scale::Full) {
        add_point(NetKey{NetKind::VggDeep, 32, 416},
                  rng.nextRange(0, 1) ? kPlannerConvM : kPlannerAllM,
                  int(rng.nextRange(0, 2)));
    }
    return cfgs;
}

RepResult
runPaperSweep(std::uint64_t seed, Scale scale, const Tracing &tr)
{
    RepResult out;
    const int iterations = 2;

    // --- set-up: seed to first event ------------------------------------
    std::vector<SweepConfig> cfgs;
    std::map<NetKey, std::unique_ptr<net::Network>> nets;
    out.setupS.push_back(timedS([&] {
        cfgs = sweepConfigs(seed, scale);
        for (const SweepConfig &c : cfgs) {
            if (nets.count(c.net))
                continue;
            Scope s(tr.spans, "net.build");
            nets.emplace(c.net, buildNet(c.net));
        }
    }));

    Digest in;
    for (const SweepConfig &c : cfgs) {
        in.add(int(c.net.kind));
        in.add(c.net.batch);
        in.add(c.net.depth);
        in.add(c.planner);
        in.add(c.gpu);
        in.add(c.oracle);
    }
    out.inputDigest = in.value();

    // --- the simulation: every Session of the sweep -------------------
    PlanStats plan_stats;
    std::vector<SweepOutcome> outcomes(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        out.hostS.push_back(timedS([&] {
            const SweepConfig &c = cfgs[i];
            const net::Network &network = *nets.at(c.net);
            Scope session_span(tr.spans, "core.session");
            core::SessionConfig sc;
            sc.gpu = gpuPreset(c.gpu);
            sc.oracle = c.oracle;
            sc.iterations = iterations;
            sc.planner = maybeTrace(makePlanner(c.planner), sc.exec, tr,
                                    plan_stats);
            core::Session session(network, sc);
            if (tr.metrics)
                session.runtime().setTelemetry({nullptr, tr.metrics});
            // Mirrors core::runSession, with the calls timed apart.
            bool ok = false;
            {
                Scope s(tr.spans, "core.session_setup");
                ok = session.setup();
            }
            std::string iter_fail;
            for (int it = 0; ok && it < iterations; ++it) {
                Scope s(tr.spans, "core.iteration");
                core::IterationResult r = session.runIteration();
                if (!r.ok) {
                    ok = false;
                    iter_fail = r.failReason;
                }
            }
            session.teardown();
            SweepOutcome &o = outcomes[i];
            o.result = session.result();
            if (!iter_fail.empty()) {
                o.result.trainable = false;
                o.result.failReason = iter_fail;
            }
            gpu::Runtime &rt = session.runtime();
            o.simS = toSeconds(rt.now());
            o.events = rt.clock().executed();
            o.computeBusy = rt.computeBusyTime();
            o.copyBusy = rt.copyBusyTime(gpu::CopyDir::DeviceToHost) +
                         rt.copyBusyTime(gpu::CopyDir::HostToDevice);
            o.pcieBytes = rt.bytesCopied(gpu::CopyDir::DeviceToHost) +
                          rt.bytesCopied(gpu::CopyDir::HostToDevice);
            o.capacity = rt.spec().dramCapacity;
        }));
    }

    // --- gate, digest and metrics ---------------------------------------
    Digest d;
    int oracle_configs = 0, oracle_trained = 0;
    std::vector<double> norm, pool_peak, pool_avg;
    double stall_s = 0.0, iter_s = 0.0;
    TimeNs compute_busy = 0, copy_busy = 0;
    double total_sim_s = 0.0;
    Bytes pcie = 0, host_peak = 0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const SweepConfig &c = cfgs[i];
        const SweepOutcome &o = outcomes[i];
        const core::SessionResult &r = o.result;
        d.add(r.trainable);
        d.add(r.configName);
        d.add(r.iterationTime);
        d.add(r.featureExtractionTime);
        d.add(r.transferStallTime);
        d.add(r.maxTotalUsage);
        d.add(r.avgTotalUsage);
        d.add(r.avgManagedUsage);
        d.add(r.pcieBytesPerIter);
        d.add(r.hostPeakBytes);
        d.add(r.offloads);
        d.add(r.prefetches);
        d.add(r.onDemandFetches);
        d.add(int(r.trials.size()));
        d.add(o.events);
        out.events += o.events;
        compute_busy += o.computeBusy;
        copy_busy += o.copyBusy;
        total_sim_s += o.simS;
        pcie += o.pcieBytes;
        host_peak = std::max(host_peak, r.hostPeakBytes);
        ++out.attempted;

        if (c.oracle) {
            ++oracle_configs;
            if (r.trainable) {
                ++oracle_trained;
            } else {
                ++out.failed;
                out.gateErrors.push_back(
                    "oracle config did not train: " + r.network + " " +
                    r.configName + " (" + r.failReason + ")");
            }
            continue;
        }
        if (!r.trainable)
            continue; // an expected outcome on a real GPU (the paper's point)
        const core::SessionResult &ref = outcomes[std::size_t(c.reference)]
                                             .result;
        if (ref.trainable && r.featureExtractionTime > 0) {
            norm.push_back(double(ref.featureExtractionTime) /
                           double(r.featureExtractionTime));
        }
        stall_s += toSeconds(r.transferStallTime);
        iter_s += toSeconds(r.iterationTime);
        pool_peak.push_back(double(r.maxTotalUsage) / double(o.capacity));
        pool_avg.push_back(double(r.avgTotalUsage) / double(o.capacity));
    }
    out.outputDigest = d.value();

    // avg_mem_saving as in Fig. 11: vDNN_all (m) average managed usage
    // against the best trainable baseline ((p), else (m), else oracle).
    std::vector<double> savings;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const SweepConfig &c = cfgs[i];
        if (!c.paper || c.oracle || c.planner != kPlannerAllM ||
            !outcomes[i].result.trainable)
            continue;
        const core::SessionResult *base_p = nullptr, *base_m = nullptr;
        for (std::size_t j = 0; j < cfgs.size(); ++j) {
            if (!cfgs[j].paper || cfgs[j].net != c.net || cfgs[j].oracle)
                continue;
            if (!outcomes[j].result.trainable)
                continue;
            if (cfgs[j].planner == kPlannerBaseP)
                base_p = &outcomes[j].result;
            if (cfgs[j].planner == kPlannerBaseM)
                base_m = &outcomes[j].result;
        }
        const core::SessionResult &ref =
            base_p ? *base_p
                   : (base_m ? *base_m
                             : outcomes[std::size_t(c.reference)].result);
        if (ref.avgManagedUsage > 0) {
            savings.push_back(1.0 -
                              double(outcomes[i].result.avgManagedUsage) /
                                  double(ref.avgManagedUsage));
        }
    }

    out.sim["finished_frac"] =
        oracle_configs ? double(oracle_trained) / oracle_configs : 1.0;
    out.sim["norm_perf_geomean"] = geomean(norm);
    out.sim["avg_mem_saving"] = mean(savings);

    out.layer["core.stall_frac"] = iter_s > 0 ? stall_s / iter_s : 0.0;
    out.layer["gpu.compute_util"] =
        total_sim_s > 0 ? toSeconds(compute_busy) / total_sim_s : 0.0;
    out.layer["gpu.copy_busy_frac"] =
        total_sim_s > 0 ? toSeconds(copy_busy) / (2.0 * total_sim_s) : 0.0;
    out.layer["interconnect.pcie_gib"] = toGiB(pcie);
    out.layer["mem.pool_peak_frac"] = mean(pool_peak);
    out.layer["mem.pool_avg_frac"] = mean(pool_avg);
    out.layer["mem.host_stage_peak_gib"] = toGiB(host_peak);
    if (tr.spans)
        planStatsToLayers(plan_stats, out);
    registryToLayers(tr.metrics, 1, out);
    return out;
}

// --- serve workloads ---------------------------------------------------------

/** A serve workload: one scenario shape, simulated as `instances`
 *  independent seeded scenarios per repetition whose outcomes are
 *  pooled (more JCT samples per run, same load shape). */
struct ServeSetup
{
    serve::ScenarioConfig scenario;
    int instances = 1;
};

ServeSetup
serveSetup(Workload w, Scale scale)
{
    const bool smoke = scale == Scale::Smoke;
    ServeSetup s;
    s.instances = smoke ? 2 : 1;
    serve::ScenarioConfig &sc = s.scenario;
    switch (w) {
      case Workload::ClusterDiurnal:
        // Open loop at 0.267 tenants/s/device (256 tenants over 60 s
        // on 16 devices): each diurnal trough drains the backlog its
        // peak builds.
        sc.kind = serve::ScenarioKind::Diurnal;
        sc.tenants = smoke ? 24 : 256;
        sc.devices = smoke ? 3 : 16;
        sc.horizon = (smoke ? 20 : 60) * kNsPerSec;
        if (!smoke)
            s.instances = 16;
        break;
      case Workload::DensePacked:
        // Two bursts of ~256 tenants inside 2 s on one Titan X: the
        // queue runs hundreds deep and the device stays saturated until
        // it drains.
        sc.kind = serve::ScenarioKind::Bursty;
        sc.tenants = smoke ? 24 : 512;
        sc.devices = 1;
        sc.bursts = 2;
        sc.horizon = 2 * kNsPerSec;
        // A backlog this deep cannot finish within 6x isolated time on
        // one device; the limit sits inside the drain so attainment
        // measures how fast a burst is absorbed.
        sc.sloSlack = 200.0;
        if (!smoke)
            s.instances = 8;
        break;
      case Workload::PriorityChurn:
        // One third low-priority victims arriving at once, then two
        // thirds (>= 200) hostile high-priority arrivals over 200 s.
        sc.kind = serve::ScenarioKind::PriorityInversion;
        sc.tenants = smoke ? 12 : 300;
        sc.horizon = (smoke ? 20 : 800) * kNsPerSec;
        // Aged victims out-rank the stream within seconds, so the
        // high-priority class queues tens of seconds; 6x isolated time
        // would leave attainment near 0.
        sc.sloSlack = 100.0;
        if (!smoke)
            s.instances = 12;
        break;
      case Workload::PaperSweep:
        break;
    }
    return s;
}

std::unique_ptr<serve::Scheduler>
makeScheduler(Workload w, const serve::GeneratedScenario &scenario,
              const Tracing &tr)
{
    serve::SchedulerConfig cfg;
    cfg.policy = scenario.policy;
    cfg.devices = scenario.devices;
    if (scenario.devices.size() > 1) {
        cfg.placement = std::make_shared<serve::LoadBalancePlacement>();
        cfg.rebalancePeriod = 50 * kNsPerMs;
        cfg.rebalanceThreshold = 2;
    }
    if (w == Workload::DensePacked) {
        cfg.policy = serve::SchedPolicy::PackedOverlap;
        cfg.bufferPaging = true;
    }
    if (w == Workload::PriorityChurn) {
        cfg.preemptGranularity = serve::PreemptGranularity::Op;
        cfg.bufferPaging = true;
    }
    if (w != Workload::ClusterDiurnal) {
        // At the default 1.05, one to two seeds in a hundred of either
        // single-device workload fall into a setup-OOM cascade (dozens
        // of tenants end Failed); 1.25 held for 200-300 seeds of each.
        cfg.admissionSafety = 1.25;
    }
    cfg.telemetry.metrics = tr.metrics;
    return std::make_unique<serve::Scheduler>(cfg);
}

/** The correctness gate on one simulated scenario. */
void
checkServeGate(const serve::ServeReport &rep, RepResult &out)
{
    check::CheckResult audit = check::auditLedger(rep);
    if (!audit.ok())
        out.gateErrors.push_back("ledger audit: " + audit.report());
    int terminal =
        rep.finishedCount() + rep.failedCount() + rep.rejectedCount();
    if (terminal != int(rep.jobs.size())) {
        out.gateErrors.push_back(strFormat(
            "%d of %zu jobs not terminal", int(rep.jobs.size()) - terminal,
            rep.jobs.size()));
    }
    if (rep.reservedBytesAtEnd != 0 || rep.evictedLedgerAtEnd != 0) {
        out.gateErrors.push_back(
            strFormat("ledger not drained: %lld reserved bytes, %d evicted",
                      (long long)rep.reservedBytesAtEnd,
                      rep.evictedLedgerAtEnd));
    }
}

void
foldReport(Digest &d, const serve::ServeReport &rep)
{
    for (const serve::JobOutcome &j : rep.jobs) {
        d.add(int(j.state));
        d.add(j.admitTime);
        d.add(j.firstDispatchTime);
        d.add(j.finishTime);
        d.add(j.serviceTime);
        d.add(j.iterations);
        d.add(j.oomRequeues);
        d.add(j.preemptions);
        d.add(j.replans);
        d.add(j.pageOuts);
        d.add(j.victimsPreempted);
        d.add(j.migrations);
        for (int p : j.placements)
            d.add(p);
        d.add(j.persistentBytes);
        d.add(j.peakPoolBytes);
        d.add(j.offloadedBytes);
    }
    for (const serve::LifecycleEvent &e : rep.lifecycle) {
        d.add(e.when);
        d.add(e.job);
        d.add(std::string(e.what));
        d.add(e.device);
        d.add(e.reservedBefore);
        d.add(e.reservedAfter);
    }
    d.add(rep.makespan);
    d.add(rep.poolPeakBytes);
    d.add(rep.poolAvgBytes);
    d.add(rep.computeBusyTime);
    d.add(rep.copyBusyTime);
    d.add(rep.loopWakeups);
    d.add(rep.loopFruitlessPolls);
    d.add(rep.loopIdleAdvances);
}

/** Outcomes pooled over the instances of one repetition. */
struct ServePool
{
    std::vector<double> jct, hipriJct, queueS, preemptLatMs;
    int jobs = 0, finished = 0, sloEligible = 0, sloMet = 0;
    double iters = 0.0, makespanS = 0.0, deviceS = 0.0;
    double computeBusyS = 0.0, copyBusyS = 0.0;
    double poolPeakFrac = 0.0, poolAvgBytes = 0.0, poolCapacity = 0.0;
    double fruitless = 0.0, wakeups = 0.0, idleAdvances = 0.0;
    Bytes pcie = 0;
    std::map<std::string, int> lifecycle;
    int preemptions = 0, oomRequeues = 0;

    void add(const serve::ServeReport &rep, serve::Scheduler &sched);
    void finish(Workload w, std::uint64_t events, RepResult &out) const;
};

void
ServePool::add(const serve::ServeReport &rep, serve::Scheduler &sched)
{
    int top_priority = 0;
    for (const serve::JobOutcome &j : rep.jobs)
        top_priority = std::max(top_priority, j.priority);
    for (const serve::JobOutcome &j : rep.jobs) {
        iters += j.iterations;
        preemptions += j.victimsPreempted;
        oomRequeues += j.oomRequeues;
        if (j.admitTime != kTimeNone)
            queueS.push_back(toSeconds(j.queueingDelay));
        if (j.state != serve::JobState::Finished)
            continue;
        jct.push_back(toSeconds(j.completionTime));
        if (j.priority == top_priority)
            hipriJct.push_back(jct.back());
    }
    for (TimeNs lat : rep.preemptionLatencies())
        preemptLatMs.push_back(toMs(lat));
    for (const serve::LifecycleEvent &e : rep.lifecycle)
        ++lifecycle[e.what];
    jobs += int(rep.jobs.size());
    finished += rep.finishedCount();
    sloEligible += rep.sloEligible();
    sloMet += rep.sloMet();
    makespanS += toSeconds(rep.makespan);
    deviceS += toSeconds(rep.makespan) * rep.deviceCount;
    computeBusyS += toSeconds(rep.computeBusyTime);
    copyBusyS += toSeconds(rep.copyBusyTime);
    for (const serve::DeviceOutcome &dv : rep.devices) {
        poolPeakFrac = std::max(poolPeakFrac, double(dv.poolPeakBytes) /
                                                  double(dv.poolCapacity));
    }
    poolAvgBytes += double(rep.poolAvgBytes);
    poolCapacity += double(rep.poolCapacity);
    fruitless += double(rep.loopFruitlessPolls);
    wakeups += double(rep.loopWakeups);
    idleAdvances += double(rep.loopIdleAdvances);
    for (int dev = 0; dev < sched.deviceCount(); ++dev) {
        pcie += sched.device(dev).bytesCopied(gpu::CopyDir::DeviceToHost) +
                sched.device(dev).bytesCopied(gpu::CopyDir::HostToDevice);
    }
}

void
ServePool::finish(Workload w, std::uint64_t events, RepResult &out) const
{
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    out.sim["finished_frac"] = jobs ? double(finished) / jobs : 1.0;
    out.sim["sim_iters_per_s"] = ratio(iters, makespanS);
    out.sim["jct_p50_s"] = nearestRank(jct, 0.50);
    out.sim["jct_p95_s"] = nearestRank(jct, 0.95);
    // A failed or rejected job carrying an SLO counts as missed.
    out.sim["slo_attainment"] =
        sloEligible ? double(sloMet) / sloEligible : 1.0;
    if (w == Workload::PriorityChurn)
        out.sim["hipri_jct_p95_s"] = nearestRank(hipriJct, 0.95);

    auto count = [&](const char *what) {
        auto it = lifecycle.find(what);
        return it == lifecycle.end() ? 0.0 : double(it->second);
    };
    auto &L = out.layer;
    L["serve.jct_samples"] = double(jct.size());
    L["serve.admissions"] = count("admit");
    L["serve.migrations"] = count("migrate");
    L["serve.preemptions"] = preemptions;
    L["serve.parks"] = count("suspend");
    L["serve.evictions"] = count("evict");
    L["serve.resumes"] = count("resume");
    L["serve.page_outs"] = count("page-out");
    L["serve.oom_requeues"] = oomRequeues;
    L["serve.preempt_latency_p95_ms"] = nearestRank(preemptLatMs, 0.95);
    L["serve.queue_p95_s"] = nearestRank(queueS, 0.95);
    L["serve.wakeups"] = wakeups;
    L["serve.idle_advances"] = idleAdvances;
    L["serve.fruitless_per_event"] = ratio(fruitless, double(events));
    L["gpu.compute_util"] = ratio(computeBusyS, deviceS);
    // Two copy engines (one per direction) per device.
    L["gpu.copy_busy_frac"] = ratio(copyBusyS, 2.0 * deviceS);
    L["interconnect.pcie_gib"] = toGiB(pcie);
    L["mem.pool_peak_frac"] = poolPeakFrac;
    L["mem.pool_avg_frac"] = ratio(poolAvgBytes, poolCapacity);
}

RepResult
runServe(Workload w, std::uint64_t seed, Scale scale, const Tracing &tr)
{
    RepResult out;
    const ServeSetup setup = serveSetup(w, scale);
    SplitMix64 seeds(seed);
    PlanStats plan_stats;
    ServePool pool;
    Digest in, d;
    int devices = 0;
    for (int i = 0; i < setup.instances; ++i) {
        serve::ScenarioConfig sc = setup.scenario;
        sc.seed = seeds.next();

        // --- set-up: seed to first event --------------------------------
        serve::GeneratedScenario scenario;
        std::unique_ptr<serve::Scheduler> sched;
        out.setupS.push_back(timedS([&] {
            {
                Scope s(tr.spans, "serve.generate");
                scenario = serve::ScenarioGenerator(sc).generate();
            }
            sched = makeScheduler(w, scenario, tr);
            for (serve::JobSpec &spec : scenario.jobs) {
                spec.planner = maybeTrace(std::move(spec.planner),
                                          spec.exec, tr, plan_stats);
                Scope s(tr.spans, "serve.submit");
                sched->submit(std::move(spec));
            }
        }));
        for (std::size_t j = 0; j < scenario.jobs.size(); ++j) {
            const serve::JobSpec &spec = sched->job(serve::JobId(j)).spec;
            in.add(spec.name);
            in.add(spec.network->name());
            in.add(spec.planner->name());
            in.add(spec.arrival);
            in.add(spec.iterations);
            in.add(spec.priority);
            in.add(spec.sloJct);
        }

        // --- the simulation ----------------------------------------------
        serve::ServeReport rep;
        out.hostS.push_back(timedS([&] {
            Scope s(tr.spans, "serve.run");
            rep = sched->run();
        }));
        // One clock drives every device of the cluster.
        std::uint64_t events = sched->device(0).clock().executed();
        out.events += events;
        devices = sched->deviceCount();

        {
            Scope s(tr.spans, "check.audit");
            checkServeGate(rep, out);
        }
        foldReport(d, rep);
        d.add(events);
        pool.add(rep, *sched);
    }
    out.inputDigest = in.value();
    out.outputDigest = d.value();
    out.attempted = pool.jobs;
    out.failed = pool.jobs - pool.finished;
    pool.finish(w, out.events, out);
    if (tr.spans)
        planStatsToLayers(plan_stats, out);
    registryToLayers(tr.metrics, devices, out);
    return out;
}

} // namespace

RepResult
runRep(Workload w, std::uint64_t seed, Scale scale, const Tracing &tr)
{
    return w == Workload::PaperSweep ? runPaperSweep(seed, scale, tr)
                                     : runServe(w, seed, scale, tr);
}

} // namespace perfbench
