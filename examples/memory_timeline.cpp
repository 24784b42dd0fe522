/**
 * @file
 * Memory timeline dump: run one iteration and emit the GPU pool usage
 * as a CSV time series (for plotting the sawtooth the vDNN policies
 * produce versus the baseline's flat line).
 *
 * Usage: memory_timeline [mode|policy] > out.csv
 *   policy:  base | conv | all | dyn    usage CSV (default all)
 *   ops:     print the compiled IterationProgram op stream for a
 *            3-layer net under vDNN_all (the step machine the
 *            executor and the packed-overlap scheduler both drive)
 *   overlap: run two vDNN_all tenants under the packed-overlap
 *            scheduler and emit the engine timeline as CSV — shows
 *            tenant B's kernels executing under tenant A's DMAs
 *   lifecycle: run a mixed-priority preemption scenario under
 *            SchedPolicy::PreemptivePriority and emit the tenant
 *            lifecycle audit log as CSV — every admit / suspend /
 *            evict / replan / resume / finish transition with the
 *            device it happened on and the admission ledger's
 *            reserved-byte delta
 *   trace:   run the Fig. 14 single-tenant config (VGG-16 (64) under
 *            vDNN_all) with telemetry attached and emit the Chrome
 *            trace-event timeline as JSON on stdout — load it in
 *            chrome://tracing or Perfetto to see kernels, offload /
 *            prefetch DMAs and iteration spans on one time axis
 *   verify:  run the static PlanVerifier + ProgramVerifier
 *            (src/check/) over every built-in planner x network
 *            combination and print one PASS/FAIL row each with the
 *            plan's provable peak residency; exits nonzero if any
 *            combination has an error-level finding
 */

#include "check/plan_verifier.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "core/dynamic_policy.hh"
#include "core/iteration_program.hh"
#include "core/planner.hh"
#include "core/training_session.hh"
#include "net/builders.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/scheduler.hh"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

using namespace vdnn;
using namespace vdnn::core;

namespace
{

/** The 3-layer net the README's op-stream listing shows. */
std::unique_ptr<net::Network>
buildThreeLayerNet()
{
    dnn::TensorShape in{16, 3, 32, 32};
    auto n = std::make_unique<net::Network>("ThreeLayer (16)", in);
    dnn::ConvParams c;
    c.outChannels = 16;
    c.padH = c.padW = 1;
    n->append(dnn::makeConv("conv1", in, c));
    auto out = n->node(0).spec.out;
    n->append(dnn::makeActivation("relu1", out));
    n->append(dnn::makeSoftmaxLoss("loss", out));
    n->finalize();
    return n;
}

int
dumpOps()
{
    auto network = buildThreeLayerNet();
    OffloadAllPlanner planner(AlgoPreference::MemoryOptimal);
    MemoryPlan plan = planner.plan(
        *network, PlannerContext::exclusive(gpu::titanXMaxwell()));
    IterationProgram program =
        IterationProgram::compile(*network, plan, ExecutorConfig{});
    std::printf("# %s under %s: %zu-op IterationProgram\n",
                network->name().c_str(), planner.name().c_str(),
                program.size());
    std::fputs(program.dump(*network).c_str(), stdout);
    return 0;
}

int
dumpOverlap()
{
    using namespace vdnn::serve;
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PackedOverlap;
    Scheduler sched(cfg);
    sched.device(0).setKernelLog(true);

    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);
    for (int i = 0; i < 2; ++i) {
        JobSpec spec;
        spec.name = strFormat("tenant%c", 'A' + i);
        spec.network = vgg;
        spec.planner = std::make_shared<OffloadAllPlanner>(
            AlgoPreference::MemoryOptimal);
        spec.iterations = 1;
        sched.submit(std::move(spec));
    }
    gpu::Device &rt = sched.device(0);
    ServeReport rep = sched.run();

    std::printf("# 2 VGG-16 (64) vDNN_all tenants, packed-overlap: "
                "engine timeline\n");
    std::printf("start_ms,end_ms,engine,tenant,op\n");
    // Merge kernels and copies into one chronological listing.
    std::size_t ki = 0;
    std::size_t ci = 0;
    const auto &ks = rt.kernelLog();
    const auto &cs = rt.copyLog();
    while (ki < ks.size() || ci < cs.size()) {
        bool kernel_next =
            ci >= cs.size() ||
            (ki < ks.size() && ks[ki].start <= cs[ci].start);
        if (kernel_next) {
            const auto &k = ks[ki++];
            std::printf("%.3f,%.3f,compute,%d,%s\n", toMs(k.start),
                        toMs(k.end), k.client, k.name.c_str());
        } else {
            const auto &c = cs[ci++];
            std::printf("%.3f,%.3f,%s,%d,%s\n", toMs(c.start),
                        toMs(c.end),
                        c.dir == gpu::CopyDir::DeviceToHost ? "dma_d2h"
                                                            : "dma_h2d",
                        c.client, c.tag.c_str());
        }
    }
    std::fprintf(stderr,
                 "%d jobs finished; makespan %.1f ms; compute util "
                 "%.3f\n",
                 rep.finishedCount(), toMs(rep.makespan),
                 rep.computeUtilization());
    return 0;
}

int
dumpLifecycle()
{
    using namespace vdnn::serve;
    // An 11 GiB device so the vDNN_dyn tenant is squeezed beside the
    // Baseline hog: the run exercises every transition — the urgent
    // arrival preempts (suspend -> evict), the victim resumes, and
    // the hog's exit triggers the grow-back replan sweep.
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::PreemptivePriority;
    cfg.devices[0].dramCapacity = Bytes(11) * 1024 * 1024 * 1024;
    Scheduler sched(cfg);

    JobSpec hog;
    hog.name = "hog";
    hog.network = net::buildVgg16(64);
    hog.planner = std::make_shared<BaselinePlanner>();
    hog.iterations = 3;
    sched.submit(std::move(hog));

    JobSpec dyn;
    dyn.name = "dyn";
    dyn.network = net::buildVgg16(64);
    dyn.planner = std::make_shared<DynamicPlanner>();
    dyn.arrival = 1 * kNsPerMs;
    dyn.iterations = 6;
    sched.submit(std::move(dyn));

    JobSpec urgent;
    urgent.name = "urgent";
    urgent.network = net::buildVgg16(32);
    urgent.planner = std::make_shared<BaselinePlanner>();
    urgent.priority = 10;
    urgent.arrival = 1000 * kNsPerMs;
    urgent.iterations = 1;
    sched.submit(std::move(urgent));

    ServeReport rep = sched.run();

    std::printf("# mixed-priority tenants under preemptive-priority: "
                "tenant lifecycle audit log\n");
    std::printf("time_ms,job,event,device,reserved_before_mib,"
                "reserved_after_mib,delta_mib\n");
    for (const LifecycleEvent &ev : rep.lifecycle) {
        std::printf("%.3f,%s,%s,%d,%.1f,%.1f,%+.1f\n", toMs(ev.when),
                    rep.jobs[std::size_t(ev.job)].name.c_str(), ev.what,
                    ev.device,
                    toMiB(ev.reservedBefore), toMiB(ev.reservedAfter),
                    toMiB(ev.reservedAfter) - toMiB(ev.reservedBefore));
    }
    std::fprintf(stderr,
                 "%d jobs finished; %zu lifecycle events; reserved at "
                 "end %lld B (must be 0)\n",
                 rep.finishedCount(), rep.lifecycle.size(),
                 (long long)rep.reservedBytesAtEnd);
    return rep.finishedCount() == 3 && rep.reservedBytesAtEnd == 0 ? 0
                                                                   : 1;
}

int
dumpTrace()
{
    // The Fig. 14 single-tenant run with the telemetry pillar on: one
    // session run alone, two iterations (the second is the profiled
    // steady state), every kernel / DMA / iteration span recorded.
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    auto network = net::buildVgg16(64);
    SessionConfig cfg;
    cfg.planner = std::make_shared<OffloadAllPlanner>(
        AlgoPreference::MemoryOptimal);
    Session session(*network, cfg);
    obs::Telemetry tele;
    tele.trace = &trace;
    tele.metrics = &metrics;
    session.runtime().setTelemetry(tele);
    if (!session.setup()) {
        std::fprintf(stderr, "setup failed: %s\n",
                     session.failReason().c_str());
        return 1;
    }
    for (int i = 0; i < 2; ++i) {
        if (!session.runIteration().ok) {
            std::fprintf(stderr, "iteration failed: %s\n",
                         session.failReason().c_str());
            return 1;
        }
    }
    session.teardown();
    trace.writeJson(std::cout);
    std::fprintf(stderr, "%zu trace events; metrics snapshot:\n",
                 trace.eventCount());
    metrics.writeSnapshot(std::cerr, session.runtime().now());
    return 0;
}

/**
 * Statically verify every built-in planner against every paper
 * network: plan, prove admissibility, compile, and run the program
 * through the abstract interpreter. No simulated device is involved
 * except for DynamicPlanner's own trial iterations.
 */
int
runVerify()
{
    struct NetCase
    {
        const char *label;
        std::unique_ptr<net::Network> net;
    };
    std::vector<NetCase> nets;
    nets.push_back({"AlexNet (128)", net::buildAlexNet(128)});
    nets.push_back({"OverFeat (128)", net::buildOverFeat(128)});
    nets.push_back({"VGG-16 (64)", net::buildVgg16(64)});
    nets.push_back({"GoogLeNet (128)", net::buildGoogLeNet(128)});

    ExecutorConfig exec;
    std::vector<std::shared_ptr<Planner>> planners = {
        std::make_shared<BaselinePlanner>(AlgoPreference::MemoryOptimal),
        std::make_shared<OffloadAllPlanner>(),
        std::make_shared<OffloadConvPlanner>(),
        std::make_shared<CompressedOffloadPlanner>(),
        std::make_shared<DynamicPlanner>(exec),
    };

    PlannerContext ctx = PlannerContext::exclusive(gpu::titanXMaxwell());
    std::printf("%-16s %-22s %-6s %8s %8s  %s\n", "network", "planner",
                "result", "peak_mib", "cap_mib", "notes");
    int failures = 0;
    for (const NetCase &nc : nets) {
        for (const auto &planner : planners) {
            MemoryPlan plan = planner->plan(*nc.net, ctx);
            check::CheckResult r = plan.feasible
                ? check::verifyPlan(*nc.net, plan, ctx, exec)
                : check::CheckResult{};
            if (!plan.feasible) {
                r.add(check::DiagCode::Infeasible,
                      check::Severity::Error, plan.failReason);
            }
            bool pass = r.ok();
            failures += !pass;
            std::string notes;
            if (r.provablePeakBytes > ctx.capacity())
                notes = "exceeds device (vDNN's motivation)";
            for (const check::Diagnostic &d : r.diags) {
                if (d.severity == check::Severity::Error) {
                    notes = d.str();
                    break;
                }
            }
            std::printf("%-16s %-22s %-6s %8.0f %8.0f  %s\n",
                        nc.label, planner->name().c_str(),
                        pass ? "PASS" : "FAIL",
                        toMiB(r.provablePeakBytes),
                        toMiB(ctx.capacity()), notes.c_str());
        }
    }
    std::fprintf(stderr, "%d of %zu combinations failed\n", failures,
                 nets.size() * planners.size());
    return failures > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = argc > 1 ? argv[1] : "all";
    if (mode == "ops")
        return dumpOps();
    if (mode == "verify")
        return runVerify();
    if (mode == "overlap")
        return dumpOverlap();
    if (mode == "lifecycle")
        return dumpLifecycle();
    if (mode == "trace")
        return dumpTrace();

    std::shared_ptr<Planner> planner;
    if (mode == "base") {
        planner = std::make_shared<BaselinePlanner>(
            AlgoPreference::MemoryOptimal);
    } else if (mode == "conv") {
        planner = std::make_shared<OffloadConvPlanner>();
    } else if (mode == "all") {
        planner = std::make_shared<OffloadAllPlanner>();
    } else if (mode == "dyn") {
        planner = std::make_shared<DynamicPlanner>();
    } else {
        fatal("unknown mode '%s'", mode.c_str());
    }

    auto network = net::buildVgg16(64);
    SessionConfig cfg;
    cfg.planner = planner;
    cfg.iterations = 1;
    cfg.keepTimeline = true;
    auto r = runSession(*network, cfg);
    if (!r.trainable) {
        std::fprintf(stderr, "cannot train: %s\n", r.failReason.c_str());
        return 1;
    }

    std::printf("# %s under %s on Titan X; usage in MiB, time in ms\n",
                network->name().c_str(), planner->name().c_str());
    std::printf("time_ms,total_mib,managed_mib\n");
    // Merge the two signals on the total-usage change points.
    std::size_t mi = 0;
    double managed = 0.0;
    for (const auto &s : r.totalTimeline) {
        while (mi < r.managedTimeline.size() &&
               r.managedTimeline[mi].when <= s.when) {
            managed = r.managedTimeline[mi].value;
            ++mi;
        }
        std::printf("%.3f,%.1f,%.1f\n", toMs(s.when),
                    s.value / double(kMiB), managed / double(kMiB));
    }
    std::fprintf(stderr,
                 "%zu samples; peak %.0f MiB, average %.0f MiB\n",
                 r.totalTimeline.size(), toMiB(r.maxTotalUsage),
                 toMiB(r.avgTotalUsage));
    return 0;
}
