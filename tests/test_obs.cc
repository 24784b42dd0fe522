/**
 * @file
 * Tests for the telemetry subsystem (src/obs/): the Chrome trace-event
 * recorder, the metrics registry, the first-iteration profiler, and
 * the bound it measures for the admission footprint.
 *
 * The golden-count tests pin the instrumentation contract: a
 * deterministic run must emit exactly as many kernel / iteration /
 * lifecycle events as the simulation executed, a disabled recorder
 * must emit none, and a preemption must leave a flow arrow connecting
 * the victim's eviction to the beneficiary's admission.
 */

#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"

#include "common/units.hh"
#include "core/dynamic_policy.hh"
#include "core/planner.hh"
#include "core/training_session.hh"
#include "net/builders.hh"
#include "serve/admission.hh"
#include "serve/scheduler.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace vdnn;
using namespace vdnn::literals;

namespace
{

/** A tiny conv->relu->loss net for fast single-session runs. */
std::unique_ptr<net::Network>
tinyNet()
{
    dnn::TensorShape in{16, 3, 32, 32};
    auto n = std::make_unique<net::Network>("Tiny (16)", in);
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
countEvents(const obs::TraceRecorder &tr, char phase,
            const std::string &cat)
{
    int n = 0;
    for (const obs::TraceEvent &e : tr.events())
        n += (e.phase == phase && cat == e.cat) ? 1 : 0;
    return n;
}

} // namespace

// --- trace recorder ----------------------------------------------------------

TEST(TraceRecorder, RecordsAndSerializes)
{
    obs::TraceRecorder tr;
    tr.setProcessName(0, "GPU 0");
    tr.setThreadName(0, 7, "tenantA");
    tr.complete(0, 7, "kernel", "conv1 fwd", 1000, 3500,
                "{\"bytes\":42}");
    tr.instant(0, 7, "sched", "admit", 500);
    std::uint64_t flow = tr.flowStart(0, 7, "sched", "preempt", 4000);
    EXPECT_NE(flow, 0u);
    tr.flowEnd(flow, 0, 9, "sched", "preempt", 5000);
    EXPECT_EQ(tr.eventCount(), 4u);

    std::ostringstream os;
    tr.writeJson(os);
    std::string json = os.str();
    // Structure: metadata first, then the recorded events; 'f' events
    // bind to the enclosing slice, instants are thread-scoped.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("tenantA"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    // ns -> us: the 1000 ns kernel start prints as 1.000 us.
    EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
    EXPECT_LT(json.find("process_name"), json.find("\"ph\":\"X\""));
}

TEST(TraceRecorder, DisabledRecordsNothing)
{
    obs::TraceRecorder tr(/*enabled=*/false);
    tr.complete(0, 0, "kernel", "k", 0, 10);
    tr.instant(0, 0, "sched", "admit", 0);
    EXPECT_EQ(tr.flowStart(0, 0, "sched", "preempt", 0), 0u);
    tr.flowEnd(0, 0, 0, "sched", "preempt", 1);
    EXPECT_EQ(tr.eventCount(), 0u);
}

// --- metrics registry --------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateAndSnapshotRoundTrip)
{
    obs::MetricsRegistry m;
    obs::Counter &c = m.counter("gpu0.kernels");
    c.add();
    c.add(2.0);
    // Find-or-create returns the same object.
    EXPECT_EQ(&m.counter("gpu0.kernels"), &c);
    EXPECT_DOUBLE_EQ(m.counter("gpu0.kernels").value(), 3.0);

    double busy = 12.5;
    m.gauge("gpu0.busy", [&busy] { return busy; });
    m.accumulator("jct").add(100.0);
    m.accumulator("jct").add(300.0);
    stats::Histogram &h = m.histogram("iter_ms", 0.0, 100.0, 10);
    EXPECT_EQ(&m.histogram("iter_ms", 0.0, 100.0, 10), &h);
    h.add(50.0);
    EXPECT_EQ(m.size(), 4u);

    std::string json = m.snapshotJson(123456789);
    EXPECT_NE(json.find("\"sim_time_ns\":123456789"), std::string::npos);
    EXPECT_NE(json.find("\"gpu0.kernels\":3"), std::string::npos);
    EXPECT_NE(json.find("\"gpu0.busy\":12.5"), std::string::npos);
    EXPECT_NE(json.find("\"jct\":{\"count\":2,\"mean\":200"),
              std::string::npos);
    EXPECT_NE(json.find("\"iter_ms\":{\"count\":1"), std::string::npos);

    // The gauge samples lazily: a later snapshot sees the new value.
    busy = 99.0;
    EXPECT_NE(m.snapshotJson(0).find("\"gpu0.busy\":99"),
              std::string::npos);
}

// --- first-iteration profiler ------------------------------------------------

TEST(Profiler, GroundTruthSparsityDeterministicAndBounded)
{
    for (int b = 0; b < 64; ++b) {
        for (double depth : {0.0, 0.25, 0.5, 1.0}) {
            double s = obs::groundTruthReluSparsity(b, depth);
            EXPECT_GE(s, 0.0);
            EXPECT_LE(s, 0.97);
            EXPECT_DOUBLE_EQ(s, obs::groundTruthReluSparsity(b, depth));
        }
    }
    // Depth dominates the jitter: deep layers are sparser.
    EXPECT_GT(obs::groundTruthReluSparsity(3, 1.0),
              obs::groundTruthReluSparsity(3, 0.0));
}

TEST(Profiler, SessionCollectsFootprintOnFirstIteration)
{
    auto network = tinyNet();
    core::SessionConfig cfg;
    cfg.planner = std::make_shared<core::OffloadAllPlanner>(
        core::AlgoPreference::MemoryOptimal);
    core::Session session(*network, cfg);
    ASSERT_TRUE(session.setup());
    EXPECT_FALSE(session.profiledFootprint().valid);

    ASSERT_TRUE(session.runIteration().ok);
    const obs::ProfiledFootprint &fp = session.profiledFootprint();
    EXPECT_TRUE(fp.valid);
    EXPECT_GT(fp.persistent, 0);
    EXPECT_GT(fp.transientPeak, 0);
    EXPECT_GT(fp.iterationTime, 0);
    EXPECT_GT(fp.pcieBytes, 0);
    EXPECT_EQ(fp.layers.size(), network->numLayers());
    // The relu output buffer got a measured sparsity; non-relu
    // buffers stay unmeasured (-1).
    int measured = 0;
    for (std::size_t b = 0; b < fp.bufferSparsity.size(); ++b) {
        double s = fp.sparsityFor(int(b));
        if (s >= 0.0) {
            ++measured;
            EXPECT_LE(s, 0.97);
        }
    }
    EXPECT_GE(measured, 1);
    EXPECT_DOUBLE_EQ(fp.sparsityFor(-1), -1.0);
    EXPECT_DOUBLE_EQ(fp.sparsityFor(1000), -1.0);
    session.teardown();
}

TEST(Profiler, MeasuredSparsityFeedsCompressedPlanner)
{
    auto network = tinyNet();
    core::CompressedOffloadPlanner planner(
        core::AlgoPreference::MemoryOptimal);
    core::PlannerContext ctx =
        core::PlannerContext::exclusive(gpu::titanXMaxwell());
    core::MemoryPlan analytic = planner.plan(*network, ctx);

    // Hand the planner a profile claiming the relu outputs compress
    // far better than the analytic ramp assumes.
    obs::ProfiledFootprint fp;
    fp.valid = true;
    fp.bufferSparsity.assign(network->numBuffers(), -1.0);
    int relus = 0;
    for (net::BufferId b = 0;
         b < net::BufferId(network->numBuffers()); ++b) {
        if (core::holdsReluOutput(*network, b)) {
            fp.bufferSparsity[std::size_t(b)] = 0.95;
            ++relus;
        }
    }
    ASSERT_GE(relus, 1);
    ctx.profile = &fp;
    core::MemoryPlan measured = planner.plan(*network, ctx);
    EXPECT_NE(measured.provenance.find("profiled"), std::string::npos);

    // Measured sparsity 0.95 -> dmaScale ~0.05x; strictly below the
    // analytic ramp on at least one compressed buffer.
    bool shrunk = false;
    for (std::size_t b = 0; b < analytic.buffers.size(); ++b) {
        if (fp.bufferSparsity[b] >= 0.0 &&
            measured.buffers[b].dmaScale <
                analytic.buffers[b].dmaScale) {
            shrunk = true;
        }
    }
    EXPECT_TRUE(shrunk);
}

// --- admission footprint vs the profiled first iteration --------------------

TEST(Admission, FootprintBoundsTheMeasuredFirstIteration)
{
    // Admission reserves the plan's static footprint and never revises
    // it: one exclusive iteration must measure at least that much, per
    // component, on every paper network and planner.
    gpu::GpuSpec titan = gpu::titanXMaxwell();
    std::vector<std::unique_ptr<net::Network>> nets;
    nets.push_back(net::buildAlexNet(128));
    nets.push_back(net::buildOverFeat(64));
    nets.push_back(net::buildVgg16(64));
    nets.push_back(net::buildGoogLeNet(64));
    using core::AlgoPreference;
    std::vector<std::shared_ptr<core::Planner>> planners = {
        std::make_shared<core::BaselinePlanner>(
            AlgoPreference::MemoryOptimal),
        std::make_shared<core::OffloadAllPlanner>(
            AlgoPreference::MemoryOptimal),
        std::make_shared<core::OffloadAllPlanner>(
            AlgoPreference::PerformanceOptimal),
        std::make_shared<core::OffloadConvPlanner>(
            AlgoPreference::MemoryOptimal),
        std::make_shared<core::CompressedOffloadPlanner>(
            AlgoPreference::MemoryOptimal),
        std::make_shared<core::DynamicPlanner>(),
    };
    for (const auto &network : nets) {
        for (const auto &planner : planners) {
            std::string what = network->name() + " x " + planner->name();
            core::SessionConfig cfg;
            cfg.planner = planner;
            cfg.gpu = titan;
            core::Session session(*network, cfg);
            ASSERT_TRUE(session.setup()) << what;
            ASSERT_TRUE(session.runIteration().ok) << what;
            const obs::ProfiledFootprint &fp = session.profiledFootprint();
            ASSERT_TRUE(fp.valid) << what;
            serve::FootprintEstimate est =
                serve::estimateFootprint(*network, session.plan());
            EXPECT_GE(fp.persistent, est.persistent) << what;
            EXPECT_GE(fp.transientPeak, est.transient) << what;
            session.teardown();
        }
    }
}

TEST(Admission, FootprintPinsOnAlexNet)
{
    // Pinned so that a change to the verifier's peak or to the
    // persistent formula cannot move admission reservations unnoticed.
    auto alex = net::buildAlexNet(128);
    core::PlannerContext ctx =
        core::PlannerContext::exclusive(gpu::titanXMaxwell());
    serve::FootprintEstimate all = serve::estimateFootprint(
        *alex,
        core::OffloadAllPlanner(core::AlgoPreference::MemoryOptimal)
            .plan(*alex, ctx));
    EXPECT_EQ(all.persistent, 408367264);
    EXPECT_EQ(all.transient, 396492800);
    serve::FootprintEstimate conv = serve::estimateFootprint(
        *alex,
        core::OffloadConvPlanner(core::AlgoPreference::MemoryOptimal)
            .plan(*alex, ctx));
    EXPECT_EQ(conv.transient, 484900864);
}

// --- end-to-end instrumentation ----------------------------------------------

TEST(Telemetry, GoldenEventCountsOnSingleTenantRun)
{
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    serve::SchedulerConfig cfg;
    cfg.telemetry.trace = &trace;
    cfg.telemetry.metrics = &metrics;
    serve::Scheduler sched(cfg);
    serve::JobSpec spec;
    spec.name = "solo";
    spec.network = net::buildAlexNet(128);
    spec.iterations = 2;
    serve::JobId id = sched.submit(std::move(spec));
    serve::ServeReport rep = sched.run();
    ASSERT_EQ(rep.finishedCount(), 1);

    // Every kernel completion landed on the timeline, and the counter
    // agrees with the event stream.
    int kernels = countEvents(trace, 'X', "kernel");
    EXPECT_GT(kernels, 0);
    EXPECT_DOUBLE_EQ(metrics.counter("gpu0.kernels").value(),
                     double(kernels));
    // DMA spans and byte counters moved together.
    EXPECT_GT(countEvents(trace, 'X', "dma"), 0);
    EXPECT_GT(metrics.counter("gpu0.dma_d2h_bytes").value(), 0.0);
    // One iteration span per completed iteration, in time order.
    std::vector<TimeNs> iter_starts;
    for (const obs::TraceEvent &e : trace.events()) {
        if (e.phase == 'X' && std::string(e.cat) == "iteration")
            iter_starts.push_back(e.ts);
    }
    ASSERT_EQ(iter_starts.size(), 2u);
    EXPECT_LT(iter_starts[0], iter_starts[1]);
    EXPECT_DOUBLE_EQ(metrics.counter("exec.iterations").value(), 2.0);
    // Scheduler decisions: admit, finish — on tenant lane id.
    EXPECT_EQ(countEvents(trace, 'i', "sched"), 2);
    for (const obs::TraceEvent &e : trace.events()) {
        if (std::string(e.cat) == "sched") {
            EXPECT_EQ(e.tid, id);
        }
    }
    EXPECT_DOUBLE_EQ(metrics.counter("sched.admissions").value(), 1.0);
}

TEST(Telemetry, PreemptionFlowConnectsVictimAndBeneficiary)
{
    // Two Baseline VGG-16 (64) tenants can never share the 12 GiB
    // device: the high-priority arrival evicts the incumbent, and the
    // trace must draw the arrow from victim to beneficiary.
    obs::TraceRecorder trace;
    serve::SchedulerConfig cfg;
    cfg.policy = serve::SchedPolicy::PreemptivePriority;
    cfg.telemetry.trace = &trace;
    serve::Scheduler sched(cfg);
    std::shared_ptr<const net::Network> vgg = net::buildVgg16(64);

    serve::JobSpec low;
    low.network = vgg;
    low.planner = std::make_shared<core::BaselinePlanner>();
    low.iterations = 3;
    serve::JobId low_id = sched.submit(std::move(low));

    serve::JobSpec high;
    high.network = vgg;
    high.planner = std::make_shared<core::BaselinePlanner>();
    high.priority = 10;
    high.arrival = 1 * kNsPerMs;
    high.iterations = 2;
    serve::JobId high_id = sched.submit(std::move(high));

    serve::ServeReport rep = sched.run();
    ASSERT_EQ(rep.finishedCount(), 2);
    ASSERT_EQ(rep.jobs[std::size_t(low_id)].preemptions, 1);

    const obs::TraceEvent *start = nullptr;
    const obs::TraceEvent *end = nullptr;
    for (const obs::TraceEvent &e : trace.events()) {
        if (e.phase == 's' && e.name == "preempt")
            start = &e;
        if (e.phase == 'f' && e.name == "preempt")
            end = &e;
    }
    ASSERT_NE(start, nullptr);
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(start->flowId, end->flowId);
    EXPECT_EQ(start->tid, low_id);  // arrow leaves the victim...
    EXPECT_EQ(end->tid, high_id);   // ...and lands on the beneficiary
    EXPECT_LE(start->ts, end->ts);
    // Lifecycle instants flank the arrow on the victim lane: the
    // scheduler parks and later resumes it, and the session restores
    // its state from the host.
    bool saw_suspend = false, saw_resume = false, saw_restore = false;
    for (const obs::TraceEvent &e : trace.events()) {
        if (e.tid != low_id)
            continue;
        std::string cat = e.cat;
        saw_suspend |= cat == "sched" && e.name == "suspend";
        saw_resume |= cat == "sched" && e.name == "resume";
        saw_restore |= cat == "session" && e.name == "resume-from-evict";
    }
    EXPECT_TRUE(saw_suspend);
    EXPECT_TRUE(saw_resume);
    EXPECT_TRUE(saw_restore);
}

TEST(Telemetry, DisabledRecorderLeavesZeroEvents)
{
    // The always-compiled hooks must be inert when the recorder is
    // disabled — the <2% bench_simspeed overhead budget depends on it.
    obs::TraceRecorder trace(/*enabled=*/false);
    obs::MetricsRegistry metrics;
    serve::SchedulerConfig cfg;
    cfg.telemetry.trace = &trace;
    cfg.telemetry.metrics = &metrics;
    serve::Scheduler sched(cfg);
    serve::JobSpec spec;
    spec.network = net::buildAlexNet(128);
    spec.iterations = 2;
    sched.submit(std::move(spec));
    serve::ServeReport rep = sched.run();
    ASSERT_EQ(rep.finishedCount(), 1);
    EXPECT_EQ(trace.eventCount(), 0u);
    // Counters still accumulate (they are registered, not traced).
    EXPECT_GT(metrics.counter("gpu0.kernels").value(), 0.0);
}
