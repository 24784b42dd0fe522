#include "core/training_session.hh"

#include "common/logging.hh"
#include "common/units.hh"
#include "dnn/cudnn_sim.hh"

#include <algorithm>

namespace vdnn::core
{

SessionConfig::SessionConfig() : gpu(gpu::titanXMaxwell()) {}

std::string
sessionConfigName(const SessionConfig &config)
{
    std::string name =
        config.planner ? config.planner->name() : "vDNN_dyn";
    if (config.oracle)
        name += " [oracle]";
    return name;
}

const char *
sessionStateName(SessionState s)
{
    switch (s) {
      case SessionState::Fresh:
        return "fresh";
      case SessionState::Active:
        return "active";
      case SessionState::Evicted:
        return "evicted";
      case SessionState::Torn:
        return "torn";
    }
    return "?";
}

SharedGpu
shareOf(gpu::Cluster &cluster, int device, int client)
{
    return {&cluster.device(device), &cluster.pool(device),
            &cluster.host(device), client};
}

// --- Session -----------------------------------------------------------------

namespace
{

/** The one-device cluster a Session run alone is the tenant of. */
gpu::ClusterSpec
privateCluster(const SessionConfig &config)
{
    gpu::GpuSpec spec = config.gpu;
    if (config.oracle) {
        // Hypothetical GPU with enough memory to hold the entire DNN.
        spec.dramCapacity = Bytes(1024) * 1024 * 1024 * 1024;
        spec.name += " (oracle)";
    }
    return {{spec}, config.contention};
}

} // namespace

Session::Session(const net::Network &net_, SessionConfig config_)
    : net(net_), config(std::move(config_)),
      ownCluster(std::make_unique<gpu::Cluster>(privateCluster(config)))
{
    bind(shareOf(*ownCluster, 0, 0));
    rt->setKernelLog(config.kernelLog);
}

Session::Session(const net::Network &net_, SessionConfig config_,
                 SharedGpu shared)
    : net(net_), config(std::move(config_))
{
    VDNN_ASSERT(!config.oracle,
                "oracle mode is meaningless on a shared device");
    bind(shared);
}

void
Session::bind(SharedGpu gpu)
{
    VDNN_ASSERT(gpu.runtime && gpu.pool && gpu.host,
                "SharedGpu handles must all be set");
    rt = gpu.runtime;
    programs = gpu.programs;
    spec = rt->spec();
    cudnn = std::make_unique<dnn::CudnnSim>(spec);
    mm = std::make_unique<MemoryManager>(*rt, *gpu.pool, *gpu.host,
                                         gpu.clientId, config.keepTimeline);
}

Session::~Session()
{
    if (lifecycle != SessionState::Torn)
        teardown();
}

PlannerContext
Session::plannerContext() const
{
    // A tenant plans against its current free share (the whole device
    // when it is alone on it), so trial-running planners (vDNN_dyn)
    // probe what it can actually get. A mid-run re-plan keeps the
    // persistent state allocated, so those bytes count toward the
    // share the fresh plan may assume.
    Bytes share = mm->pool().freeBytes() + (ex ? ex->persistentBytes() : 0);
    PlannerContext ctx = PlannerContext::shared(spec, share,
                                                config.contention,
                                                rt->deviceId());
    // Once the first iteration has been profiled, planners see the
    // measured sparsity instead of their analytic model.
    ctx.profile = profiledFp.valid ? &profiledFp : nullptr;
    return ctx;
}

void
Session::traceLifecycle(const char *what)
{
    if (rt->telemetry().tracing()) {
        rt->telemetry().trace->instant(rt->deviceId(), mm->clientId(),
                                       "session", what, rt->now());
    }
}

void
Session::collectProfile(const IterationResult &r)
{
    profiledFp.valid = true;
    profiledFp.persistent = ex->persistentBytes();
    profiledFp.transientPeak = std::max<Bytes>(
        mm->totalTracker().peakBytes() - profiledFp.persistent, 0);
    profiledFp.iterationTime = r.makespan();
    profiledFp.pcieBytes = r.pcieBytes;
    profiledFp.layers.clear();
    profiledFp.layers.reserve(r.layers.size());
    for (const LayerTiming &lt : r.layers) {
        profiledFp.layers.push_back(obs::ProfiledLayer{
            int(lt.id), lt.fwdLatency(), lt.bwdLatency()});
    }

    // Measure activation sparsity for every buffer holding post-ReLU
    // data, at the same depth normalization the compressing planner
    // uses, so a re-plan can swap its analytic model for these values.
    int max_topo = 1;
    for (net::LayerId id : net.topoOrder()) {
        if (!net.node(id).classifier)
            max_topo = std::max(max_topo, net.node(id).topoIndex);
    }
    profiledFp.bufferSparsity.assign(net.numBuffers(), -1.0);
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (!holdsReluOutput(net, b))
            continue;
        net::LayerId producer = net.buffer(b).producer;
        double depth = producer == net::kInputLayer
                           ? 0.0
                           : double(net.node(producer).topoIndex) /
                                 double(max_topo);
        profiledFp.bufferSparsity[std::size_t(b)] =
            obs::groundTruthReluSparsity(int(b), depth);
    }
    traceLifecycle("profiled");
}

bool
Session::resolvePlan()
{
    if (planResolved)
        return true;

    if (!config.planner)
        config.planner = std::make_shared<DynamicPlanner>(config.exec);
    plannerLabel = config.planner->name();
    if (config.oracle)
        plannerLabel += " [oracle]";

    execPlan = config.planner->plan(net, plannerContext());
    trials = execPlan.trials;
    if (!execPlan.feasible) {
        failed = true;
        failure = execPlan.failReason.empty() ? "untrainable"
                                              : execPlan.failReason;
        return false;
    }
    planResolved = true;
    return true;
}

bool
Session::setup()
{
    VDNN_ASSERT(lifecycle == SessionState::Fresh,
                "setup() on a %s session",
                sessionStateName(lifecycle));
    if (!resolvePlan())
        return false;
    ex = std::make_unique<Executor>(net, *cudnn, *rt, *mm, execPlan,
                                    config.exec, programs);
    if (!ex->setup()) {
        failed = true;
        failure = strFormat(
            "setup OOM ('%s', requested %s, largest free block %s)",
            mm->pool().lastOom().tag.c_str(),
            formatBytes(mm->pool().lastOom().requested).c_str(),
            formatBytes(mm->pool().lastOom().largestFree).c_str());
        ex.reset();
        return false;
    }
    failed = false;
    failure.clear();
    lifecycle = SessionState::Active;
    return true;
}

IterationResult
Session::runIteration()
{
    beginIteration();
    ex->drain();
    return completeIteration();
}

void
Session::beginIteration()
{
    VDNN_ASSERT(active(), "beginIteration() on a %s session",
                sessionStateName(lifecycle));
    ex->beginIteration();
}

IterationResult
Session::completeIteration()
{
    VDNN_ASSERT(active(), "completeIteration() on a %s session",
                sessionStateName(lifecycle));
    IterationResult r = ex->finishIteration();
    if (r.ok) {
        ++itersDone;
        lastIter = r;
        if (itersDone == 1)
            collectProfile(r);
    } else {
        failed = true;
        failure = r.failReason;
    }
    return r;
}

// --- lifecycle transitions ---------------------------------------------------

bool
Session::evictToHost()
{
    VDNN_ASSERT(lifecycle == SessionState::Active,
                "evictToHost() on a %s session",
                sessionStateName(lifecycle));
    VDNN_ASSERT(ex, "evicting a session with no executor");

    Bytes persist = ex->persistentBytes();
    auto stage =
        mm->host().tryAllocate(persist, Label::named("evict:", net.name()));
    if (!stage)
        return false; // pinned host exhausted; stay Active

    // A partially executed iteration cannot survive the device share
    // being released: cancel it (its transients are dead; the
    // iteration re-runs from the top after resume).
    ex->cancelIteration();
    VDNN_ASSERT(mm->deviceUsage() == persist,
                "tenant holds %lld device bytes at eviction, "
                "persistent is %lld",
                (long long)mm->deviceUsage(), (long long)persist);

    // Stage the persistent state out over PCIe, then release the
    // whole device share.
    evictStage = *stage;
    ex->dmaState(persist, gpu::CopyDir::DeviceToHost,
                 Label::named("evict:", net.name()));
    ex->teardown();
    lifecycle = SessionState::Evicted;
    traceLifecycle("evict-to-host");
    return true;
}

bool
Session::resume()
{
    VDNN_ASSERT(lifecycle == SessionState::Evicted,
                "resume() on a %s session", sessionStateName(lifecycle));

    // Re-plan before restoring: the planner sees the *current* free
    // share, so the tenant may come back under a different plan (the
    // fresh Executor takes that plan's IterationProgram).
    Bytes staged = evictStage.size;
    MemoryPlan old_plan = std::move(execPlan);
    planResolved = false;
    if (!resolvePlan()) {
        execPlan = std::move(old_plan);
        return false; // infeasible right now; retry later
    }

    auto fresh = std::make_unique<Executor>(net, *cudnn, *rt, *mm,
                                            execPlan, config.exec, programs);
    if (!fresh->setup()) {
        // The pool cannot hold the rebuilt persistent state yet.
        failure = strFormat(
            "resume OOM ('%s', requested %s, largest free block %s)",
            mm->pool().lastOom().tag.c_str(),
            formatBytes(mm->pool().lastOom().requested).c_str(),
            formatBytes(mm->pool().lastOom().largestFree).c_str());
        planResolved = false;
        return false;
    }
    ex = std::move(fresh);

    // Restore the staged state over PCIe and drop the staging buffer.
    ex->dmaState(staged, gpu::CopyDir::HostToDevice,
                 Label::named("restore:", net.name()));
    mm->host().release(evictStage);
    evictStage = {};
    failed = false;
    failure.clear();
    lifecycle = SessionState::Active;
    traceLifecycle("resume-from-evict");
    return true;
}

bool
Session::migrate(SharedGpu target)
{
    VDNN_ASSERT(lifecycle == SessionState::Evicted,
                "migrate() on a %s session", sessionStateName(lifecycle));
    VDNN_ASSERT(!ownCluster, "migrate() is for serve-layer tenants");
    VDNN_ASSERT(target.runtime && target.pool && target.host,
                "SharedGpu handles must all be set");

    if (target.runtime != rt) {
        // Move the staged state into the target device's pinned-host
        // share first, so a refusal leaves the session untouched on
        // the source. The shares partition one physical host DRAM, so
        // the hand-off itself moves no data.
        auto stage = target.host->tryAllocate(
            evictStage.size, Label::named("migrate:", net.name()));
        if (!stage)
            return false; // target host share exhausted; stay put

        mm->host().release(evictStage);
        evictStage = *stage;
        mm->finish();

        // Re-home the runtime handles: target device spec (the node
        // may be heterogeneous), its perf model, its pool and host
        // share. The plan is invalidated so resume() re-plans against
        // the target's free share and takes its program there.
        bind(target);
        planResolved = false;
        traceLifecycle("migrate-in");
    }
    return resume();
}

bool
Session::replan()
{
    VDNN_ASSERT(lifecycle == SessionState::Active,
                "replan() on a %s session", sessionStateName(lifecycle));
    VDNN_ASSERT(!ex->iterationInFlight(),
                "replan() with an iteration in flight");
    if (config.planner->replanHint() != ReplanHint::InPlace)
        return false;

    MemoryPlan old_plan = std::move(execPlan);
    planResolved = false;
    if (!resolvePlan()) {
        // The fresh share supports no feasible plan; keep the old one
        // (the tenant is already running under it).
        execPlan = std::move(old_plan);
        planResolved = true;
        failed = false;
        failure.clear();
        return false;
    }
    ex->adoptPlan(execPlan);
    traceLifecycle("replan");
    return true;
}

void
Session::teardown()
{
    if (lifecycle == SessionState::Fresh ||
        lifecycle == SessionState::Torn) {
        lifecycle = SessionState::Torn;
        return;
    }
    // Teardown precedes window close so the tracker never records
    // after finish(); the release happens at the final timestamp and
    // adds no weighted time.
    if (lifecycle == SessionState::Evicted) {
        // Nothing device-resident; just drop the host staging.
        mm->host().release(evictStage);
        evictStage = {};
    } else {
        ex->cancelIteration();
        ex->teardown();
    }
    mm->finish();
    if (ownCluster)
        ownCluster->finishPowerWindows();
    lifecycle = SessionState::Torn;
}

Bytes
Session::persistentBytes() const
{
    return ex ? ex->persistentBytes() : 0;
}

SessionResult
Session::result() const
{
    SessionResult r;
    r.network = net.name();
    r.configName = plannerLabel.empty() ? sessionConfigName(config)
                                        : plannerLabel;
    r.plan = execPlan;
    r.trials = trials;

    if (failed || itersDone == 0) {
        r.trainable = false;
        r.failReason = failure.empty() ? "no iteration completed"
                                       : failure;
        return r;
    }

    r.trainable = true;
    r.iterationTime = lastIter.makespan();
    r.featureExtractionTime = lastIter.featureExtractionTime();
    r.classifierTime = lastIter.classifierTime;
    r.transferStallTime = lastIter.transferStallTime;
    r.layerTimings = lastIter.layers;

    r.offloadedBytesPerIter = lastIter.offloadedBytes;
    r.pcieBytesPerIter = lastIter.pcieBytes;
    r.offloads = lastIter.offloads;
    r.prefetches = lastIter.prefetches;
    r.onDemandFetches = lastIter.onDemandFetches;

    r.maxTotalUsage = mm->totalTracker().peakBytes();
    r.avgTotalUsage = mm->totalTracker().averageBytes();
    r.maxManagedUsage = mm->managedTracker().peakBytes();
    r.avgManagedUsage = mm->managedTracker().averageBytes();
    r.persistentBytes = ex ? ex->persistentBytes() : 0;

    // Host allocator and power model are device-wide; on a shared
    // device they mix in co-tenant activity, so they are reported only
    // by a session that owns its cluster (the serve layer builds
    // per-tenant metrics from the pool's client accounting instead).
    if (ownCluster) {
        r.hostPeakBytes = mm->host().peakUsage();
        r.avgPowerW = rt->power().averagePowerW();
        r.maxPowerW = rt->power().maxPowerW();
    }

    if (config.kernelLog)
        r.kernels = rt->kernelLog();
    if (config.keepTimeline) {
        r.totalTimeline = mm->totalTracker().signal().timeline();
        r.managedTimeline = mm->managedTracker().signal().timeline();
    }
    return r;
}

// --- one-shot driver ---------------------------------------------------------

SessionResult
runSession(const net::Network &net, SessionConfig config)
{
    VDNN_ASSERT(config.iterations >= 1, "need at least one iteration");

    int iterations = config.iterations;
    Session session(net, std::move(config));
    if (!session.setup())
        return session.result();

    for (int i = 0; i < iterations; ++i) {
        IterationResult last = session.runIteration();
        if (!last.ok) {
            session.teardown();
            SessionResult r = session.result();
            r.trainable = false;
            r.failReason = last.failReason;
            return r;
        }
    }

    session.teardown();
    return session.result();
}

} // namespace vdnn::core
