#include "core/executor.hh"

#include "check/plan_verifier.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "core/program_cache.hh"

namespace vdnn::core
{

using dnn::LayerKind;
using gpu::CopyDir;

Executor::Executor(const net::Network &net_, const dnn::CudnnSim &cudnn_,
                   gpu::Device &runtime, MemoryManager &mm_,
                   const MemoryPlan &plan, ExecutorConfig config,
                   ProgramCache *programs_)
    : net(net_), cudnn(cudnn_), rt(runtime), mm(mm_), execPlan(plan),
      cfg(config), programs(programs_),
      compiled(compiledPlan(programs_, net_, plan, config)),
      prefetchState(net_.numBuffers())
{
    VDNN_ASSERT(net.finalized(), "network must be finalized");
    VDNN_ASSERT(execPlan.feasible, "cannot execute an infeasible plan");
    VDNN_ASSERT(execPlan.algos.size() == net.numLayers(),
                "plan algo assignment size mismatch");
    VDNN_ASSERT(execPlan.buffers.size() == net.numBuffers(),
                "plan directive vector size mismatch");
    streamCompute = rt.createStream("stream_compute");
    streamMemory = rt.createStream("stream_memory");
    rt.setStreamClient(streamCompute, mm.clientId());
    rt.setStreamClient(streamMemory, mm.clientId());

    staticBuffers.assign(net.numBuffers(), false);

    if (obs::MetricsRegistry *m = rt.telemetry().metrics) {
        ctrIters = &m->counter("exec.iterations");
        ctrOffloads = &m->counter("exec.offloads");
        ctrPrefetches = &m->counter("exec.prefetches");
        ctrOnDemand = &m->counter("exec.on_demand_fetches");
    }

    rebuildDispatchPlan();
    gradients.assign(net.numBuffers(), std::nullopt);
    verifyGate("compile");
}

void
Executor::rebuildDispatchPlan()
{
    const std::size_t n_layers = net.numLayers();
    const std::size_t n_bufs = net.numBuffers();

    // Per layer: kernel descriptors with their cost-model results and
    // labels resolved once, instead of per launch. Labels view the
    // layer names, which the network keeps alive.
    launchPlan.assign(n_layers, {});
    for (net::LayerId id = 0; id < net::LayerId(n_layers); ++id) {
        const net::LayerNode &n = net.node(id);
        const auto &spec = n.spec;
        ExecLaunchPlan &lp = launchPlan[std::size_t(id)];
        lp.classifier = n.classifier;
        auto fill = [](gpu::KernelDesc &k, Label name,
                       const dnn::OpCost &cost) {
            k.name = name;
            k.duration = cost.time;
            k.flops = cost.flops;
            k.dramBytes = cost.dramBytes;
        };
        if (spec.kind == LayerKind::Conv) {
            dnn::ConvAlgo algo = execPlan.algos[std::size_t(id)];
            fill(lp.fwd, Label::named("fwd:", spec.name),
                 cudnn.perf().convForward(spec, algo));
            fill(lp.bwdFilter, Label::named("bwdF:", spec.name),
                 cudnn.perf().convBackwardFilter(spec, algo));
            // Data gradients are skipped for layers fed by the network
            // input: nobody consumes the input image gradient.
            lp.hasBwdData = n.xBuffer != net.inputBuffer();
            if (lp.hasBwdData) {
                fill(lp.bwdData, Label::named("bwdD:", spec.name),
                     cudnn.perf().convBackwardData(spec, algo));
            }
        } else {
            fill(lp.fwd, Label::named("fwd:", spec.name),
                 cudnn.perf().forward(spec));
            fill(lp.bwdFilter, Label::named("bwd:", spec.name),
                 cudnn.perf().backward(spec));
        }
        lp.wsTag = Label::named("ws:", spec.name);
        lp.wsManaged = !n.classifier;
    }

    // Per buffer: sizes and compressed DMA byte counts. Buffer labels
    // ("offload:<id>", ...) are built free at the op itself.
    bufferPlan.assign(n_bufs, {});
    initialReaders.assign(n_bufs, 0);
    for (net::BufferId b = 0; b < net::BufferId(n_bufs); ++b) {
        const net::Buffer &buf = net.buffer(b);
        ExecBufferPlan &bp = bufferPlan[std::size_t(b)];
        bp.bytes = buf.bytes();
        bp.dmaBytes = execPlan.dmaBytes(b, bp.bytes);
        bp.fwdReleasable = buf.bwdUsers.empty() && !buf.classifier;
        bp.classifier = buf.classifier;
        initialReaders[std::size_t(b)] = buf.refCount;
    }
}

const IterationProgram &
Executor::program() const
{
    return compiled->program();
}

void
Executor::verifyGate(const char *when)
{
    if (!cfg.check.verifyPlans)
        return;
    // One verifier run per entry; every gate run judges the verdict
    // against its own share: the free pool plus what this executor
    // already holds (a re-plan keeps its persistent set).
    const bool hit = compiled->verified();
    gate = compiled->verdict();
    check::checkShare(gate, mm.pool().freeBytes() + persistentTotal);
    if (obs::MetricsRegistry *m = rt.telemetry().metrics) {
        m->counter(hit ? "check.program_cache_hits"
                       : "check.programs_verified")
            .add();
        if (!gate.diags.empty())
            m->counter("check.findings").add(double(gate.diags.size()));
    }
    if (!gate.diags.empty() && rt.telemetry().tracing()) {
        rt.telemetry().trace->instant(
            rt.deviceId(), mm.clientId(), "check",
            strFormat("check-findings:%s", when), rt.now());
    }
    if (!gate.ok()) {
        panic("plan verification failed at %s:\n%s", when,
              gate.report().c_str());
    }
}

// --- setup -------------------------------------------------------------------

bool
Executor::allocPersistent(Bytes bytes, Label tag, bool managed)
{
    if (bytes <= 0)
        return true;
    auto a = mm.allocDevice(bytes, tag, managed);
    if (!a)
        return false;
    persistent.push_back(TaggedAlloc{*a, managed});
    return true;
}

bool
Executor::setup()
{
    VDNN_ASSERT(!setupDone, "setup() called twice");
    const PersistentFootprint &fp = compiled->footprint();

    // Weights: W per layer, resident for the whole run, plus one shared
    // dW per region (updates applied in place, Section IV-A).
    bool ok = true;
    for (net::LayerId id : net.topoOrder()) {
        const net::LayerNode &n = net.node(id);
        Bytes w = n.spec.weightBytes();
        if (w > 0)
            ok = ok && allocPersistent(w, Label::named("W:", n.spec.name),
                                       !n.classifier);
    }
    for (const PersistentRegion &r : fp.dw)
        ok = ok && allocPersistent(r.bytes, r.tag, r.managed);

    // The classifier tail is executed by unmodified cuBLAS code (Section
    // IV-A): its activations and gradient maps live in a static region
    // untouched by vDNN. A static-allocation plan (Section II-C) extends
    // that region to every feature map, the minimal reused gradient
    // buffers and one workspace sized to the network maximum.
    staticBuffers.assign(net.numBuffers(), false);
    for (net::BufferId b = 0; ok && b < net::BufferId(net.numBuffers());
         ++b) {
        if (!staticAlloc() && !net.buffer(b).classifier)
            continue;
        ok = mm.allocBuffer(net, b);
        staticBuffers[std::size_t(b)] = ok;
    }
    for (const PersistentRegion &r : fp.scratch)
        ok = ok && allocPersistent(r.bytes, r.tag, r.managed);

    if (!ok) {
        teardownPartial();
        return false;
    }
    persistentTotal = mm.deviceUsage();
    setupDone = true;
    return true;
}

void
Executor::teardownPartial()
{
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (std::size_t(b) < staticBuffers.size() &&
            staticBuffers[std::size_t(b)]) {
            mm.releaseBuffer(net, b);
            staticBuffers[std::size_t(b)] = false;
        }
    }
    for (const TaggedAlloc &a : persistent)
        mm.releaseDevice(a.alloc, a.managed);
    persistent.clear();
}

void
Executor::teardown()
{
    VDNN_ASSERT(setupDone, "teardown() without setup()");
    VDNN_ASSERT(!stepperLive || stepper->finished(),
                "teardown() with an iteration in flight");
    stepperLive = false;
    teardownPartial();
    setupDone = false;
    persistentTotal = 0;
}

void
Executor::cancelIteration()
{
    if (!stepperLive)
        return;
    if (!stepper->finished()) {
        stepper->cancel();
        if (rt.telemetry().tracing()) {
            rt.telemetry().trace->instant(rt.deviceId(), mm.clientId(),
                                          "iteration", "iteration-cancel",
                                          rt.now());
        }
    }
    stepperLive = false;
}

void
Executor::dmaState(Bytes bytes, CopyDir dir, Label tag)
{
    VDNN_ASSERT(bytes > 0, "state DMA of zero bytes");
    rt.memcpyAsync(streamMemory, bytes, dir, tag);
    rt.synchronize(streamMemory);
}

void
Executor::adoptPlan(const MemoryPlan &plan)
{
    VDNN_ASSERT(setupDone, "adoptPlan() before setup()");
    VDNN_ASSERT(!stepperLive, "adoptPlan() with an iteration in flight");
    VDNN_ASSERT(plan.feasible, "cannot adopt an infeasible plan");
    VDNN_ASSERT(plan.staticAllocation == execPlan.staticAllocation,
                "adoptPlan() cannot change the allocation style");
    VDNN_ASSERT(plan.algos.size() == net.numLayers() &&
                    plan.buffers.size() == net.numBuffers(),
                "adopted plan does not match the network");
    execPlan = plan;
    compiled = compiledPlan(programs, net, execPlan, cfg);
    rebuildDispatchPlan();
    verifyGate("adopt-plan");
}

// --- kernel launches -----------------------------------------------------------

void
Executor::launchForwardKernels(net::LayerId id)
{
    rt.launchKernel(streamCompute, launchPlan[std::size_t(id)].fwd);
}

void
Executor::launchBackwardKernels(net::LayerId id)
{
    const ExecLaunchPlan &lp = launchPlan[std::size_t(id)];
    rt.launchKernel(streamCompute, lp.bwdFilter);
    if (lp.hasBwdData)
        rt.launchKernel(streamCompute, lp.bwdData);
}

// --- gradient buffers -------------------------------------------------------------

bool
Executor::gradientLive(net::BufferId b) const
{
    return gradients[std::size_t(b)].has_value();
}

bool
Executor::allocGradient(net::BufferId b)
{
    const ExecBufferPlan &bp = bufferPlan[std::size_t(b)];
    if (staticAlloc() || bp.classifier)
        return true; // served by the static gradient region
    std::optional<TaggedAlloc> &g = gradients[std::size_t(b)];
    if (g)
        return true;
    auto a = mm.allocDevice(bp.bytes, Label::indexed("grad:", b), true);
    if (!a)
        return false;
    g = TaggedAlloc{*a, true};
    ++liveGradients;
    return true;
}

void
Executor::releaseGradient(net::BufferId b)
{
    std::optional<TaggedAlloc> &g = gradients[std::size_t(b)];
    if (!g)
        return;
    mm.releaseDevice(g->alloc, g->managed);
    g.reset();
    --liveGradients;
}

// --- transfers ----------------------------------------------------------------------

bool
Executor::coldPrefetch(net::BufferId b, int curr_topo) const
{
    // Brought back by an (opportunistic) prefetch, its device copy
    // redundant with a still-valid pinned host copy, and its first
    // backward use still ahead of layer `curr_topo`: dropping the
    // device copy is free, and ensureResident() re-fetches it later.
    if (!prefetchState.prefetched[std::size_t(b)])
        return false;
    if (mm.residence(b) != Residence::Device || !mm.hostCopyValid(b))
        return false;
    const net::Buffer &buf = net.buffer(b);
    // A first use at or past the cursor is this or a running layer's.
    return !buf.bwdUsers.empty() &&
           net.node(buf.bwdUsers.back()).topoIndex < curr_topo;
}

bool
Executor::evictUnconsumedPrefetches(Bytes need, net::LayerId curr)
{
    // Stop once a block of `need` bytes could fit.
    int curr_topo = net.node(curr).topoIndex;
    bool evicted_any = false;
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (mm.pool().largestFreeBlock() >= need)
            break;
        if (!coldPrefetch(b, curr_topo))
            continue;
        mm.evictToHost(net, b);
        prefetchState.prefetched[std::size_t(b)] = false;
        evicted_any = true;
    }
    return evicted_any;
}

bool
Executor::ensureResident(net::BufferId b, net::LayerId curr,
                         IterationResult &result)
{
    switch (mm.residence(b)) {
      case Residence::Device:
      case Residence::Offloading: // device copy still valid
        return true;
      case Residence::Host: {
        // On-demand fetch: the serialized path prefetching tries to
        // avoid (Section III-A). The backward pass blocks until the
        // copy lands.
        const ExecBufferPlan &bp = bufferPlan[std::size_t(b)];
        if (!mm.beginPrefetch(net, b)) {
            if (!evictUnconsumedPrefetches(bp.bytes, curr) ||
                !mm.beginPrefetch(net, b)) {
                return false;
            }
        }
        TimeNs t0 = rt.now();
        rt.memcpyAsync(streamMemory, bp.dmaBytes, CopyDir::HostToDevice,
                       Label::indexed("fetch:", b));
        rt.synchronize(streamMemory);
        mm.finishPrefetch(b);
        result.transferStallTime += rt.now() - t0;
        result.pcieBytes += bp.dmaBytes;
        ++result.onDemandFetches;
        prefetchState.prefetched[std::size_t(b)] = true;
        return true;
      }
      case Residence::Prefetching:
        // In flight on stream_memory; wait for it.
        rt.synchronize(streamMemory);
        mm.finishPrefetch(b);
        return true;
      case Residence::Unallocated:
        panic("buffer %d needed but unallocated (buffer of layer flow "
              "'%s')",
              b, net.name().c_str());
    }
    return false;
}

void
Executor::processDeferredReleases()
{
    // Asynchronous-release mode (ablation): offloaded device copies are
    // released at the first synchronization point after their copy
    // completes, instead of stalling the layer boundary.
    auto it = deferredReleases.begin();
    while (it != deferredReleases.end()) {
        if (rt.markPassed(streamMemory, it->second)) {
            mm.finishOffload(net, it->first);
            it = deferredReleases.erase(it);
        } else {
            ++it;
        }
    }
}

void
Executor::abortIteration(IterationResult &result, const std::string &why,
                         FailKind kind, net::LayerId layer)
{
    result.ok = false;
    result.failReason = why;
    result.failKind = kind;
    result.failLayer = layer;
    // Drain all in-flight work so state machines can be forced down.
    rt.deviceSynchronize();
    deferredReleases.clear();
    for (std::optional<TaggedAlloc> &g : gradients) {
        if (g) {
            mm.releaseDevice(g->alloc, g->managed);
            g.reset();
        }
    }
    liveGradients = 0;
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (!staticBuffers[std::size_t(b)])
            mm.forceRelease(net, b);
    }
    result.end = rt.now();
}

// --- stepper: op bodies ------------------------------------------------------

IterationStepper::IterationStepper(Executor &executor) : ex(executor) {}

void
IterationStepper::rewind()
{
    pcIndex = 0;
    st = Status::Running;
    blockedOn = -1;
    computeJoined = false;
    tComputeDone = 0;
    groupLayer = -2;
    groupBackward = false;
    tLayerStart = 0;
    ws.reset();
    offloading.clear();
    prefetching.clear();
    res = IterationResult{};
}

void
IterationStepper::cancel()
{
    VDNN_ASSERT(!finished(), "cancel() on a finished iteration");
    // A parked cursor may hold a live workspace and joins it never
    // reached; abortIteration()'s drain-and-force-release unwinds the
    // buffer state machines, so only the stepper-local state needs
    // explicit cleanup here.
    if (ws) {
        ex.mm.releaseDevice(ws->alloc, ws->managed);
        ws.reset();
    }
    offloading.clear();
    prefetching.clear();
    ex.abortIteration(res, "iteration cancelled (tenant preempted)");
    st = Status::Failed;
}

const IterOp *
IterationStepper::nextOp() const
{
    const std::vector<IterOp> &ops = ex.compiled->program().ops;
    return pcIndex < ops.size() ? &ops[pcIndex] : nullptr;
}

IterationStepper::Status
IterationStepper::blocked(gpu::StreamId stream)
{
    blockedOn = stream;
    st = Status::Blocked;
    return st;
}

bool
IterationStepper::opBeginIteration()
{
    res.layers.assign(ex.net.numLayers(), LayerTiming{});
    ex.gradients.assign(ex.net.numBuffers(), std::nullopt);
    ex.liveGradients = 0;
    ex.deferredReleases.clear();
    ex.remainingReaders = ex.initialReaders;
    ex.prefetchState.reset();

    res.start = ex.rt.now();

    // Materialize the input batch (static under the baseline policy).
    if (!ex.staticAlloc() &&
        ex.mm.residence(ex.net.inputBuffer()) == Residence::Unallocated) {
        if (!ex.mm.allocBuffer(ex.net, ex.net.inputBuffer())) {
            ex.abortIteration(res, "OOM allocating the input batch",
                              FailKind::FeatureMap, net::kInputLayer);
            return false;
        }
    }
    return true;
}

bool
IterationStepper::opFwdAlloc(const IterOp &op)
{
    net::LayerId id = op.layer;
    // Input feature maps must be device-resident during forward
    // propagation (they are only ever offloaded by their last reader).
    for (net::BufferId b : op.buffers) {
        Residence r = ex.mm.residence(b);
        VDNN_ASSERT(r == Residence::Device,
                    "fwd '%s': input buffer %d not resident (state %d)",
                    ex.net.node(id).spec.name.c_str(), b, int(r));
    }

    // Allocate the output feature maps (in-place layers reuse X).
    if (op.allocY &&
        ex.mm.residence(op.yBuffer) == Residence::Unallocated) {
        if (!ex.mm.allocBuffer(ex.net, op.yBuffer)) {
            ex.abortIteration(
                res,
                strFormat("OOM allocating Y of '%s' (%s)",
                          ex.net.node(id).spec.name.c_str(),
                          formatBytes(
                              ex.bufferPlan[std::size_t(op.yBuffer)].bytes)
                              .c_str()),
                FailKind::FeatureMap, id);
            return false;
        }
    }

    // Convolution workspace for the chosen algorithm.
    ws.reset();
    const ExecLaunchPlan &lp = ex.launchPlan[std::size_t(id)];
    Bytes ws_bytes = op.wsBytes;
    if (ws_bytes > 0) {
        auto a = ex.mm.allocDevice(ws_bytes, lp.wsTag, lp.wsManaged);
        if (!a) {
            ex.abortIteration(res,
                              strFormat("OOM allocating workspace of '%s' "
                                        "(%s)",
                                        ex.net.node(id).spec.name.c_str(),
                                        formatBytes(ws_bytes).c_str()),
                              FailKind::Workspace, id);
            return false;
        }
        ws = TaggedAlloc{*a, lp.wsManaged};
    }
    return true;
}

void
IterationStepper::opFwdKernel(net::LayerId id)
{
    ex.launchForwardKernels(id);
}

void
IterationStepper::opFwdOffload(const IterOp &op)
{
    // Offload: issued by the last forward consumer of each input buffer
    // (the refcount rule of Fig. 3, resolved into op.buffers at compile
    // time), overlapped with this layer's own forward computation on
    // stream_memory.
    for (net::BufferId b : op.buffers) {
        if (!ex.mm.beginOffload(ex.net, b)) {
            warn("host memory exhausted; keeping buffer %d resident", b);
            continue;
        }
        const ExecBufferPlan &bp = ex.bufferPlan[std::size_t(b)];
        ex.rt.memcpyAsync(ex.streamMemory, bp.dmaBytes,
                          CopyDir::DeviceToHost,
                          Label::indexed("offload:", b));
        offloading.push_back(b);
        ex.prefetchState.offloaded[std::size_t(b)] = true;
        ++res.offloads;
        res.offloadedBytes += bp.bytes;
        res.pcieBytes += bp.dmaBytes;
    }
}

IterationStepper::Status
IterationStepper::opSync(const IterOp &op)
{
    // Layer boundary: wait for the computation, and for any transfer
    // launched under it — offloads so the device copy is released
    // before the next layer starts (maximizing the memory saving at
    // the cost of the Fig. 9 "wasted time" when the offload outlives
    // the computation), prefetches so the data is ready before the
    // preceding layer's backward computation (Section III-B).
    std::vector<net::BufferId> &pending =
        op.backward ? prefetching : offloading;

    if (!computeJoined) {
        if (!ex.rt.streamIdle(ex.streamCompute))
            return blocked(ex.streamCompute);
        tComputeDone = ex.rt.now();
        computeJoined = true;
    }
    bool join_memory = !pending.empty() &&
                       (op.backward || ex.cfg.syncAtLayerBoundary);
    if (join_memory) {
        if (!ex.rt.streamIdle(ex.streamMemory))
            return blocked(ex.streamMemory);
        res.transferStallTime += ex.rt.now() - tComputeDone;
        for (net::BufferId b : pending) {
            if (op.backward)
                ex.mm.finishPrefetch(b);
            else
                ex.mm.finishOffload(ex.net, b);
        }
    } else if (!pending.empty()) {
        // Asynchronous-release mode (ablation): release at the first
        // synchronization point after the copy completes, i.e. once
        // the memory stream retires what it holds now.
        gpu::StreamMark mark = ex.rt.streamMark(ex.streamMemory);
        for (net::BufferId b : pending)
            ex.deferredReleases.emplace_back(b, mark);
    }
    pending.clear();
    computeJoined = false;
    ex.processDeferredReleases();
    return Status::Running;
}

void
IterationStepper::opFwdRelease(const IterOp &op)
{
    net::LayerId id = op.layer;
    if (ws) {
        ex.mm.releaseDevice(ws->alloc, ws->managed);
        ws.reset();
    }

    // Aggressive release: buffers whose last reader has executed and
    // that are not reused by backward propagation are freed outright.
    if (!ex.staticAlloc()) {
        for (net::BufferId b : op.buffers) {
            if (--ex.remainingReaders[std::size_t(b)] > 0)
                continue;
            if (ex.bufferPlan[std::size_t(b)].fwdReleasable &&
                ex.mm.residence(b) == Residence::Device) {
                ex.mm.releaseBuffer(ex.net, b);
            }
        }
    }

    LayerTiming &t = res.layers[std::size_t(id)];
    t.id = id;
    t.fwdStart = tLayerStart;
    t.fwdEnd = ex.rt.now();
    if (ex.launchPlan[std::size_t(id)].classifier)
        res.classifierTime += t.fwdEnd - t.fwdStart;
}

IterationStepper::Status
IterationStepper::opBarrier()
{
    // Any deferred (asynchronous) offload releases must land before
    // backward propagation starts reusing the buffers.
    if (!ex.deferredReleases.empty() &&
        !ex.rt.streamIdle(ex.streamMemory)) {
        return blocked(ex.streamMemory);
    }
    ex.processDeferredReleases();
    return Status::Running;
}

bool
IterationStepper::opBwdFetch(const IterOp &op)
{
    net::LayerId id = op.layer;
    // Residency: the layer's backward pass needs X and/or Y (Section
    // III-A, resolved into op.buffers at compile time); offloaded data
    // must be fetched back before the kernels.
    for (net::BufferId b : op.buffers) {
        // A buffer prefetched during *this* layer cannot serve this
        // layer's own kernels without waiting; that only happens in
        // the degenerate single-layer-window case.
        if (!ex.ensureResident(b, id, res)) {
            ex.abortIteration(
                res,
                strFormat("OOM fetching buffer %d for '%s' backward", b,
                          ex.net.node(id).spec.name.c_str()),
                FailKind::Fetch, id);
            return false;
        }
    }
    return true;
}

bool
IterationStepper::opBwdAlloc(const IterOp &op)
{
    net::LayerId id = op.layer;
    // Gradient maps: dY must exist (allocated by this buffer's
    // consumers, or seeded here for the terminal loss layer); dX is
    // allocated on demand. The network input receives no gradient
    // (op.buffers holds the dX set with it already excluded).
    auto grad_with_recovery = [&](net::BufferId b) {
        if (ex.allocGradient(b))
            return true;
        if (!ex.evictUnconsumedPrefetches(
                ex.bufferPlan[std::size_t(b)].bytes, id)) {
            return false;
        }
        ++res.prefetchEvictions;
        return ex.allocGradient(b);
    };
    if (!grad_with_recovery(op.yBuffer)) {
        ex.abortIteration(res,
                          strFormat("OOM allocating dY of '%s'",
                                    ex.net.node(id).spec.name.c_str()),
                          FailKind::Gradient, id);
        return false;
    }
    for (net::BufferId b : op.buffers) {
        if (!grad_with_recovery(b)) {
            ex.abortIteration(res,
                              strFormat("OOM allocating dX of '%s'",
                                        ex.net.node(id).spec.name.c_str()),
                              FailKind::Gradient, id);
            return false;
        }
    }

    // Backward convolution workspace.
    ws.reset();
    const ExecLaunchPlan &lp = ex.launchPlan[std::size_t(id)];
    Bytes ws_bytes = op.wsBytes;
    if (ws_bytes > 0) {
        auto a = ex.mm.allocDevice(ws_bytes, lp.wsTag, lp.wsManaged);
        if (!a && ex.evictUnconsumedPrefetches(ws_bytes, id)) {
            ++res.prefetchEvictions;
            a = ex.mm.allocDevice(ws_bytes, lp.wsTag, lp.wsManaged);
        }
        if (!a) {
            ex.abortIteration(res,
                              strFormat("OOM allocating bwd workspace of "
                                        "'%s' (%s)",
                                        ex.net.node(id).spec.name.c_str(),
                                        formatBytes(ws_bytes).c_str()),
                              FailKind::Workspace, id);
            return false;
        }
        ws = TaggedAlloc{*a, lp.wsManaged};
    }
    return true;
}

void
IterationStepper::opBwdPrefetch(net::LayerId id)
{
    // Prefetch: with the layer's mandatory allocations in place, search
    // for the best preceding layer to prefetch (Fig. 10) and overlap
    // its H2D copy with this layer's backward kernels. The prefetch is
    // opportunistic: when the pool cannot host the target yet (memory
    // is at its tightest around the first conv groups' backward pass),
    // it falls back to a later on-demand fetch instead of failing the
    // iteration.
    PrefetchCandidate &cand = ex.prefetchHit;
    findPrefetchLayer(ex.net, id, ex.prefetchState, cand,
                      ex.cfg.prefetchWindowBounded, &ex.execPlan);
    for (net::BufferId b : cand.buffers) {
        if (ex.mm.residence(b) != Residence::Host) {
            continue; // already fetched on demand earlier
        }
        if (!ex.mm.beginPrefetch(ex.net, b)) {
            // No room yet; fall back to a later on-demand fetch.
            ex.prefetchState.prefetched[std::size_t(b)] = false;
            continue;
        }
        const ExecBufferPlan &bp = ex.bufferPlan[std::size_t(b)];
        ex.rt.memcpyAsync(ex.streamMemory, bp.dmaBytes,
                          CopyDir::HostToDevice,
                          Label::indexed("prefetch:", b));
        prefetching.push_back(b);
        ++res.prefetches;
        res.pcieBytes += bp.dmaBytes;
    }
}

void
IterationStepper::opBwdKernel(net::LayerId id)
{
    res.layers[std::size_t(id)].bwdStart = ex.rt.now();
    ex.launchBackwardKernels(id);
}

void
IterationStepper::opBwdRelease(const IterOp &op)
{
    net::LayerId id = op.layer;
    if (ws) {
        ex.mm.releaseDevice(ws->alloc, ws->managed);
        ws.reset();
    }

    if (!ex.staticAlloc()) {
        // dY fully consumed once this buffer's producer has run.
        if (op.releaseDY)
            ex.releaseGradient(op.yBuffer);
        // Feature maps whose last backward user just executed are
        // released immediately (Fig. 8).
        for (net::BufferId b : op.buffers) {
            if (!ex.staticBuffers[std::size_t(b)] &&
                ex.mm.residence(b) == Residence::Device) {
                ex.mm.releaseBuffer(ex.net, b);
            }
        }
    }

    LayerTiming &t = res.layers[std::size_t(id)];
    t.bwdEnd = ex.rt.now();
    if (ex.launchPlan[std::size_t(id)].classifier)
        res.classifierTime += t.bwdEnd - tLayerStart;
}

IterationStepper::Status
IterationStepper::opEndIteration()
{
    // Drain this executor's own streams only: a co-tenant's in-flight
    // work on the shared device must not serialize this tenant's
    // iteration boundary.
    if (!ex.rt.streamIdle(ex.streamCompute))
        return blocked(ex.streamCompute);
    if (!ex.rt.streamIdle(ex.streamMemory))
        return blocked(ex.streamMemory);
    ex.processDeferredReleases();
    res.end = ex.rt.now();

    // Steady-state invariant: everything allocated inside the iteration
    // has been returned to the pool.
    VDNN_ASSERT(ex.liveGradients == 0, "gradient buffers leaked");
    VDNN_ASSERT(ex.mm.deviceUsage() == ex.persistentTotal,
                "tenant usage %lld != persistent %lld after iteration",
                (long long)ex.mm.deviceUsage(),
                (long long)ex.persistentTotal);

    res.ok = true;
    return Status::Done;
}

// --- stepper: dispatch -------------------------------------------------------

IterationStepper::Status
IterationStepper::step()
{
    if (finished())
        return st;
    const std::vector<IterOp> &ops = ex.compiled->program().ops;
    VDNN_ASSERT(pcIndex < ops.size(), "stepper ran off the program");
    const IterOp &op = ops[pcIndex];

    // Entering a new (layer, phase) group: take the timestamp the
    // monolithic loop captured at forwardLayer/backwardLayer entry.
    if (op.layer != groupLayer || op.backward != groupBackward) {
        groupLayer = op.layer;
        groupBackward = op.backward;
        tLayerStart = ex.rt.now();
    }

    st = Status::Running;
    blockedOn = -1;
    bool ok = true;
    switch (op.kind) {
      case OpKind::BeginIteration:
        ok = opBeginIteration();
        break;
      case OpKind::Alloc:
        ok = op.backward ? opBwdAlloc(op) : opFwdAlloc(op);
        break;
      case OpKind::Kernel:
        if (op.backward)
            opBwdKernel(op.layer);
        else
            opFwdKernel(op.layer);
        break;
      case OpKind::Offload:
        opFwdOffload(op);
        break;
      case OpKind::OnDemandFetch:
        ok = opBwdFetch(op);
        break;
      case OpKind::Prefetch:
        opBwdPrefetch(op.layer);
        break;
      case OpKind::Release:
        if (op.backward)
            opBwdRelease(op);
        else
            opFwdRelease(op);
        break;
      case OpKind::Sync:
        if (opSync(op) == Status::Blocked)
            return st;
        break;
      case OpKind::Barrier:
        if (opBarrier() == Status::Blocked)
            return st;
        break;
      case OpKind::EndIteration: {
        Status s = opEndIteration();
        if (s == Status::Blocked)
            return st;
        st = s;
        ++pcIndex;
        return st;
      }
    }

    if (!ok) {
        st = Status::Failed;
        return st;
    }
    ++pcIndex;
    return st;
}

// --- iteration driver ---------------------------------------------------------------

IterationStepper &
Executor::beginIteration()
{
    VDNN_ASSERT(setupDone, "beginIteration() before setup()");
    VDNN_ASSERT(!stepperLive, "previous iteration not collected with "
                              "finishIteration()");
    if (!stepper)
        stepper.reset(new IterationStepper(*this));
    stepper->rewind();
    stepperLive = true;
    return *stepper;
}

IterationResult
Executor::finishIteration()
{
    VDNN_ASSERT(stepperLive && stepper->finished(),
                "finishIteration() without a finished iteration");
    IterationResult r = std::move(stepper->res);
    stepperLive = false;
    if (r.ok) {
        if (ctrIters) {
            ctrIters->add();
            ctrOffloads->add(r.offloads);
            ctrPrefetches->add(r.prefetches);
            ctrOnDemand->add(r.onDemandFetches);
        }
        if (rt.telemetry().tracing()) {
            rt.telemetry().trace->complete(
                rt.deviceId(), mm.clientId(), "iteration", "iteration",
                r.start, r.end,
                "{\"offloads\":" + std::to_string(r.offloads) +
                    ",\"prefetches\":" + std::to_string(r.prefetches) +
                    ",\"on_demand\":" +
                    std::to_string(r.onDemandFetches) + "}");
        }
    }
    return r;
}

void
IterationStepper::stepExclusive()
{
    // The tenant owns the device: nothing else can run while it waits,
    // so block the host on the joined stream and retry the op.
    while (step() == Status::Blocked)
        ex.rt.synchronize(blockedOn);
}

void
IterationStepper::drain()
{
    while (!finished())
        stepExclusive();
}

IterationResult
Executor::runIteration()
{
    beginIteration().drain();
    return finishIteration();
}

} // namespace vdnn::core
