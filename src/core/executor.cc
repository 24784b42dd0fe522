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
      streamCompute(mm_.computeStream()), streamMemory(mm_.memoryStream()),
      prefetchState(net_.numBuffers())
{
    VDNN_ASSERT(net.finalized(), "network must be finalized");
    VDNN_ASSERT(execPlan.feasible, "cannot execute an infeasible plan");
    VDNN_ASSERT(execPlan.algos.size() == net.numLayers(),
                "plan algo assignment size mismatch");
    VDNN_ASSERT(execPlan.buffers.size() == net.numBuffers(),
                "plan directive vector size mismatch");
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
    VDNN_ASSERT(!iterationInFlight() || finished(),
                "teardown() with an iteration in flight");
    st = Status::Idle;
    teardownPartial();
    setupDone = false;
    persistentTotal = 0;
}

void
Executor::cancelIteration()
{
    if (st == Status::Running || st == Status::Blocked) {
        abortIteration("iteration cancelled (tenant preempted)");
        if (rt.telemetry().tracing()) {
            rt.telemetry().trace->instant(rt.deviceId(), mm.clientId(),
                                          "iteration", "iteration-cancel",
                                          rt.now());
        }
    }
    st = Status::Idle;
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
    VDNN_ASSERT(!iterationInFlight(),
                "adoptPlan() with an iteration in flight");
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

// --- gradient buffers -------------------------------------------------------------

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
Executor::ensureResident(net::BufferId b, net::LayerId curr)
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
        res.transferStallTime += rt.now() - t0;
        res.pcieBytes += bp.dmaBytes;
        ++res.onDemandFetches;
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
Executor::releaseWorkspace()
{
    if (ws) {
        mm.releaseDevice(ws->alloc, ws->managed);
        ws.reset();
    }
}

void
Executor::abortIteration(const std::string &why, FailKind kind,
                         net::LayerId layer)
{
    // A cancelled cursor may hold a live workspace and joins it never
    // reached; the drain-and-force-release below unwinds the buffer
    // state machines.
    releaseWorkspace();
    offloading.clear();
    prefetching.clear();
    res.ok = false;
    res.failReason = why;
    res.failKind = kind;
    res.failLayer = layer;
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
    res.end = rt.now();
    st = Status::Failed;
}

// --- op bodies -------------------------------------------------------------

const IterOp *
Executor::nextOp() const
{
    const std::vector<IterOp> &ops = compiled->program().ops;
    return pcIndex < ops.size() ? &ops[pcIndex] : nullptr;
}

Executor::Status
Executor::blocked(gpu::StreamId stream)
{
    blockedOn = stream;
    st = Status::Blocked;
    return st;
}

bool
Executor::opBeginIteration()
{
    res.start = rt.now();

    // Materialize the input batch (static under the baseline policy).
    if (!staticAlloc() &&
        mm.residence(net.inputBuffer()) == Residence::Unallocated) {
        if (!mm.allocBuffer(net, net.inputBuffer())) {
            abortIteration("OOM allocating the input batch",
                           FailKind::FeatureMap, net::kInputLayer);
            return false;
        }
    }
    return true;
}

bool
Executor::opFwdAlloc(const IterOp &op)
{
    net::LayerId id = op.layer;
    // Input feature maps must be device-resident during forward
    // propagation (they are only ever offloaded by their last reader).
    for (net::BufferId b : op.buffers) {
        Residence r = mm.residence(b);
        VDNN_ASSERT(r == Residence::Device,
                    "fwd '%s': input buffer %d not resident (state %d)",
                    net.node(id).spec.name.c_str(), b, int(r));
    }

    // Allocate the output feature maps (in-place layers reuse X).
    if (op.allocY && mm.residence(op.yBuffer) == Residence::Unallocated) {
        if (!mm.allocBuffer(net, op.yBuffer)) {
            abortIteration(
                strFormat("OOM allocating Y of '%s' (%s)",
                          net.node(id).spec.name.c_str(),
                          formatBytes(bufferPlan[std::size_t(op.yBuffer)]
                                          .bytes)
                              .c_str()),
                FailKind::FeatureMap, id);
            return false;
        }
    }

    // Convolution workspace for the chosen algorithm.
    const ExecLaunchPlan &lp = launchPlan[std::size_t(id)];
    Bytes ws_bytes = op.wsBytes;
    if (ws_bytes > 0) {
        auto a = mm.allocDevice(ws_bytes, lp.wsTag, lp.wsManaged);
        if (!a) {
            abortIteration(strFormat("OOM allocating workspace of '%s' "
                                     "(%s)",
                                     net.node(id).spec.name.c_str(),
                                     formatBytes(ws_bytes).c_str()),
                           FailKind::Workspace, id);
            return false;
        }
        ws = TaggedAlloc{*a, lp.wsManaged};
    }
    return true;
}

void
Executor::opFwdOffload(const IterOp &op)
{
    // Offload: issued by the last forward consumer of each input buffer
    // (the refcount rule of Fig. 3, resolved into op.buffers at compile
    // time), overlapped with this layer's own forward computation on
    // stream_memory.
    for (net::BufferId b : op.buffers) {
        if (!mm.beginOffload(net, b)) {
            warn("host memory exhausted; keeping buffer %d resident", b);
            continue;
        }
        const ExecBufferPlan &bp = bufferPlan[std::size_t(b)];
        rt.memcpyAsync(streamMemory, bp.dmaBytes, CopyDir::DeviceToHost,
                       Label::indexed("offload:", b));
        offloading.push_back(b);
        prefetchState.offloaded[std::size_t(b)] = true;
        ++res.offloads;
        res.offloadedBytes += bp.bytes;
        res.pcieBytes += bp.dmaBytes;
    }
}

Executor::Status
Executor::opSync(const IterOp &op)
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
        if (!rt.streamIdle(streamCompute))
            return blocked(streamCompute);
        tComputeDone = rt.now();
        computeJoined = true;
    }
    bool join_memory =
        !pending.empty() && (op.backward || cfg.syncAtLayerBoundary);
    if (join_memory) {
        if (!rt.streamIdle(streamMemory))
            return blocked(streamMemory);
        res.transferStallTime += rt.now() - tComputeDone;
        for (net::BufferId b : pending) {
            if (op.backward)
                mm.finishPrefetch(b);
            else
                mm.finishOffload(net, b);
        }
    } else if (!pending.empty()) {
        // Asynchronous-release mode (ablation): release at the first
        // synchronization point after the copy completes, i.e. once
        // the memory stream retires what it holds now.
        gpu::StreamMark mark = rt.streamMark(streamMemory);
        for (net::BufferId b : pending)
            deferredReleases.emplace_back(b, mark);
    }
    pending.clear();
    computeJoined = false;
    processDeferredReleases();
    return Status::Running;
}

void
Executor::opFwdRelease(const IterOp &op)
{
    net::LayerId id = op.layer;
    releaseWorkspace();

    // Aggressive release: buffers whose last reader has executed and
    // that are not reused by backward propagation are freed outright.
    if (!staticAlloc()) {
        for (net::BufferId b : op.buffers) {
            if (--remainingReaders[std::size_t(b)] > 0)
                continue;
            if (bufferPlan[std::size_t(b)].fwdReleasable &&
                mm.residence(b) == Residence::Device) {
                mm.releaseBuffer(net, b);
            }
        }
    }

    LayerTiming &t = res.layers[std::size_t(id)];
    t.id = id;
    t.fwdStart = tLayerStart;
    t.fwdEnd = rt.now();
    if (launchPlan[std::size_t(id)].classifier)
        res.classifierTime += t.fwdEnd - t.fwdStart;
}

Executor::Status
Executor::opBarrier()
{
    // Any deferred (asynchronous) offload releases must land before
    // backward propagation starts reusing the buffers.
    if (!deferredReleases.empty() && !rt.streamIdle(streamMemory))
        return blocked(streamMemory);
    processDeferredReleases();
    return Status::Running;
}

bool
Executor::opBwdFetch(const IterOp &op)
{
    net::LayerId id = op.layer;
    // Residency: the layer's backward pass needs X and/or Y (Section
    // III-A, resolved into op.buffers at compile time); offloaded data
    // must be fetched back before the kernels.
    for (net::BufferId b : op.buffers) {
        // A buffer prefetched during *this* layer cannot serve this
        // layer's own kernels without waiting; that only happens in
        // the degenerate single-layer-window case.
        if (!ensureResident(b, id)) {
            abortIteration(
                strFormat("OOM fetching buffer %d for '%s' backward", b,
                          net.node(id).spec.name.c_str()),
                FailKind::Fetch, id);
            return false;
        }
    }
    return true;
}

bool
Executor::opBwdAlloc(const IterOp &op)
{
    net::LayerId id = op.layer;
    // Gradient maps: dY must exist (allocated by this buffer's
    // consumers, or seeded here for the terminal loss layer); dX is
    // allocated on demand. The network input receives no gradient
    // (op.buffers holds the dX set with it already excluded).
    auto grad_with_recovery = [&](net::BufferId b) {
        if (allocGradient(b))
            return true;
        if (!evictUnconsumedPrefetches(bufferPlan[std::size_t(b)].bytes,
                                       id)) {
            return false;
        }
        ++res.prefetchEvictions;
        return allocGradient(b);
    };
    if (!grad_with_recovery(op.yBuffer)) {
        abortIteration(strFormat("OOM allocating dY of '%s'",
                                 net.node(id).spec.name.c_str()),
                       FailKind::Gradient, id);
        return false;
    }
    for (net::BufferId b : op.buffers) {
        if (!grad_with_recovery(b)) {
            abortIteration(strFormat("OOM allocating dX of '%s'",
                                     net.node(id).spec.name.c_str()),
                           FailKind::Gradient, id);
            return false;
        }
    }

    // Backward convolution workspace.
    const ExecLaunchPlan &lp = launchPlan[std::size_t(id)];
    Bytes ws_bytes = op.wsBytes;
    if (ws_bytes > 0) {
        auto a = mm.allocDevice(ws_bytes, lp.wsTag, lp.wsManaged);
        if (!a && evictUnconsumedPrefetches(ws_bytes, id)) {
            ++res.prefetchEvictions;
            a = mm.allocDevice(ws_bytes, lp.wsTag, lp.wsManaged);
        }
        if (!a) {
            abortIteration(strFormat("OOM allocating bwd workspace of "
                                     "'%s' (%s)",
                                     net.node(id).spec.name.c_str(),
                                     formatBytes(ws_bytes).c_str()),
                           FailKind::Workspace, id);
            return false;
        }
        ws = TaggedAlloc{*a, lp.wsManaged};
    }
    return true;
}

void
Executor::opBwdPrefetch(net::LayerId id)
{
    // Prefetch: with the layer's mandatory allocations in place, search
    // for the best preceding layer to prefetch (Fig. 10) and overlap
    // its H2D copy with this layer's backward kernels. The prefetch is
    // opportunistic: when the pool cannot host the target yet (memory
    // is at its tightest around the first conv groups' backward pass),
    // it falls back to a later on-demand fetch instead of failing the
    // iteration.
    findPrefetchLayer(net, id, prefetchState, prefetchHit,
                      cfg.prefetchWindowBounded, &execPlan);
    for (net::BufferId b : prefetchHit.buffers) {
        if (mm.residence(b) != Residence::Host) {
            continue; // already fetched on demand earlier
        }
        if (!mm.beginPrefetch(net, b)) {
            // No room yet; fall back to a later on-demand fetch.
            prefetchState.prefetched[std::size_t(b)] = false;
            continue;
        }
        const ExecBufferPlan &bp = bufferPlan[std::size_t(b)];
        rt.memcpyAsync(streamMemory, bp.dmaBytes, CopyDir::HostToDevice,
                       Label::indexed("prefetch:", b));
        prefetching.push_back(b);
        ++res.prefetches;
        res.pcieBytes += bp.dmaBytes;
    }
}

void
Executor::opBwdKernel(net::LayerId id)
{
    res.layers[std::size_t(id)].bwdStart = rt.now();
    const ExecLaunchPlan &lp = launchPlan[std::size_t(id)];
    rt.launchKernel(streamCompute, lp.bwdFilter);
    if (lp.hasBwdData)
        rt.launchKernel(streamCompute, lp.bwdData);
}

void
Executor::opBwdRelease(const IterOp &op)
{
    net::LayerId id = op.layer;
    releaseWorkspace();

    if (!staticAlloc()) {
        // dY fully consumed once this buffer's producer has run.
        if (op.releaseDY)
            releaseGradient(op.yBuffer);
        // Feature maps whose last backward user just executed are
        // released immediately (Fig. 8).
        for (net::BufferId b : op.buffers) {
            if (!staticBuffers[std::size_t(b)] &&
                mm.residence(b) == Residence::Device) {
                mm.releaseBuffer(net, b);
            }
        }
    }

    LayerTiming &t = res.layers[std::size_t(id)];
    t.bwdEnd = rt.now();
    if (launchPlan[std::size_t(id)].classifier)
        res.classifierTime += t.bwdEnd - tLayerStart;
}

Executor::Status
Executor::opEndIteration()
{
    // Drain this executor's own streams only: a co-tenant's in-flight
    // work on the shared device must not serialize this tenant's
    // iteration boundary.
    if (!rt.streamIdle(streamCompute))
        return blocked(streamCompute);
    if (!rt.streamIdle(streamMemory))
        return blocked(streamMemory);
    processDeferredReleases();
    res.end = rt.now();

    // Steady-state invariant: everything allocated inside the iteration
    // has been returned to the pool.
    VDNN_ASSERT(liveGradients == 0, "gradient buffers leaked");
    VDNN_ASSERT(mm.deviceUsage() == persistentTotal,
                "tenant usage %lld != persistent %lld after iteration",
                (long long)mm.deviceUsage(), (long long)persistentTotal);

    res.ok = true;
    return Status::Done;
}

// --- the iteration cursor ---------------------------------------------------

void
Executor::beginIteration()
{
    VDNN_ASSERT(setupDone, "beginIteration() before setup()");
    VDNN_ASSERT(!iterationInFlight(), "previous iteration not collected "
                                      "with finishIteration()");
    // A clean end and abortIteration() both leave the workspace, the
    // pending joins, the gradients and the deferred releases empty;
    // the rest of the iteration's state starts over here.
    pcIndex = 0;
    st = Status::Running;
    blockedOn = -1;
    computeJoined = false;
    groupLayer = -2;
    groupBackward = false;
    res = IterationResult{};
    res.layers.assign(net.numLayers(), LayerTiming{});
    remainingReaders = initialReaders;
    prefetchState.reset();
}

Executor::Status
Executor::step()
{
    if (finished())
        return st;
    VDNN_ASSERT(iterationInFlight(), "step() before beginIteration()");
    const std::vector<IterOp> &ops = compiled->program().ops;
    VDNN_ASSERT(pcIndex < ops.size(), "cursor ran off the program");
    const IterOp &op = ops[pcIndex];

    // Entering a new (layer, phase) group: take the timestamp the
    // monolithic loop captured at forwardLayer/backwardLayer entry.
    if (op.layer != groupLayer || op.backward != groupBackward) {
        groupLayer = op.layer;
        groupBackward = op.backward;
        tLayerStart = rt.now();
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
            rt.launchKernel(streamCompute,
                            launchPlan[std::size_t(op.layer)].fwd);
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
      case OpKind::EndIteration:
        if (opEndIteration() == Status::Blocked)
            return st;
        st = Status::Done;
        break;
    }

    if (!ok)
        return st; // abortIteration() marked the cursor Failed
    ++pcIndex;
    return st;
}

void
Executor::stepExclusive()
{
    // The tenant owns the device: nothing else can run while it waits,
    // so block the host on the joined stream and retry the op.
    while (step() == Status::Blocked)
        rt.synchronize(blockedOn);
}

void
Executor::drain()
{
    while (!finished())
        stepExclusive();
}

IterationResult
Executor::finishIteration()
{
    VDNN_ASSERT(finished(), "finishIteration() without a finished "
                            "iteration");
    IterationResult r = std::move(res);
    st = Status::Idle;
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

IterationResult
Executor::runIteration()
{
    beginIteration();
    drain();
    return finishIteration();
}

} // namespace vdnn::core
