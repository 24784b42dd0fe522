#include "gpu/device.hh"

#include "common/logging.hh"
#include "common/units.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace vdnn::gpu
{

double
KernelRecord::dramBandwidth() const
{
    TimeNs d = duration();
    if (d <= 0)
        return 0.0;
    return double(dramBytes) / toSeconds(d);
}

Device::Device(GpuSpec spec, bool enable_contention)
    : gpuSpec(std::move(spec)), contention(enable_contention),
      ownedEq(std::make_unique<sim::EventQueue>()), eq(*ownedEq),
      pcie(gpuSpec.pcie), powerModel(gpuSpec)
{
    powerModel.begin(0);
}

Device::Device(int id, GpuSpec spec, sim::EventQueue &clock,
               bool enable_contention)
    : gpuSpec(std::move(spec)), contention(enable_contention),
      devId(id), eq(clock), pcie(gpuSpec.pcie), powerModel(gpuSpec)
{
    VDNN_ASSERT(id >= 0, "negative device id %d", id);
    powerModel.begin(eq.now());
}

StreamId
Device::createStream(const std::string &name)
{
    streams.push_back(Stream{name, {}, false, 0, 0, 0});
    return StreamId(streams.size() - 1);
}

void
Device::setStreamClient(StreamId stream, int client)
{
    VDNN_ASSERT(stream >= 0 && size_t(stream) < streams.size(),
                "bad stream id %d", stream);
    streams[size_t(stream)].client = client;
}

int
Device::streamClient(StreamId stream) const
{
    VDNN_ASSERT(stream >= 0 && size_t(stream) < streams.size(),
                "bad stream id %d", stream);
    return streams[size_t(stream)].client;
}

void
Device::setTelemetry(obs::Telemetry t)
{
    tele = t;
    ctrKernels = nullptr;
    ctrDmaD2H = nullptr;
    ctrDmaH2D = nullptr;
    ctrArbGrants = nullptr;
    if (tele.metrics) {
        std::string p = "gpu" + std::to_string(devId) + ".";
        ctrKernels = &tele.metrics->counter(p + "kernels");
        ctrDmaD2H = &tele.metrics->counter(p + "dma_d2h_bytes");
        ctrDmaH2D = &tele.metrics->counter(p + "dma_h2d_bytes");
        ctrArbGrants = &tele.metrics->counter(p + "arbiter_grants");
        tele.metrics->gauge(p + "compute_busy_ns",
                            [this] { return double(computeBusy); });
    }
    if (tele.trace)
        tele.trace->setProcessName(devId, "GPU " + std::to_string(devId) +
                                              " (" + gpuSpec.name + ")");
}

void
Device::launchKernel(StreamId stream, KernelDesc desc)
{
    VDNN_ASSERT(desc.duration >= 0, "negative kernel duration");
    if (desc.duration == 0)
        desc.duration = 1;
    Command c;
    c.type = Command::Type::Kernel;
    c.kernel = desc;
    enqueue(stream, c);
}

void
Device::memcpyAsync(StreamId stream, Bytes bytes, CopyDir dir, Label tag)
{
    VDNN_ASSERT(bytes >= 0, "negative copy size");
    Command c;
    c.type = Command::Type::Copy;
    c.bytes = bytes;
    c.dir = dir;
    c.tag = tag;
    enqueue(stream, c);
}

void
Device::enqueue(StreamId sid, const Command &c)
{
    VDNN_ASSERT(sid >= 0 && size_t(sid) < streams.size(),
                "bad stream id %d", sid);
    Stream &s = streams[size_t(sid)];
    s.queue.push_back(c);
    ++s.enqueued;
    tryDispatch(sid);
}

void
Device::tryDispatch(StreamId sid)
{
    // Every command runs on an engine: hand the head to the kernel or
    // the copy engine and let its completion dispatch the next one.
    Stream &s = streams[size_t(sid)];
    if (s.headDispatched || s.queue.empty())
        return;
    s.headDispatched = true;
    const Command &head = s.queue.front();
    if (head.type == Command::Type::Kernel) {
        compute.waitQueue.push_back(sid);
        computeTryStart();
    } else {
        CopyDir dir = head.dir;
        engineFor(dir).waitQueue.push_back(sid);
        copyTryStart(dir);
    }
}

void
Device::commandDone(StreamId sid)
{
    Stream &s = streams[size_t(sid)];
    VDNN_ASSERT(s.headDispatched, "completion for undispatched head");
    s.headDispatched = false;
    s.queue.pop_front();
    ++s.retired;
    tryDispatch(sid);
}

// --- compute engine ------------------------------------------------------

double
Device::kernelComputeUtil(const KernelDesc &desc) const
{
    if (desc.duration <= 0)
        return 1.0;
    double rate = desc.flops / toSeconds(desc.duration);
    return std::clamp(rate / gpuSpec.peakFlops, 0.0, 1.0);
}

double
Device::kernelDemandBw(const KernelDesc &desc) const
{
    if (desc.duration <= 0)
        return 0.0;
    return double(desc.dramBytes) / toSeconds(desc.duration);
}

double
Device::kernelDramUtil(const KernelDesc &desc) const
{
    return std::clamp(kernelDemandBw(desc) / gpuSpec.dramBandwidth, 0.0,
                      1.0);
}

double
Device::computeRate() const
{
    if (!contention)
        return 1.0;
    double stolen = 0.0;
    if (copyD2H.busy)
        stolen += pcie.spec().dmaBandwidth;
    if (copyH2D.busy)
        stolen += pcie.spec().dmaBandwidth;
    if (stolen <= 0.0)
        return 1.0;
    double demand = kernelDemandBw(compute.desc);
    double avail = std::max(gpuSpec.dramBandwidth - stolen,
                            0.05 * gpuSpec.dramBandwidth);
    if (demand <= avail)
        return 1.0;
    return std::max(avail / demand, 0.05);
}

void
Device::refreshComputeSchedule()
{
    if (!compute.busy)
        return;
    // Account for progress at the old rate, then reschedule completion
    // at the new rate.
    TimeNs now = eq.now();
    double progressed = double(now - compute.lastUpdate) * compute.rate;
    compute.remainingBase = std::max(0.0, compute.remainingBase - progressed);
    compute.lastUpdate = now;
    compute.rate = computeRate();
    eq.deschedule(compute.completion);
    TimeNs remaining =
        TimeNs(std::ceil(compute.remainingBase / compute.rate));
    compute.completion =
        eq.scheduleAfter(std::max<TimeNs>(remaining, 0),
                         [this] { computeFinish(); });
}

void
Device::computeTryStart()
{
    if (compute.busy || compute.waitQueue.empty())
        return;
    StreamId sid = compute.waitQueue.front();
    compute.waitQueue.erase(compute.waitQueue.begin());
    Stream &s = streams[size_t(sid)];
    VDNN_ASSERT(!s.queue.empty() &&
                    s.queue.front().type == Command::Type::Kernel,
                "compute engine granted to non-kernel head");

    compute.busy = true;
    compute.stream = sid;
    compute.desc = s.queue.front().kernel;
    compute.start = eq.now();
    compute.remainingBase = double(compute.desc.duration);
    compute.lastUpdate = eq.now();
    compute.rate = computeRate();
    TimeNs first = TimeNs(std::ceil(compute.remainingBase / compute.rate));
    compute.completion =
        eq.scheduleAfter(first, [this] { computeFinish(); });
    powerModel.kernelStart(eq.now(), kernelComputeUtil(compute.desc),
                           kernelDramUtil(compute.desc));
}

void
Device::computeFinish()
{
    VDNN_ASSERT(compute.busy, "compute finish while idle");
    StreamId sid = compute.stream;
    TimeNs now = eq.now();
    powerModel.kernelEnd(now, kernelComputeUtil(compute.desc),
                         kernelDramUtil(compute.desc));
    computeBusy += now - compute.start;
    if (keepLog) {
        kLog.push_back(KernelRecord{compute.desc.name.str(), compute.start,
                                    now,
                                    compute.desc.flops,
                                    compute.desc.dramBytes,
                                    streams[size_t(sid)].client});
    }
    if (ctrKernels)
        ctrKernels->add();
    if (tele.tracing()) {
        tele.trace->complete(devId, streams[size_t(sid)].client, "kernel",
                             compute.desc.name.str(), compute.start, now);
    }
    compute.busy = false;
    compute.stream = -1;
    commandDone(sid);
    computeTryStart();
    if (wakeHook)
        wakeHook(wakeCtx, devId, streams[size_t(sid)].client);
}

// --- copy engines ----------------------------------------------------------

Device::CopyEngine &
Device::engineFor(CopyDir dir)
{
    return dir == CopyDir::DeviceToHost ? copyD2H : copyH2D;
}

const Device::CopyEngine &
Device::engineFor(CopyDir dir) const
{
    return dir == CopyDir::DeviceToHost ? copyD2H : copyH2D;
}

ic::FairShareArbiter &
Device::arbiterFor(CopyDir dir)
{
    return dir == CopyDir::DeviceToHost ? arbD2H : arbH2D;
}

void
Device::copyTryStart(CopyDir dir)
{
    CopyEngine &e = engineFor(dir);
    if (e.busy || e.waitQueue.empty())
        return;
    // Grant the engine by fair share over the queued tenants (FIFO
    // among a single tenant's transfers, and trivially FIFO when only
    // one stream is waiting).
    std::size_t pick = 0;
    if (e.waitQueue.size() > 1) {
        std::vector<int> &owners = grantOwners;
        owners.clear();
        for (StreamId s : e.waitQueue)
            owners.push_back(streams[size_t(s)].client);
        pick = arbiterFor(dir).pick(owners);
        if (ctrArbGrants)
            ctrArbGrants->add();
        if (tele.tracing()) {
            tele.trace->instant(
                devId, owners[pick], "arbiter",
                dir == CopyDir::DeviceToHost ? "grant-d2h" : "grant-h2d",
                eq.now(),
                "{\"queued\":" + std::to_string(owners.size()) + "}");
        }
    }
    StreamId sid = e.waitQueue[pick];
    e.waitQueue.erase(e.waitQueue.begin() +
                      std::ptrdiff_t(pick));
    Stream &s = streams[size_t(sid)];
    VDNN_ASSERT(!s.queue.empty() &&
                    s.queue.front().type == Command::Type::Copy,
                "copy engine granted to non-copy head");

    e.busy = true;
    e.stream = sid;
    e.cmd = s.queue.front();
    e.start = eq.now();
    TimeNs dur = pcie.transferTime(e.cmd.bytes);
    eq.scheduleAfter(dur, [this, dir] { copyFinish(dir); });
    powerModel.copyStart(eq.now(), pcie.spec().dmaBandwidth);
    refreshComputeSchedule();
}

void
Device::copyFinish(CopyDir dir)
{
    CopyEngine &e = engineFor(dir);
    VDNN_ASSERT(e.busy, "copy finish while idle");
    StreamId sid = e.stream;
    TimeNs now = eq.now();
    powerModel.copyEnd(now, pcie.spec().dmaBandwidth);
    int client = streams[size_t(sid)].client;
    arbiterFor(dir).charge(client, e.cmd.bytes);
    auto &byClient = dir == CopyDir::DeviceToHost ? copiedByClientD2H
                                                  : copiedByClientH2D;
    if (size_t(client) >= byClient.size())
        byClient.resize(size_t(client) + 1, 0);
    byClient[size_t(client)] += e.cmd.bytes;
    if (dir == CopyDir::DeviceToHost) {
        copiedD2H += e.cmd.bytes;
        copyBusyD2H += now - e.start;
    } else {
        copiedH2D += e.cmd.bytes;
        copyBusyH2D += now - e.start;
    }
    if (keepLog) {
        cLog.push_back(CopyRecord{e.cmd.tag.str(), e.start, now, e.cmd.bytes,
                                  dir, client});
    }
    if (dir == CopyDir::DeviceToHost ? ctrDmaD2H != nullptr
                                     : ctrDmaH2D != nullptr) {
        (dir == CopyDir::DeviceToHost ? ctrDmaD2H : ctrDmaH2D)
            ->add(double(e.cmd.bytes));
    }
    if (tele.tracing()) {
        tele.trace->complete(
            devId, client, "dma",
            e.cmd.tag.empty()
                ? (dir == CopyDir::DeviceToHost ? "d2h" : "h2d")
                : e.cmd.tag.str(),
            e.start, now,
            "{\"bytes\":" + std::to_string(e.cmd.bytes) + ",\"dir\":\"" +
                (dir == CopyDir::DeviceToHost ? "d2h" : "h2d") + "\"}");
    }
    e.busy = false;
    e.stream = -1;
    commandDone(sid);
    copyTryStart(dir);
    refreshComputeSchedule();
    if (wakeHook)
        wakeHook(wakeCtx, devId, client);
}

// --- host synchronization ---------------------------------------------------

bool
Device::streamIdle(StreamId stream) const
{
    const Stream &s = streams.at(size_t(stream));
    return s.queue.empty() && !s.headDispatched;
}

StreamMark
Device::streamMark(StreamId stream) const
{
    return streams.at(size_t(stream)).enqueued;
}

bool
Device::markPassed(StreamId stream, StreamMark mark) const
{
    return streams.at(size_t(stream)).retired >= mark;
}

void
Device::synchronize(StreamId stream)
{
    // A busy stream's head always holds an engine or waits behind one
    // whose completion is scheduled, so the clock cannot run dry first.
    while (!streamIdle(stream)) {
        if (!eq.step()) {
            panic("deadlock: stream '%s' has pending work but no event "
                  "is scheduled",
                  streams[size_t(stream)].name.c_str());
        }
    }
}

void
Device::deviceSynchronize()
{
    for (;;) {
        bool all_idle = true;
        for (size_t i = 0; i < streams.size(); ++i) {
            if (!streamIdle(StreamId(i))) {
                all_idle = false;
                break;
            }
        }
        if (all_idle)
            return;
        if (!eq.step())
            panic("deadlock in deviceSynchronize()");
    }
}

Bytes
Device::bytesCopied(CopyDir dir) const
{
    return dir == CopyDir::DeviceToHost ? copiedD2H : copiedH2D;
}

Bytes
Device::bytesCopiedByClient(CopyDir dir, int client) const
{
    const auto &m = dir == CopyDir::DeviceToHost ? copiedByClientD2H
                                                 : copiedByClientH2D;
    if (client < 0 || size_t(client) >= m.size())
        return 0;
    return m[size_t(client)];
}

const ic::FairShareArbiter &
Device::pcieArbiter(CopyDir dir) const
{
    return dir == CopyDir::DeviceToHost ? arbD2H : arbH2D;
}

TimeNs
Device::copyBusyTime(CopyDir dir) const
{
    return dir == CopyDir::DeviceToHost ? copyBusyD2H : copyBusyH2D;
}

} // namespace vdnn::gpu
