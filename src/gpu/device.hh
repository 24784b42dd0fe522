/**
 * @file
 * One simulated GPU: streams, kernels and async copies.
 *
 * This is the substrate vDNN is built on. It reproduces the CUDA
 * execution semantics the paper relies on (Section III-B):
 *
 *  - streams are FIFO command queues; commands on the same stream
 *    execute strictly in order;
 *  - commands on different streams may overlap, subject to engine
 *    availability: one compute engine (the GPU processes a single
 *    layer's kernel at a time, Section II-B) and two DMA copy engines
 *    (one per direction, as on Titan X);
 *  - synchronize() blocks the (simulated) host until a stream drains;
 *  - a stream mark (streamMark / markPassed) lets the host poll,
 *    without waiting, whether the commands enqueued on a stream so far
 *    have retired.
 *
 * Time is advanced by a discrete-event queue; the host runs at
 * synchronization boundaries, exactly like a real CUDA host thread that
 * enqueues asynchronous work and blocks on cudaStreamSynchronize().
 * The queue is not the device's own: a Device is a member of a
 * `Cluster` (gpu/cluster.hh), which owns the clock, the device's
 * memory pool and its pinned-host share, so kernels and DMAs on
 * different devices of one node overlap in simulated time while each
 * device keeps its own engines, PCIe link, fair-share arbiters and
 * power model. A single-GPU experiment is a one-device cluster.
 *
 * A simple DRAM contention model stretches kernels whose bandwidth
 * demand cannot be met while a DMA copy is stealing PCIe-rate bandwidth
 * (the paper bounds this interference at 16/336 = 4.7%, Section V-B).
 *
 * The per-command path allocates nothing: kernel names and copy tags
 * are Labels (common/label.hh), formatted only into the kernel/copy
 * logs and trace spans; each stream's queue is a reused ring
 * (common/fifo.hh); and the copy-engine grant builds its candidate
 * list in member scratch.
 */

#ifndef VDNN_GPU_DEVICE_HH
#define VDNN_GPU_DEVICE_HH

#include "common/fifo.hh"
#include "common/label.hh"
#include "common/types.hh"
#include "gpu/gpu_spec.hh"
#include "gpu/power_model.hh"
#include "interconnect/arbiter.hh"
#include "interconnect/pcie_link.hh"
#include "obs/telemetry.hh"
#include "sim/event_queue.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace vdnn::gpu
{

using StreamId = int;
/** Position in a stream's command sequence (see Device::streamMark). */
using StreamMark = std::uint64_t;

/** Direction of a DMA transfer. */
enum class CopyDir : std::uint8_t { HostToDevice, DeviceToHost };

/** Description of a kernel launch (latency precomputed by the caller). */
struct KernelDesc
{
    /** Label; a named one's name must outlive the kernel's run. */
    Label name;
    /** Execution time with exclusive use of the device. */
    TimeNs duration = 1;
    /** Total floating point work, for power accounting. */
    Flops flops = 0.0;
    /** DRAM traffic generated, for bandwidth/contention accounting. */
    Bytes dramBytes = 0;
};

/** Completed-kernel record (enable via setKernelLog()). */
struct KernelRecord
{
    /** The kernel's label, formatted at completion. */
    std::string name;
    TimeNs start = 0;
    TimeNs end = 0;
    Flops flops = 0.0;
    Bytes dramBytes = 0;
    /** Tenant of the launching stream (multi-tenant timelines). */
    int client = 0;

    TimeNs duration() const { return end - start; }
    /** Achieved DRAM bandwidth, bytes/s. */
    double dramBandwidth() const;
};

/** Completed-copy record. */
struct CopyRecord
{
    /** The copy's label, formatted at completion. */
    std::string tag;
    TimeNs start = 0;
    TimeNs end = 0;
    Bytes bytes = 0;
    CopyDir dir = CopyDir::HostToDevice;
    /** Tenant of the issuing stream (multi-tenant timelines). */
    int client = 0;
};

class Device
{
  public:
    /**
     * Device @p id of a node, scheduling against @p clock, which must
     * outlive it. A gpu::Cluster builds its members this way; a test of
     * the device alone passes a local sim::EventQueue.
     */
    Device(int id, GpuSpec spec, sim::EventQueue &clock,
           bool enable_contention = true);

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    /** Index of this device within its cluster. */
    int deviceId() const { return devId; }

    // --- stream management ---------------------------------------------
    /** Open a stream; it takes the slot of a destroyed one if any. */
    StreamId createStream(const std::string &name);

    /** Return an idle @p stream's slot to the device. */
    void destroyStream(StreamId stream);

    /** Streams created and not yet destroyed. */
    int liveStreams() const
    {
        return int(streams.size() - freeStreams.size());
    }

    /**
     * Attach a stream to a tenant for per-client accounting and PCIe
     * fair-share arbitration. Streams default to client 0 (exclusive
     * mode).
     */
    void setStreamClient(StreamId stream, int client);

    /** Tenant a stream is attached to (0 unless set). */
    int streamClient(StreamId stream) const;

    // --- asynchronous command submission --------------------------------
    /** Enqueue a kernel on @p stream. */
    void launchKernel(StreamId stream, KernelDesc desc);

    /**
     * Enqueue an async DMA of @p bytes on @p stream. A named @p tag's
     * name must outlive the copy.
     */
    void memcpyAsync(StreamId stream, Bytes bytes, CopyDir dir,
                     Label tag = {});

    // --- host-side synchronization ---------------------------------------
    /** Block the host until @p stream drains (advances simulated time). */
    void synchronize(StreamId stream);

    /** Block the host until every stream of this device drains. */
    void deviceSynchronize();

    /** True when @p stream has no pending or executing commands. */
    bool streamIdle(StreamId stream) const;

    /**
     * Mark the current tail of @p stream: the count of commands
     * enqueued on it so far. The mark has passed once all of them have
     * retired (markPassed).
     */
    StreamMark streamMark(StreamId stream) const;

    /** True once every command before @p mark on @p stream retired. */
    bool markPassed(StreamId stream, StreamMark mark) const;

    // --- time and statistics ---------------------------------------------
    /** Current simulated time (the host clock). */
    TimeNs now() const { return eq.now(); }

    /**
     * Advance the host clock to absolute time @p t, executing any
     * device work scheduled before it (no-op when already past @p t).
     * Models a host thread sleeping until, e.g., the next job arrival
     * in a serving scenario. On a shared cluster clock this advances
     * every sibling device too.
     */
    void advanceTo(TimeNs t) { eq.runUntil(t); }

    /**
     * Execute the single next pending device event, advancing the
     * host clock to it. Lets an external scheduler make minimal time
     * progress while every tenant's iteration is blocked on in-flight
     * device work, instead of committing the host to one stream's
     * full drain. @return false when no event is pending.
     */
    bool stepDevice() { return eq.step(); }

    /** The event queue driving this device (the cluster's when shared). */
    sim::EventQueue &clock() { return eq; }

    PowerModel &power() { return powerModel; }
    const PowerModel &power() const { return powerModel; }

    /** Total bytes copied in @p dir so far. */
    Bytes bytesCopied(CopyDir dir) const;

    /** Bytes copied in @p dir so far on @p client's streams. */
    Bytes bytesCopiedByClient(CopyDir dir, int client) const;

    /** The fair-share arbiter granting the @p dir copy engine. */
    const ic::FairShareArbiter &pcieArbiter(CopyDir dir) const;

    /** Cumulative busy time of the compute engine. */
    TimeNs computeBusyTime() const { return computeBusy; }

    /** Cumulative busy time of the copy engine for @p dir. */
    TimeNs copyBusyTime(CopyDir dir) const;

    /** Enable/disable retention of per-kernel and per-copy records. */
    void setKernelLog(bool enabled) { keepLog = enabled; }

    /**
     * Completion wake hook: invoked every time this device executes a
     * scheduled event (kernel retirement or DMA completion), after the
     * completion is fully processed — the stream's next command
     * dispatched and its retired count advanced. An iteration blocks
     * only on its own device's streams, and streams drain only
     * through these two completion paths, so an external serve loop
     * that wakes exactly the hooked device on each call never misses
     * an unblock — it drains woken devices instead of polling all of
     * them per event. `client` is the owner of the completing stream
     * (setStreamClient), so a multi-tenant loop can further narrow the
     * wake to the one tenant whose iteration the completion could have
     * unblocked. Plain function pointer + context: the unset case
     * (a Session driving its device alone) costs one branch.
     */
    using WakeHook = void (*)(void *ctx, int device, int client);
    void setWakeHook(WakeHook hook, void *ctx)
    {
        wakeHook = hook;
        wakeCtx = ctx;
    }

    /**
     * Attach telemetry sinks (null members = off). Kernel and DMA
     * completions become trace spans (pid = device id, tid = tenant),
     * arbiter grants become instant events, and per-device counters
     * are registered with the metrics registry.
     */
    void setTelemetry(obs::Telemetry t);

    /** The attached sinks (members null when telemetry is off). */
    const obs::Telemetry &telemetry() const { return tele; }

    const std::vector<KernelRecord> &kernelLog() const { return kLog; }
    const std::vector<CopyRecord> &copyLog() const { return cLog; }

    const GpuSpec &spec() const { return gpuSpec; }

    /** Close the power observation window at the current time. */
    void finishPowerWindow() { powerModel.finish(now()); }

  private:
    struct Command
    {
        enum class Type : std::uint8_t { Kernel, Copy };
        Type type;
        KernelDesc kernel;   // Type::Kernel
        Bytes bytes = 0;     // Type::Copy
        CopyDir dir = CopyDir::HostToDevice;
        Label tag;           // Type::Copy
    };

    struct Stream
    {
        std::string name;
        Fifo<Command> queue;
        /** Head command handed to an engine and executing. */
        bool headDispatched = false;
        /** Owning tenant (per-client accounting, PCIe arbitration). */
        int client = 0;
        /** Commands ever enqueued / retired (stream marks). */
        StreamMark enqueued = 0;
        StreamMark retired = 0;
    };

    /** One-kernel-at-a-time compute engine with contention stretching. */
    struct ComputeEngine
    {
        bool busy = false;
        StreamId stream = -1;
        KernelDesc desc;
        TimeNs start = 0;
        /** Unfinished work measured in ns of exclusive-device time. */
        double remainingBase = 0.0;
        TimeNs lastUpdate = 0;
        double rate = 1.0;
        sim::EventId completion = 0;
        std::vector<StreamId> waitQueue;
    };

    /** Single-transfer DMA engine. */
    struct CopyEngine
    {
        bool busy = false;
        StreamId stream = -1;
        Command cmd;
        TimeNs start = 0;
        std::vector<StreamId> waitQueue;
    };

    void enqueue(StreamId sid, const Command &c);
    void tryDispatch(StreamId sid);
    void commandDone(StreamId sid);

    void computeTryStart();
    void computeFinish();
    double computeRate() const;
    void refreshComputeSchedule();

    CopyEngine &engineFor(CopyDir dir);
    const CopyEngine &engineFor(CopyDir dir) const;
    ic::FairShareArbiter &arbiterFor(CopyDir dir);
    void copyTryStart(CopyDir dir);
    void copyFinish(CopyDir dir);

    double kernelComputeUtil(const KernelDesc &desc) const;
    double kernelDramUtil(const KernelDesc &desc) const;
    double kernelDemandBw(const KernelDesc &desc) const;

    GpuSpec gpuSpec;
    bool contention;
    int devId = 0;
    sim::EventQueue &eq;
    ic::PcieLink pcie;
    PowerModel powerModel;

    std::vector<Stream> streams;
    /** Slots of destroyed streams, reused by createStream(). */
    std::vector<StreamId> freeStreams;

    ComputeEngine compute;
    CopyEngine copyD2H;
    CopyEngine copyH2D;
    ic::FairShareArbiter arbD2H;
    ic::FairShareArbiter arbH2D;
    /** copyTryStart()'s per-grant tenant list (reused scratch). */
    std::vector<int> grantOwners;

    Bytes copiedD2H = 0;
    Bytes copiedH2D = 0;
    // Indexed by client id (small dense tenant ids): copy completion
    // accounting is an indexed increment, not a hash insert.
    std::vector<Bytes> copiedByClientD2H;
    std::vector<Bytes> copiedByClientH2D;
    TimeNs computeBusy = 0;
    TimeNs copyBusyD2H = 0;
    TimeNs copyBusyH2D = 0;

    bool keepLog = false;
    std::vector<KernelRecord> kLog;
    std::vector<CopyRecord> cLog;

    WakeHook wakeHook = nullptr;
    void *wakeCtx = nullptr;

    obs::Telemetry tele;
    /** Cached registry slots so the hot path is one null check. */
    obs::Counter *ctrKernels = nullptr;
    obs::Counter *ctrDmaD2H = nullptr;
    obs::Counter *ctrDmaH2D = nullptr;
    obs::Counter *ctrArbGrants = nullptr;
};

} // namespace vdnn::gpu

#endif // VDNN_GPU_DEVICE_HH
