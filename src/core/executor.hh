/**
 * @file
 * The vDNN training-iteration executor (Sections III-A and III-B),
 * decomposed into a compile-then-step architecture.
 *
 * The Executor compiles one IterationProgram — an explicit op stream
 * of Alloc / Kernel / Offload / OnDemandFetch / Prefetch / Sync /
 * Release steps (core/iteration_program.hh) — from its (Network,
 * MemoryPlan, ExecutorConfig) triple, and executes it on the simulated
 * CUDA runtime with two streams, exactly as the paper's prototype:
 *
 *  - stream_compute sequences all layer kernels (cuDNN / cuBLAS);
 *  - stream_memory performs offload (D2H) and prefetch (H2D) DMAs.
 *
 * Forward, per layer: allocate Y and workspace from the cnmem pool,
 * launch the kernel; if the plan's directive offloads the layer's
 * input feature maps and this layer is their last consumer (refcount
 * rule, Fig. 3), launch the offload concurrently and synchronize both
 * streams at the layer boundary, then release the device copy.
 * Compressed directives shrink the bytes the DMA moves. Workspace is
 * released after the layer completes; buffers with no backward reuse
 * are aggressively released.
 *
 * Backward, per layer (reverse order): findPrefetchLayer (Fig. 10)
 * launches an overlapped prefetch; missing inputs are fetched on demand
 * (serialized, the case prefetching exists to avoid); gradient maps are
 * allocated on demand and released as soon as their consumer finishes;
 * Y/dY are released once the layer's backward completes (Fig. 8).
 *
 * A static-allocation plan (BaselinePlanner) instead allocates the
 * whole network at setup (Section II-C) and performs no memory
 * traffic. The executor consumes only the MemoryPlan's per-buffer
 * directives — it never consults a policy enum.
 *
 * The Executor is the one verification gate (src/check/): where it
 * compiles — construction and adoptPlan() — it runs the PlanVerifier,
 * ProgramVerifier included, on the very program it will execute,
 * against its pool's free bytes plus the persistent bytes it already
 * holds, and panics on any error. A Session's plans, vDNN_dyn's
 * profiling trials and directly built executors are all checked there,
 * each plan once.
 *
 * Execution is driven by an IterationStepper: a resumable cursor over
 * the program. runIteration() is a drain loop (step(blocking=true)
 * until done) and reproduces the former monolithic loop's timing
 * exactly. An external scheduler can instead step(blocking=false):
 * Sync boundaries (and the Barrier / EndIteration drains) then return
 * Blocked instead of stalling the host, so iterations of concurrent
 * tenants on a shared runtime can interleave at op granularity — one
 * tenant's compute ops run under another's in-flight DMAs
 * (serve::SchedPolicy::PackedOverlap). The on-demand fetch path stays
 * host-blocking even then: it is the serialized fallback prefetching
 * exists to avoid.
 */

#ifndef VDNN_CORE_EXECUTOR_HH
#define VDNN_CORE_EXECUTOR_HH

#include "check/check.hh"
#include "core/iteration_program.hh"
#include "core/memory_manager.hh"
#include "core/planner.hh"
#include "core/prefetch.hh"
#include "dnn/cudnn_sim.hh"
#include "gpu/runtime.hh"
#include "net/network.hh"
#include "net/network_stats.hh"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace vdnn::core
{

/** Executor knobs (defaults reproduce the paper's design). */
struct ExecutorConfig
{
    /**
     * Release offloaded buffers at the owning layer's boundary by
     * synchronizing both streams (the paper's design). false defers the
     * release to the next synchronization point after the copy
     * completes (asynchronous release; ablation study).
     */
    bool syncAtLayerBoundary = true;
    /** Enable overlapped prefetching (false: on-demand fetches only). */
    bool prefetchEnabled = true;
    /** Bound the prefetch search window at the next CONV layer. */
    bool prefetchWindowBounded = true;
    /**
     * Static verification (src/check/): the Executor's gate runs the
     * PlanVerifier, ProgramVerifier included, on every program it
     * compiles. Defaults on, except in Release builds.
     */
    check::CheckConfig check;
};

/** Wall-clock window of one layer's kernels within the iteration. */
struct LayerTiming
{
    net::LayerId id = -1;
    TimeNs fwdStart = 0;
    TimeNs fwdEnd = 0;
    TimeNs bwdStart = 0;
    TimeNs bwdEnd = 0;

    TimeNs fwdLatency() const { return fwdEnd - fwdStart; }
    TimeNs bwdLatency() const { return bwdEnd - bwdStart; }
    /** Fig. 6 reuse distance: end of forward to start of backward. */
    TimeNs reuseDistance() const { return bwdStart - fwdEnd; }
};

/** What kind of allocation failed an iteration (for vDNN_dyn). */
enum class FailKind : std::uint8_t
{
    None,
    Workspace,
    FeatureMap,
    Gradient,
    Fetch,
};

/** Outcome of one training iteration. */
struct IterationResult
{
    bool ok = false;
    std::string failReason;
    FailKind failKind = FailKind::None;
    net::LayerId failLayer = net::kInputLayer;

    TimeNs start = 0;
    TimeNs end = 0;
    TimeNs makespan() const { return end - start; }

    /** Portion of the makespan spent in classifier layers. */
    TimeNs classifierTime = 0;
    /** Feature-extraction-only latency (the paper's Fig. 14 metric). */
    TimeNs featureExtractionTime() const
    {
        return makespan() - classifierTime;
    }

    /** Time stream_compute spent stalled on stream_memory transfers. */
    TimeNs transferStallTime = 0;

    Bytes offloadedBytes = 0;
    /**
     * Bytes that actually crossed PCIe (offloads + prefetches +
     * on-demand fetches). Equals the raw traffic unless the plan
     * routes buffers through the compressing DMA engine.
     */
    Bytes pcieBytes = 0;
    int offloads = 0;
    int prefetches = 0;
    int onDemandFetches = 0;
    /** Prefetched device copies dropped again under memory pressure. */
    int prefetchEvictions = 0;

    std::vector<LayerTiming> layers;
};

/** A pool allocation plus its managed-usage accounting flag. */
struct TaggedAlloc
{
    mem::Allocation alloc;
    bool managed = false;
};

/**
 * Pre-resolved dispatch tables (the flat-dispatch layer). The
 * IterationProgram's ops carry the buffers each op touches; these
 * tables cache, per layer and per buffer, the device-side details —
 * kernel descriptors with their costs resolved, DMA tags and
 * compressed byte counts — so the stepper's per-op work is a table
 * walk, not cost-model calls plus string formatting. Rebuilt by
 * Executor::rebuildDispatchPlan() at construction and adoptPlan().
 */
struct ExecLaunchPlan
{
    /** Forward kernel, cost and name resolved against the plan algo. */
    gpu::KernelDesc fwd;
    /** Backward filter-gradient kernel (the only one for non-conv). */
    gpu::KernelDesc bwdFilter;
    /** Backward data-gradient kernel (conv with non-input X only). */
    gpu::KernelDesc bwdData;
    bool hasBwdData = false;
    /**
     * Pool tag and managed flag of the layer's conv workspace. Its size
     * is the op operand IterOp::wsBytes, which the ProgramVerifier
     * charges; tag and flag are device-side details, split off like
     * ExecBufferPlan's tags so the stepper formats no strings.
     */
    std::string wsTag;
    bool wsManaged = false;
    bool classifier = false;
};

struct ExecBufferPlan
{
    Bytes bytes = 0;
    /** Bytes crossing PCIe per transfer (compression applied). */
    Bytes dmaBytes = 0;
    /** No backward reuse, not classifier: free after last fwd read. */
    bool fwdReleasable = false;
    /** Lives in the static classifier region (no managed gradient). */
    bool classifier = false;
    std::string offloadTag;
    std::string prefetchTag;
    std::string fetchTag;
    std::string gradTag;
};

class Executor;

/**
 * A resumable cursor over an Executor's IterationProgram.
 *
 * step(blocking=true) always executes the next op, stalling the
 * simulated host at stream joins exactly like the former monolithic
 * loop. step(blocking=false) instead returns Blocked from a Sync /
 * Barrier / EndIteration op whose stream has in-flight work, leaving
 * the host free to advance another tenant's stepper; the op resumes
 * where it left off on the next call. The two modes produce identical
 * device timelines for a single tenant — non-blocking mode only hands
 * the wait loop to the caller.
 */
class IterationStepper
{
  public:
    enum class Status : std::uint8_t
    {
        Running, ///< more ops to execute
        Blocked, ///< next op waits on blockedStream() (non-blocking)
        Done,    ///< iteration completed; result().ok == true
        Failed,  ///< iteration aborted; result().failReason says why
    };

    /** Execute (or resume) the next op. */
    Status step(bool blocking = true);

    Status status() const { return st; }
    bool finished() const
    {
        return st == Status::Done || st == Status::Failed;
    }

    /** Stream the stepper is blocked on (valid while Blocked). */
    gpu::StreamId blockedStream() const { return blockedOn; }

    /** Index of the next op to execute (the program counter). */
    std::size_t pc() const { return pcIndex; }
    const IterOp *nextOp() const;

    const IterationResult &result() const { return res; }

  private:
    friend class Executor;

    explicit IterationStepper(Executor &executor);

    Status blocked(gpu::StreamId stream);

    /** Unwind a partially executed iteration (tenant eviction). */
    void cancel();

    // --- op bodies (false = iteration aborted) ---------------------------
    bool opBeginIteration();
    bool opFwdAlloc(const IterOp &op);
    void opFwdKernel(net::LayerId id);
    void opFwdOffload(const IterOp &op);
    void opFwdRelease(const IterOp &op);
    bool opBwdFetch(const IterOp &op);
    bool opBwdAlloc(const IterOp &op);
    void opBwdPrefetch(net::LayerId id);
    void opBwdKernel(net::LayerId id);
    void opBwdRelease(const IterOp &op);
    Status opSync(const IterOp &op, bool blocking);
    Status opBarrier(bool blocking);
    Status opEndIteration(bool blocking);

    Executor &ex;
    std::size_t pcIndex = 0;
    Status st = Status::Running;
    gpu::StreamId blockedOn = -1;

    /** Resume point inside a partially executed Sync op. */
    int syncPhase = 0;
    TimeNs tComputeDone = 0;

    /** (layer, phase) group the cursor is in, for entry timestamps. */
    net::LayerId groupLayer = -2;
    bool groupBackward = false;
    /** rt.now() when the cursor entered the current layer group. */
    TimeNs tLayerStart = 0;

    /** Live convolution workspace of the current layer. */
    std::optional<TaggedAlloc> ws;
    /** Buffers whose offload DMA this layer's Sync op joins. */
    std::vector<net::BufferId> offloading;
    /** Buffers whose prefetch DMA this layer's Sync op joins. */
    std::vector<net::BufferId> prefetching;

    IterationResult res;
};

class Executor
{
  public:
    Executor(const net::Network &net, const dnn::CudnnSim &cudnn,
             gpu::Runtime &runtime, MemoryManager &mm,
             const MemoryPlan &plan, ExecutorConfig config = {});

    /**
     * Allocate the persistent state: weights, the shared dW buffer, the
     * classifier block, and — for static-allocation plans — the full
     * network-wide allocation (all feature maps, reused gradient
     * buffers, shared max workspace).
     * @return false when the pool cannot hold it (untrainable).
     */
    bool setup();

    /** Run one forward+backward pass. Requires a successful setup(). */
    IterationResult runIteration();

    /**
     * Start an iteration to be driven one op at a time. At most one
     * stepper is live; the previous iteration must have been drained
     * (finished()) and collected with finishIteration().
     */
    IterationStepper &beginIteration();

    /** The live stepper, or nullptr between iterations. */
    IterationStepper *activeStepper() { return stepper.get(); }

    /** Collect a finished stepper's result and retire it. */
    IterationResult finishIteration();

    /**
     * Abandon the in-flight iteration (if any) without folding it into
     * any result: drain the device, unwind every per-iteration
     * allocation and retire the stepper. The iteration is simply
     * re-run later — the path a tenant eviction takes when it parks
     * mid-iteration. No-op between iterations.
     */
    void cancelIteration();

    /**
     * Move @p bytes of tenant state across PCIe on the executor's
     * memory stream and block until the copy lands. Used by the
     * session lifecycle to evict the persistent state to pinned host
     * memory (D2H) and restore it on resume (H2D).
     */
    void dmaState(Bytes bytes, gpu::CopyDir dir, const std::string &tag);

    /**
     * Swap the execution plan in place at an iteration boundary
     * (mid-run re-planning). Requires no iteration in flight and a
     * plan of the same allocation style (the persistent set — weights,
     * dW, classifier block — is identical across layer-wise plans, so
     * only the directives/algorithms and the recompiled
     * IterationProgram change).
     */
    void adoptPlan(const MemoryPlan &plan);

    /** Release the persistent state. */
    void teardown();

    /** Persistent footprint allocated by setup(). */
    Bytes persistentBytes() const { return persistentTotal; }

    const MemoryPlan &plan() const { return execPlan; }

    /** The compiled op stream every iteration executes. */
    const IterationProgram &program() const { return prog; }

    /** Findings of the last gate run (empty when verification is off). */
    const check::CheckResult &checkResult() const { return gate; }

  private:
    friend class IterationStepper;

    /**
     * The verification gate: when cfg.check.verifyPlans, verify
     * execPlan on prog (check::verifyCompiledPlan) against the pool's
     * free bytes plus persistentTotal; panic on any error.
     */
    void verifyGate(const char *when);

    // --- setup helpers ------------------------------------------------------
    bool allocPersistent(Bytes bytes, const std::string &tag,
                         bool managed);
    void teardownPartial();

    // --- kernel launch helpers -----------------------------------------------
    void launchForwardKernels(net::LayerId id);
    void launchBackwardKernels(net::LayerId id);

    // --- memory helpers -----------------------------------------------------
    bool ensureResident(net::BufferId b, net::LayerId curr,
                        IterationResult &result);
    /**
     * Memory-pressure recovery: evict prefetched-but-unconsumed buffers
     * (device copy dropped for free; the pinned host copy is still
     * valid) until a block of @p need bytes could fit, so mandatory
     * allocations win over opportunistic prefetches.
     * @return true if anything was evicted
     */
    bool evictUnconsumedPrefetches(Bytes need, net::LayerId curr);
    /** Is @p b a cold prefetch at layer @p curr_topo: prefetched,
     *  device-resident with a valid host copy, first backward use
     *  still ahead? evictUnconsumedPrefetches' candidate rule. */
    bool coldPrefetch(net::BufferId b, int curr_topo) const;
    bool allocGradient(net::BufferId b);
    void releaseGradient(net::BufferId b);
    bool gradientLive(net::BufferId b) const;
    void processDeferredReleases(bool force);
    void abortIteration(IterationResult &result, const std::string &why,
                        FailKind kind = FailKind::None,
                        net::LayerId layer = net::kInputLayer);

    /** Network-wide static allocation: no directives are executed. */
    bool staticAlloc() const { return execPlan.staticAllocation; }

    /** Rebuild the flat-dispatch tables from (net, execPlan). */
    void rebuildDispatchPlan();

    const net::Network &net;
    const dnn::CudnnSim &cudnn;
    gpu::Runtime &rt;
    MemoryManager &mm;
    MemoryPlan execPlan;
    ExecutorConfig cfg;
    net::NetworkStats stats;
    IterationProgram prog;
    check::CheckResult gate;

    gpu::StreamId streamCompute = -1;
    gpu::StreamId streamMemory = -1;

    bool setupDone = false;
    std::vector<TaggedAlloc> persistent;
    Bytes persistentTotal = 0;
    /** Baseline only: every buffer is pre-materialized. */
    bool buffersStatic = false;
    /** Buffers materialized at setup (classifier block / baseline). */
    std::vector<bool> staticBuffers;

    // Flat-dispatch tables (rebuildDispatchPlan).
    std::vector<ExecLaunchPlan> launchPlan; // per layer
    std::vector<ExecBufferPlan> bufferPlan; // per buffer
    /** Initial forward refcounts, copied into remainingReaders. */
    std::vector<int> initialReaders;

    // Per-iteration state (reset by the BeginIteration op).
    /** Live gradient allocations, indexed by buffer id. */
    std::vector<std::optional<TaggedAlloc>> gradients;
    int liveGradients = 0;
    std::vector<std::pair<net::BufferId, gpu::CudaEventId>>
        deferredReleases;
    std::vector<int> remainingReaders; // forward refcounts, per buffer
    std::optional<PrefetchState> prefetchState;

    std::unique_ptr<IterationStepper> stepper;

    /** Registry slots cached at construction (null = telemetry off). */
    obs::Counter *ctrIters = nullptr;
    obs::Counter *ctrOffloads = nullptr;
    obs::Counter *ctrPrefetches = nullptr;
    obs::Counter *ctrOnDemand = nullptr;
};

} // namespace vdnn::core

#endif // VDNN_CORE_EXECUTOR_HH
