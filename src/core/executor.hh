/**
 * @file
 * The vDNN training-iteration executor (Sections III-A and III-B),
 * decomposed into a compile-then-step architecture.
 *
 * The Executor runs one IterationProgram — an explicit op stream of
 * Alloc / Kernel / Offload / OnDemandFetch / Prefetch / Sync / Release
 * steps (core/iteration_program.hh) — compiled from its (Network,
 * MemoryPlan, ExecutorConfig) triple, on the simulated CUDA runtime
 * with two streams, exactly as the paper's prototype:
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
 * The program is not the Executor's own: it takes a shared
 * CompiledPlan (core/program_cache.hh) — program, persistent footprint
 * and verdict — from the ProgramCache it is given, so executors of the
 * same plan compile it once, or builds a private one when it has no
 * cache.
 *
 * The Executor is the one verification gate (src/check/): wherever it
 * takes a program — construction and adoptPlan() — it checks the very
 * program it will execute. It copies the entry's share-independent
 * verdict (the PlanVerifier body, ProgramVerifier included, run on the
 * entry's first verified use) and runs the capacity step against its
 * pool's free bytes plus the persistent bytes it already holds, so
 * every tenant gets its own ShareExceeded, and it panics on any error,
 * on every use of a bad entry. A Session's plans, vDNN_dyn's profiling
 * trials and directly built executors are all checked there; each
 * distinct plan is verified once per cache.
 *
 * The Executor is also the iteration's cursor: beginIteration() resets
 * it to the top of the program, and step() executes one op. A Sync op
 * (and the Barrier / EndIteration drains) returns Blocked while a
 * stream it joins has in-flight work, and resumes there on the next
 * step(). A tenant that owns its device drives the iteration with
 * drain() (runIteration()): on Blocked it blocks the host on the
 * joined stream and retries, the paper's layer-boundary join. A
 * serving scheduler instead advances other tenants meanwhile, so
 * iterations of concurrent tenants on a shared runtime interleave at
 * op granularity — one tenant's compute ops run under another's
 * in-flight DMAs (serve::SchedPolicy::PackedOverlap). Whether an
 * iteration is in flight is the cursor's status (Idle between
 * iterations). The two streams are the tenant's, opened by its
 * MemoryManager for the length of its device binding.
 *
 * Host waits that remain inside a step, for every driver:
 *  - ensureResident(): the on-demand fetch (the serialized fallback
 *    prefetching exists to avoid) and the wait on a prefetch still in
 *    flight;
 *  - dmaState(): the evict / restore staging copy;
 *  - abortIteration(): a deviceSynchronize(), which on a shared device
 *    also waits out co-tenants' streams.
 */

#ifndef VDNN_CORE_EXECUTOR_HH
#define VDNN_CORE_EXECUTOR_HH

#include "check/check.hh"
#include "core/iteration_program.hh"
#include "core/memory_manager.hh"
#include "core/planner.hh"
#include "core/prefetch.hh"
#include "dnn/cudnn_sim.hh"
#include "gpu/device.hh"
#include "net/network.hh"

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
 * kernel descriptors with their costs resolved, kernel and workspace
 * labels, compressed byte counts — so the executor's per-op work is a
 * table walk, not cost-model calls. Labels (common/label.hh) are
 * views of the network's layer names or a prefix plus a buffer id,
 * so neither building these tables' labels nor handing them to the
 * pool and the device formats a string; the per-op path allocates
 * nothing. Rebuilt by Executor::rebuildDispatchPlan() at construction
 * and adoptPlan().
 */
struct ExecLaunchPlan
{
    /** Forward kernel, cost and label resolved against the plan algo. */
    gpu::KernelDesc fwd;
    /** Backward filter-gradient kernel (the only one for non-conv). */
    gpu::KernelDesc bwdFilter;
    /** Backward data-gradient kernel (conv with non-input X only). */
    gpu::KernelDesc bwdData;
    bool hasBwdData = false;
    /**
     * Pool label ("ws:<layer>") and managed flag of the layer's conv
     * workspace. Its size is the op operand IterOp::wsBytes, which the
     * ProgramVerifier charges; label and flag are device-side details.
     */
    Label wsTag;
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
};

class CompiledPlan;
class ProgramCache;

class Executor
{
  public:
    /** Where the iteration cursor stands. */
    enum class Status : std::uint8_t
    {
        Idle,    ///< no iteration in flight
        Running, ///< more ops to execute
        Blocked, ///< next op waits on blockedStream()
        Done,    ///< iteration completed; finishIteration() collects it
        Failed,  ///< iteration aborted; the result's failReason says why
    };

    /** Run @p plan; take its program from @p programs when set, else
     *  compile a private one (compiledPlan()). */
    Executor(const net::Network &net, const dnn::CudnnSim &cudnn,
             gpu::Device &runtime, MemoryManager &mm,
             const MemoryPlan &plan, ExecutorConfig config = {},
             ProgramCache *programs = nullptr);

    /**
     * Allocate the persistent state: weights, the shared dW buffer, the
     * classifier block, and — for static-allocation plans — the full
     * network-wide allocation (all feature maps, reused gradient
     * buffers, shared max workspace).
     * @return false when the pool cannot hold it (untrainable).
     */
    bool setup();

    /**
     * Run one forward+backward pass as the device's only driver
     * (drain()). Requires a successful setup().
     */
    IterationResult runIteration();

    // --- the iteration cursor -------------------------------------------
    /**
     * Rewind to the top of a new iteration, to be driven one op at a
     * time. The previous iteration must have been collected with
     * finishIteration() (or cancelled).
     */
    void beginIteration();

    /** Between beginIteration() and finishIteration() /
     *  cancelIteration(). */
    bool iterationInFlight() const { return st != Status::Idle; }

    /**
     * Execute the next op, or return Blocked from a Sync / Barrier /
     * EndIteration op whose stream has in-flight work, leaving the host
     * free to advance another tenant; the op resumes where it left off
     * on the next call.
     */
    Status step();

    /**
     * Execute the next op, blocking the host on each stream it joins
     * until the op completes (status() is then never Blocked): the one
     * driver for a tenant alone on its device. Host waits inside an op
     * (file comment) happen under either driver.
     */
    void stepExclusive();

    /** Run the iteration to its end with stepExclusive(). */
    void drain();

    Status status() const { return st; }
    bool finished() const
    {
        return st == Status::Done || st == Status::Failed;
    }

    /** Stream the iteration is blocked on (valid while Blocked). */
    gpu::StreamId blockedStream() const { return blockedOn; }

    /** Index of the next op to execute (the program counter). */
    std::size_t pc() const { return pcIndex; }
    const IterOp *nextOp() const;

    /** Collect a finished iteration's result; the cursor goes Idle. */
    IterationResult finishIteration();

    /**
     * Abandon the in-flight iteration (if any) without folding it into
     * any result: drain the device and unwind every per-iteration
     * allocation. The iteration is simply re-run later — the path a
     * tenant eviction takes when it parks mid-iteration. No-op between
     * iterations.
     */
    void cancelIteration();

    /**
     * Move @p bytes of tenant state across PCIe on the executor's
     * memory stream and block until the copy lands. Used by the
     * session lifecycle to evict the persistent state to pinned host
     * memory (D2H) and restore it on resume (H2D).
     */
    void dmaState(Bytes bytes, gpu::CopyDir dir, Label tag);

    /**
     * Swap the execution plan in place at an iteration boundary
     * (mid-run re-planning). Requires no iteration in flight and a
     * plan of the same allocation style (the persistent set — weights,
     * dW, classifier block — is identical across layer-wise plans, so
     * only the directives/algorithms and the IterationProgram change;
     * the program comes from the same cache as the constructor's).
     */
    void adoptPlan(const MemoryPlan &plan);

    /** Release the persistent state. */
    void teardown();

    /** Persistent footprint allocated by setup(). */
    Bytes persistentBytes() const { return persistentTotal; }

    const MemoryPlan &plan() const { return execPlan; }

    /** The compiled op stream every iteration executes. */
    const IterationProgram &program() const;

    /** Findings of the last gate run (empty when verification is off). */
    const check::CheckResult &checkResult() const { return gate; }

  private:
    /**
     * The verification gate: when cfg.check.verifyPlans, copy the
     * entry's verdict (verifying it on first use) and run the capacity
     * step (check::checkShare) against the pool's free bytes plus
     * persistentTotal; panic on any error.
     */
    void verifyGate(const char *when);

    // --- setup helpers ------------------------------------------------------
    bool allocPersistent(Bytes bytes, Label tag, bool managed);
    void teardownPartial();

    // --- op bodies (false = iteration aborted) -------------------------------
    bool opBeginIteration();
    bool opFwdAlloc(const IterOp &op);
    void opFwdOffload(const IterOp &op);
    void opFwdRelease(const IterOp &op);
    bool opBwdFetch(const IterOp &op);
    bool opBwdAlloc(const IterOp &op);
    void opBwdPrefetch(net::LayerId id);
    void opBwdKernel(net::LayerId id);
    void opBwdRelease(const IterOp &op);
    Status opSync(const IterOp &op);
    Status opBarrier();
    Status opEndIteration();
    Status blocked(gpu::StreamId stream);
    /** Release the layer's convolution workspace, if one is live. */
    void releaseWorkspace();

    // --- memory helpers -----------------------------------------------------
    bool ensureResident(net::BufferId b, net::LayerId curr);
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
    /** Release the deferred offloads whose stream mark has passed. */
    void processDeferredReleases();
    /**
     * The one unwind of a partially executed iteration (an op's OOM or
     * cancelIteration()): record the failure, drain the device, force
     * every per-iteration allocation down and mark the cursor Failed.
     */
    void abortIteration(const std::string &why,
                        FailKind kind = FailKind::None,
                        net::LayerId layer = net::kInputLayer);

    /** Network-wide static allocation: no directives are executed. */
    bool staticAlloc() const { return execPlan.staticAllocation; }

    /** Rebuild the flat-dispatch tables from (net, execPlan). */
    void rebuildDispatchPlan();

    const net::Network &net;
    const dnn::CudnnSim &cudnn;
    gpu::Device &rt;
    MemoryManager &mm;
    MemoryPlan execPlan;
    ExecutorConfig cfg;
    /** Where the program comes from (null: private entries). */
    ProgramCache *programs = nullptr;
    /** The plan's program, footprint and verdict, maybe shared. */
    std::shared_ptr<const CompiledPlan> compiled;
    check::CheckResult gate;

    /** The tenant's streams (MemoryManager::computeStream() and
     *  memoryStream()). */
    const gpu::StreamId streamCompute;
    const gpu::StreamId streamMemory;

    bool setupDone = false;
    std::vector<TaggedAlloc> persistent;
    Bytes persistentTotal = 0;
    /** Buffers materialized at setup (classifier block / baseline). */
    std::vector<bool> staticBuffers;

    // Flat-dispatch tables (rebuildDispatchPlan).
    std::vector<ExecLaunchPlan> launchPlan; // per layer
    std::vector<ExecBufferPlan> bufferPlan; // per buffer
    /** Initial forward refcounts, copied into remainingReaders. */
    std::vector<int> initialReaders;

    // Per-iteration state: reset by beginIteration(), unwound by
    // abortIteration(). The vectors keep their storage across
    // iterations.
    std::size_t pcIndex = 0;
    Status st = Status::Idle;
    gpu::StreamId blockedOn = -1;
    /** Resume point of a Sync op blocked on the memory stream: the
     *  compute stream was joined at tComputeDone. */
    bool computeJoined = false;
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
    /** Live gradient allocations, indexed by buffer id. */
    std::vector<std::optional<TaggedAlloc>> gradients;
    int liveGradients = 0;
    /** Async-release ablation: buffer and the memory-stream mark its
     *  offload must pass before the device copy is released. */
    std::vector<std::pair<net::BufferId, gpu::StreamMark>>
        deferredReleases;
    std::vector<int> remainingReaders; // forward refcounts, per buffer
    PrefetchState prefetchState;
    /** findPrefetchLayer's result (reused scratch). */
    PrefetchCandidate prefetchHit;
    IterationResult res;

    /** Registry slots cached at construction (null = telemetry off). */
    obs::Counter *ctrIters = nullptr;
    obs::Counter *ctrOffloads = nullptr;
    obs::Counter *ctrPrefetches = nullptr;
    obs::Counter *ctrOnDemand = nullptr;
};

} // namespace vdnn::core

#endif // VDNN_CORE_EXECUTOR_HH
