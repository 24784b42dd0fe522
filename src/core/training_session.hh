/**
 * @file
 * Top-level experiment driver: run a network under a memory planner
 * and collect every metric the paper's evaluation reports.
 *
 * A Session is one tenant of a simulated GPU: a device of a
 * gpu::Cluster, with that device's pool and pinned-host share. It owns
 * one vDNN memory manager and one executor; it resolves the plan
 * (running the vDNN_dyn profiling passes when requested), executes the
 * requested number of training iterations, and gathers memory /
 * performance / traffic / power statistics. Run alone (runSession,
 * every paper figure) it is the sole tenant of a private one-device
 * cluster; under the serve layer it is one of many on the serving
 * engine's cluster. Both run the same tenant code.
 *
 * Its lifecycle is an explicit state machine the scheduler drives:
 *
 *     Fresh --setup()--> Active --teardown()--> Torn
 *                        |  ^                    ^
 *          evictToHost() |  | resume()           |
 *                        v  | migrate()          |
 *                       Evicted ---teardown()----+
 *
 *  - evictToHost() releases the tenant's *entire* device share: a
 *    partially executed iteration is cancelled (it re-runs later),
 *    the persistent state is DMAed into pinned host memory, and the
 *    executor is torn down.
 *  - resume() restores an Evicted tenant. It first *re-plans* against
 *    a fresh PlannerContext carrying the current free share, rebuilds
 *    the executor around the new plan's IterationProgram and restores
 *    the persistent state over PCIe — so a resumed tenant may come back
 *    under a smaller (or larger) plan than it left with.
 *  - replan() swaps the plan in place at an iteration boundary
 *    without releasing the device share; only planners advertising
 *    ReplanHint::InPlace support it.
 *  - migrate(target) re-homes an Evicted tenant onto a different
 *    device of the node and resumes it there (the cross-device half
 *    of eviction: vDNN's staged state plus a fresh device-scoped
 *    re-plan make the tenant fully relocatable).
 *
 * The Session does no verification of its own: every plan it resolves
 * (setup, resume-after-evict, in-place replan, migrate) reaches an
 * Executor, whose gate checks it on the compiled program against the
 * same share plannerContext() granted (core/executor.hh). A serve-layer
 * tenant's executors take their programs from the cache its SharedGpu
 * carries; a Session run alone compiles private ones.
 */

#ifndef VDNN_CORE_TRAINING_SESSION_HH
#define VDNN_CORE_TRAINING_SESSION_HH

#include "core/dynamic_policy.hh"
#include "core/executor.hh"
#include "core/planner.hh"
#include "gpu/cluster.hh"
#include "gpu/gpu_spec.hh"
// gpu::Runtime, the name perfbench/ still gives Session::runtime().
#include "gpu/runtime.hh"
#include "mem/pinned_host.hh"
#include "net/network.hh"
#include "obs/profiler.hh"
#include "stats/time_weighted.hh"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vdnn::core
{

struct SessionConfig
{
    /**
     * The memory planner driving this session. When null, setup()
     * defaults to DynamicPlanner (vDNN_dyn) with this config's
     * executor knobs.
     */
    std::shared_ptr<Planner> planner;

    gpu::GpuSpec gpu;
    /**
     * Oracular GPU: removes the memory capacity bottleneck (Section
     * V-C) by growing the device pool to hold any allocation. Used to
     * normalize performance when the baseline cannot train at all.
     */
    bool oracle = false;
    int iterations = 2;
    bool contention = true;
    ExecutorConfig exec;
    bool keepTimeline = false;
    bool kernelLog = false;

    SessionConfig();
};

struct SessionResult
{
    std::string network;
    std::string configName;
    bool trainable = false;
    std::string failReason;

    MemoryPlan plan;
    std::vector<TrialRecord> trials; ///< vDNN_dyn profiling history

    // Performance (steady-state, last measured iteration).
    TimeNs iterationTime = 0;
    TimeNs featureExtractionTime = 0;
    TimeNs classifierTime = 0;
    TimeNs transferStallTime = 0;

    // GPU memory (over the whole measured window).
    Bytes maxTotalUsage = 0;
    Bytes avgTotalUsage = 0;
    Bytes maxManagedUsage = 0;
    Bytes avgManagedUsage = 0;
    Bytes persistentBytes = 0;

    // Transfers.
    Bytes offloadedBytesPerIter = 0;
    /** PCIe bytes actually moved (compression applied). */
    Bytes pcieBytesPerIter = 0;
    Bytes hostPeakBytes = 0;
    int offloads = 0;
    int prefetches = 0;
    int onDemandFetches = 0;

    // Power (Section V-D).
    double avgPowerW = 0.0;
    double maxPowerW = 0.0;

    // Per-layer detail (last iteration).
    std::vector<LayerTiming> layerTimings;
    std::vector<gpu::KernelRecord> kernels; ///< when kernelLog set

    // Usage timelines (when keepTimeline set).
    std::vector<stats::TimeWeighted::Sample> totalTimeline;
    std::vector<stats::TimeWeighted::Sample> managedTimeline;
};

/**
 * One tenant's handles on a cluster device: the device, its pool and
 * its pinned-host share, plus the serving engine's program cache when
 * there is one. All pointers must outlive the Session; allocations are
 * charged to @p clientId in the pool's per-tenant accounting.
 */
struct SharedGpu
{
    gpu::Device *runtime = nullptr;
    mem::MemoryPool *pool = nullptr;
    mem::PinnedHostAllocator *host = nullptr;
    int clientId = 0;
    /** Shared by the cluster's tenants; null: private programs. */
    ProgramCache *programs = nullptr;
};

/** Client @p client's handles on device @p device of @p cluster. */
SharedGpu shareOf(gpu::Cluster &cluster, int device, int client);

/** Lifecycle state of a Session (see the file comment's diagram). */
enum class SessionState : std::uint8_t
{
    Fresh,   ///< constructed; setup() has not succeeded yet
    Active,  ///< device-resident and steppable
    Evicted, ///< device share released; state staged in pinned host
    Torn,    ///< teardown() ran (terminal)
};

const char *sessionStateName(SessionState s);

/**
 * An incrementally driven training session.
 *
 * runSession() runs the whole experiment in one call; Session exposes
 * the same lifecycle as separate setup / runIteration / teardown steps
 * so an external scheduler (src/serve/) can interleave iterations of
 * many jobs on one shared device, and the evict / resume / replan
 * transitions documented above. Whether a resident tenant is offered
 * steps (parking) is the scheduler's decision, not a Session state.
 * Either way it is a tenant of a SharedGpu: its persistent and
 * transient allocations come from the device's pool and its
 * kernels/DMAs arbitrate the device's compute and copy engines.
 */
class Session
{
  public:
    /**
     * The sole tenant of a private one-device cluster built from
     * config.gpu (the oracle's capacity applied) and config.contention.
     * This is what runSession() uses.
     */
    Session(const net::Network &net, SessionConfig config);
    /** One tenant of @p shared, a device of someone else's cluster. */
    Session(const net::Network &net, SessionConfig config,
            SharedGpu shared);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Resolve the plan (running vDNN_dyn profiling passes when the
     * policy is Dynamic) and allocate the persistent state.
     * @return false when untrainable / the pool cannot hold it.
     */
    bool setup();

    /**
     * Run one training iteration as the device's only driver
     * (Executor::drain). Requires a successful setup().
     */
    IterationResult runIteration();

    /**
     * Start an iteration to be driven one op at a time by an external
     * scheduler (serve-layer packed overlap) through executor(). The
     * previous iteration must have been collected with
     * completeIteration().
     */
    void beginIteration();

    /** An iteration is begun and not yet collected or cancelled. */
    bool iterationInFlight() const
    {
        return ex && ex->iterationInFlight();
    }

    /** The executor running the tenant's iterations, its compiled
     *  program and its gate's findings (after a successful setup()). */
    Executor &executor() { return *ex; }

    /**
     * Fold a finished iteration's result into the session state
     * (iteration count / failure); the executor goes Idle.
     */
    IterationResult completeIteration();

    // --- lifecycle transitions (the serve layer's state machine) ---------

    /**
     * Release the tenant's entire device share: Active -> Evicted.
     * A partially executed iteration is cancelled (unwound without
     * being counted; it re-runs after resume), the persistent state —
     * weights, shared dW, the classifier block, and for
     * static-allocation plans the whole network — is DMAed into a
     * pinned host staging buffer, and the executor is torn down.
     * @return false (still Active, its iteration untouched) when
     *         pinned host memory cannot hold the staged state.
     */
    bool evictToHost();

    /**
     * Restore an Evicted session: Evicted -> Active. The planner runs
     * against a fresh PlannerContext carrying the *current* free
     * share, the executor is rebuilt around the new plan (taking its
     * IterationProgram at the iteration boundary), the persistent
     * state is restored over PCIe and the staging buffer is released.
     * @return false (still Evicted) when the new plan is infeasible
     * or the pool cannot hold the rebuilt persistent state; the caller
     * may retry once capacity frees up.
     */
    bool resume();

    /**
     * Mid-run re-plan in place: with no iteration in flight, run the
     * planner against the current free share and swap the compiled
     * program without releasing the device share. Only planners
     * advertising ReplanHint::InPlace participate. @return true when
     * a (possibly identical) fresh plan was adopted.
     */
    bool replan();

    /**
     * Cross-device migration: re-home an Evicted serve-layer tenant
     * onto a different device of the same node and resume it there.
     * The staged persistent state moves to the target device's
     * pinned-host share (node DRAM is one physical resource, so the
     * hand-off between shares costs no DMA), the session re-binds its
     * runtime handles to the target (fresh CudnnSim for the target's
     * perf model, fresh MemoryManager over its pool), and resume()
     * re-plans against the *target's* free share — eviction plus
     * cross-device resume is exactly Gandiva-style migration.
     *
     * @return true when the tenant is Active on the target. On false
     * the session is still Evicted; deviceId() says where it is
     * homed — still the source when the target's pinned host could
     * not take the staged state, the target when the re-plan or the
     * persistent-state rebuild failed there (a later resume() retries
     * on the target).
     */
    bool migrate(SharedGpu target);

    SessionState state() const { return lifecycle; }

    /** Bytes staged in pinned host memory while Evicted (else 0). */
    Bytes evictedBytes() const { return evictStage.size; }

    /** Device this session is homed on (0 on a single-GPU node). */
    int deviceId() const { return rt->deviceId(); }

    /** Release all device state. Idempotent after setup(). */
    void teardown();

    /** The session is Active (steppable). */
    bool active() const { return lifecycle == SessionState::Active; }

    /** Number of completed (successful) iterations so far. */
    int iterationsDone() const { return itersDone; }

    Bytes persistentBytes() const;
    const MemoryPlan &plan() const { return execPlan; }
    const std::string &failReason() const { return failure; }

    /**
     * The measured first-iteration profile: footprint, timings, PCIe
     * traffic and per-buffer activation sparsity. valid after the
     * first completed iteration; later re-plans consume it through
     * PlannerContext::profile.
     */
    const obs::ProfiledFootprint &profiledFootprint() const
    {
        return profiledFp;
    }

    gpu::Device &runtime() { return *rt; }
    MemoryManager &memory() { return *mm; }

    /** Assemble the experiment report from the state gathered so far. */
    SessionResult result() const;

  private:
    /** Take @p gpu's device, pool and host share as this tenant's. */
    void bind(SharedGpu gpu);
    bool resolvePlan();
    PlannerContext plannerContext() const;
    void collectProfile(const IterationResult &r);
    void traceLifecycle(const char *what);

    const net::Network &net;
    SessionConfig config;
    gpu::GpuSpec spec; ///< the device's spec (oracle applied)
    /** The private cluster of a Session run alone; null for a tenant
     *  of another's cluster. Declared before the members that use it,
     *  so it outlives them. */
    std::unique_ptr<gpu::Cluster> ownCluster;
    std::unique_ptr<dnn::CudnnSim> cudnn;
    std::unique_ptr<MemoryManager> mm;
    gpu::Device *rt = nullptr;
    /** The executors' program cache (SharedGpu::programs). */
    ProgramCache *programs = nullptr;

    MemoryPlan execPlan;
    std::vector<TrialRecord> trials;
    std::string plannerLabel;
    std::unique_ptr<Executor> ex;

    bool planResolved = false;
    SessionState lifecycle = SessionState::Fresh;
    bool failed = false;
    std::string failure;
    int itersDone = 0;
    IterationResult lastIter;

    /** Measured first-iteration profile (valid after iteration 1). */
    obs::ProfiledFootprint profiledFp;

    /** Pinned host staging of the persistent state while Evicted. */
    mem::HostAllocation evictStage;
};

/** Run one complete experiment. */
SessionResult runSession(const net::Network &net, SessionConfig config);

/**
 * Short label like "vDNN_all (m)" or "base (p) [oracle]". Uses the
 * planner's name; a null planner reads "vDNN_dyn" (the default
 * setup() falls back to).
 */
std::string sessionConfigName(const SessionConfig &config);

} // namespace vdnn::core

#endif // VDNN_CORE_TRAINING_SESSION_HH
