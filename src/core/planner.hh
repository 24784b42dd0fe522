/**
 * @file
 * The memory-planning API: a declarative per-buffer plan IR and the
 * pluggable Planner interface that produces it.
 *
 * vDNN's core contribution (Section III-C) is a *per-buffer* placement
 * decision; this header models it directly instead of through a closed
 * policy enum:
 *
 *  - BufferDirective: what happens to one feature-map buffer between
 *    its forward definition and backward reuse — keep it device
 *    resident, or offload it to pinned host memory (optionally through
 *    a compressing DMA engine that shrinks the PCIe traffic), plus a
 *    prefetch-priority hint consulted by the Fig. 10 search.
 *  - MemoryPlan: the fully resolved execution plan the Executor
 *    consumes — one directive per buffer, one convolution algorithm
 *    per layer, and the provenance of how the plan was derived.
 *  - Planner: plan(network, context) -> MemoryPlan. PlannerContext
 *    carries the capacity the plan may actually assume: the whole
 *    device, or a tenant's current free share of its device's pool
 *    (a Session, or admission in src/serve/).
 *
 * Concrete planners:
 *  - BaselinePlanner:        network-wide static allocation, no
 *                            offloading (Section II-C).
 *  - OffloadAllPlanner:      vDNN_all — offload every eligible buffer.
 *  - OffloadConvPlanner:     vDNN_conv — offload only the inputs of
 *                            CONV layers.
 *  - CompressedOffloadPlanner: vDNN_all through a Compressing DMA
 *                            Engine (Rhu et al., 2017): ReLU activation
 *                            sparsity shrinks offload/prefetch traffic.
 *  - DynamicPlanner:         vDNN_dyn profiling passes (declared in
 *                            core/dynamic_policy.hh; it needs the
 *                            Executor to run trial iterations).
 *
 * Planners also advertise how a *running* tenant's footprint may be
 * changed mid-run (replanHint): capacity-adaptive planners (vDNN_dyn)
 * support an in-place re-plan at an iteration boundary, while
 * capacity-independent plans require the tenant to be evicted and
 * resumed under a fresh plan (core/training_session.hh).
 */

#ifndef VDNN_CORE_PLANNER_HH
#define VDNN_CORE_PLANNER_HH

#include "common/types.hh"
#include "gpu/gpu_spec.hh"
#include "net/network.hh"
#include "net/network_stats.hh"
#include "obs/profiler.hh"

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vdnn::core
{

/**
 * Per-CONV-layer algorithm preference of the static planners. The plan
 * IR itself always carries an explicit per-layer assignment; this knob
 * only selects the starting point.
 */
enum class AlgoPreference : std::uint8_t
{
    MemoryOptimal,      ///< IMPLICIT_GEMM everywhere (zero workspace)
    PerformanceOptimal, ///< fastest algorithm regardless of workspace
};

/** Paper-style suffix: "(m)" / "(p)". */
const char *algoPreferenceName(AlgoPreference pref);

/** What to do with one feature-map buffer (the plan IR leaf). */
struct BufferDirective
{
    enum class Action : std::uint8_t
    {
        KeepResident, ///< stays on the device until its last backward use
        Offload,      ///< D2H after last forward read, H2D before backward
    };

    Action action = Action::KeepResident;

    /**
     * Offload only: route the transfer through the compressing DMA
     * engine. The device copy and the pinned host staging buffer stay
     * worst-case sized (the achieved ratio is data dependent); only
     * the bytes crossing PCIe shrink.
     */
    bool compressed = false;

    /**
     * Fraction of the raw buffer bytes that actually crosses PCIe on
     * offload and prefetch (1.0 = uncompressed). Meaningful only with
     * compressed = true.
     */
    double dmaScale = 1.0;

    /**
     * Prefetch hint for the Fig. 10 search: when one candidate layer
     * owns several offloaded buffers, higher priority is issued first;
     * a negative priority excludes the buffer from overlapped
     * prefetching entirely (it is fetched on demand).
     */
    int prefetchPriority = 0;

    bool offloaded() const { return action == Action::Offload; }
};

/**
 * How a planner supports changing a *running* tenant's memory plan
 * when its free share of the device moves (mid-run re-planning).
 */
enum class ReplanHint : std::uint8_t
{
    /**
     * The plan is capacity-independent: re-running plan() against a
     * different free share returns the same plan, so shrinking (or
     * growing) the tenant requires evicting it and resuming it under
     * a freshly derived plan.
     */
    Evict,
    /**
     * plan() adapts to PlannerContext::capacity(): the session may
     * re-plan in place at an iteration boundary and swap the compiled
     * IterationProgram without releasing its device share.
     */
    InPlace,
};

const char *replanHintName(ReplanHint h);

/** One profiling pass of a trial-running planner and its outcome. */
struct TrialRecord
{
    std::string description;
    bool passed = false;
    TimeNs makespan = 0;
    std::string failReason;
};

/**
 * A fully resolved execution plan: one directive per buffer, one
 * algorithm per CONV layer. This is what the Executor consumes — it
 * never consults a policy enum.
 */
struct MemoryPlan
{
    /**
     * Baseline-style network-wide allocation (Section II-C): every
     * buffer is materialized at setup and no memory traffic happens.
     * When false, allocation is layer-wise and the directives govern
     * offload/prefetch.
     */
    bool staticAllocation = false;

    /**
     * The planner found no trainable configuration (e.g. vDNN_dyn's
     * trainability probe failed). provenance/failReason say why.
     */
    bool feasible = true;
    std::string failReason;

    /** Per-buffer directives, indexed by BufferId. */
    std::vector<BufferDirective> buffers;
    /** Per-layer algorithm, indexed by LayerId. */
    net::AlgoAssignment algos;
    /** Human-readable description of how the plan was derived. */
    std::string provenance;
    /** Profiling history (planners that run trial iterations). */
    std::vector<TrialRecord> trials;

    const BufferDirective &directive(net::BufferId b) const
    {
        return buffers[std::size_t(b)];
    }

    BufferDirective &directive(net::BufferId b)
    {
        return buffers[std::size_t(b)];
    }

    /** Does this plan offload @p b? (Never under staticAllocation.) */
    bool offloads(net::BufferId b) const
    {
        return !staticAllocation && directive(b).offloaded();
    }

    /** Bytes actually crossing PCIe when moving @p raw bytes of @p b. */
    Bytes dmaBytes(net::BufferId b, Bytes raw) const
    {
        const BufferDirective &d = directive(b);
        if (!d.compressed)
            return raw;
        return Bytes(std::llround(double(raw) * d.dmaScale));
    }

    int offloadCount() const;

    /** Sum of raw bytes of all offloaded buffers. */
    Bytes offloadedBytes(const net::Network &net) const;

    /** Sum of PCIe bytes one offload sweep moves (compression applied). */
    Bytes offloadedDmaBytes(const net::Network &net) const;

    /** Drop every Offload directive back to KeepResident. */
    void clearOffloads();
};

/**
 * What a Planner may assume about the device it plans for. The key
 * field is the *available* capacity: a Session plans against its
 * current free share of the device's pool (the whole device when it is
 * alone there) — so vDNN_dyn's trial passes probe what the tenant can
 * actually get, not the nameplate capacity.
 */
struct PlannerContext
{
    /** Device the plan targets (perf model, interconnect, capacity). */
    gpu::GpuSpec gpu;

    /**
     * Device-pool bytes this plan may claim. 0 means the whole device
     * (gpu.dramCapacity).
     */
    Bytes availableBytes = 0;

    /** Model compute/DMA contention in trial iterations. */
    bool contention = true;

    /**
     * Which device of the node the plan targets (0 on a single-GPU
     * node). Plans are device-scoped: a tenant that migrates is
     * re-planned under a fresh context carrying the new device's spec,
     * free share and id.
     */
    int deviceId = 0;

    /**
     * Measured first-iteration profile of the tenant being planned
     * for, when one exists (null before the first iteration). Sparsity-
     * aware planners prefer its measured per-buffer sparsity over their
     * analytic depth model.
     */
    const obs::ProfiledFootprint *profile = nullptr;

    Bytes capacity() const
    {
        return availableBytes > 0 ? availableBytes : gpu.dramCapacity;
    }

    /** Exclusive mode: the whole device is available. */
    static PlannerContext exclusive(gpu::GpuSpec spec,
                                    bool contention = true);

    /** Shared mode: plan against a tenant's current free share of
     *  device @p device_id. */
    static PlannerContext shared(gpu::GpuSpec spec, Bytes free_share,
                                 bool contention = true,
                                 int device_id = 0);
};

/**
 * The pluggable planning interface. Implementations are stateless
 * between plan() calls; a Session (or the serve-layer scheduler) calls
 * plan() once per setup with a fresh context.
 */
class Planner
{
  public:
    virtual ~Planner() = default;

    /** Short label, e.g. "vDNN_all (m)" (report column headers). */
    virtual std::string name() const = 0;

    virtual MemoryPlan plan(const net::Network &net,
                            const PlannerContext &ctx) = 0;

    /**
     * The most memory-conservative plan this planner may settle on —
     * what admission control must budget for. Static planners return
     * plan() itself; DynamicPlanner returns its memory floor (vDNN_all
     * with memory-optimal algorithms) without running trials.
     */
    virtual MemoryPlan admissionPlan(const net::Network &net,
                                     const PlannerContext &ctx)
    {
        return plan(net, ctx);
    }

    /**
     * Whether a running tenant under this planner can be re-planned in
     * place when its free share changes, or must be evicted and
     * resumed instead. Static planners are capacity-independent, so
     * the default is ReplanHint::Evict; capacity-adaptive planners
     * (DynamicPlanner) override to ReplanHint::InPlace.
     */
    virtual ReplanHint replanHint() const { return ReplanHint::Evict; }
};

/**
 * Is @p buffer eligible for offload at all (planner-independent)?
 * Offload eligibility (Section III-A): the buffer must be reused
 * during backward propagation, belong to the vDNN-managed (feature
 * extraction) region, and have a last forward consumer to issue the
 * offload (refcount rule).
 */
bool offloadEligible(const net::Network &net, net::BufferId buffer);

/**
 * Is the buffer's content post-ReLU by the time it is offloaded?
 * In-place ReLU activations overwrite their input buffer, so a buffer
 * whose producer or any reader is a ReLU ACTV layer holds sparse data
 * when its last forward consumer issues the offload. Shared with the
 * first-iteration profiler, which measures sparsity for exactly the
 * buffers a compressing planner would route through the ZVC engine.
 */
bool holdsReluOutput(const net::Network &net, net::BufferId b);

/** One shared persistent region: a single pool block. */
struct PersistentRegion
{
    const char *tag = "";
    Bytes bytes = 0;
    /** Counts toward the vDNN-managed usage signal. */
    bool managed = false;
};

/**
 * The state a plan holds for the whole run: every layer's W, the
 * feature maps materialized at setup (the classifier block; every map
 * under network-wide static allocation, Section II-C) and the shared
 * regions below. Executor::setup() allocates exactly this; admission
 * and the PlanVerifier charge its total().
 */
struct PersistentFootprint
{
    Bytes weights = 0;
    Bytes staticMaps = 0;
    /** One dW per region (managed, classifier) sized to its largest W;
     *  updates are applied in place (Section IV-A). */
    std::array<PersistentRegion, 2> dw;
    /** The reused gradient peaks (managed: static plans only) and, for
     *  static plans, one workspace sized to the network maximum. */
    std::array<PersistentRegion, 3> scratch;

    Bytes total() const
    {
        Bytes t = weights + staticMaps;
        for (const PersistentRegion &r : dw)
            t += r.bytes;
        for (const PersistentRegion &r : scratch)
            t += r.bytes;
        return t;
    }
};

PersistentFootprint persistentFootprint(const net::Network &net,
                                        const MemoryPlan &plan,
                                        const net::NetworkStats &stats);

// --- concrete planners -------------------------------------------------------

/** No offloading; network-wide static allocation (Section II-C). */
class BaselinePlanner : public Planner
{
  public:
    explicit BaselinePlanner(
        AlgoPreference pref = AlgoPreference::PerformanceOptimal);
    std::string name() const override;
    MemoryPlan plan(const net::Network &net,
                    const PlannerContext &ctx) override;

  private:
    AlgoPreference pref;
};

/** vDNN_all: offload every eligible buffer. */
class OffloadAllPlanner : public Planner
{
  public:
    explicit OffloadAllPlanner(
        AlgoPreference pref = AlgoPreference::MemoryOptimal);
    std::string name() const override;
    MemoryPlan plan(const net::Network &net,
                    const PlannerContext &ctx) override;

  private:
    AlgoPreference pref;
};

/**
 * vDNN_conv: offload only buffers whose last forward consumer is a
 * CONV layer (only those offloads hide behind long CONV kernels).
 */
class OffloadConvPlanner : public Planner
{
  public:
    explicit OffloadConvPlanner(
        AlgoPreference pref = AlgoPreference::MemoryOptimal);
    std::string name() const override;
    MemoryPlan plan(const net::Network &net,
                    const PlannerContext &ctx) override;

  private:
    AlgoPreference pref;
};

/**
 * vDNN_all with a Compressing DMA Engine (Rhu et al., 2017): post-ReLU
 * feature maps are mostly zero, and the zero fraction grows with layer
 * depth, so a zero-value compressor between the device and the PCIe
 * PHY shrinks the offload/prefetch traffic that Sections V-B/V-C show
 * to be the bottleneck. Buffers never touched by a ReLU bypass the
 * engine (dense data does not compress under ZVC).
 *
 * The same offload *set* as vDNN_all, with per-buffer DMA scaling —
 * expressible only because the plan IR is per buffer.
 */
class CompressedOffloadPlanner : public Planner
{
  public:
    /** Linear-in-depth activation-sparsity model. */
    struct SparsityModel
    {
        /** Zero fraction of post-ReLU maps at the first managed layer. */
        double shallowSparsity = 0.45;
        /** Zero fraction at the deepest managed layer. */
        double deepSparsity = 0.85;
        /** ZVC mask/metadata bytes as a fraction of the raw buffer. */
        double metadataOverhead = 0.05;
    };

    explicit CompressedOffloadPlanner(
        AlgoPreference pref = AlgoPreference::MemoryOptimal);
    CompressedOffloadPlanner(AlgoPreference pref, SparsityModel model);
    std::string name() const override;
    MemoryPlan plan(const net::Network &net,
                    const PlannerContext &ctx) override;

    /**
     * The offload set is already the vDNN_all floor and does not
     * depend on the free share, so a mid-run shrink cannot be served
     * in place — the tenant must be evicted instead. (Its compressed
     * directives still pay off there: eviction reuses the same
     * per-buffer dmaScale when moving surviving state over PCIe.)
     */
    ReplanHint replanHint() const override { return ReplanHint::Evict; }

    /** PCIe-byte fraction for a post-ReLU buffer produced at
     *  @p depth_frac (0 = shallowest, 1 = deepest managed layer). */
    double dmaScaleAtDepth(double depth_frac) const;

  private:
    AlgoPreference pref;
    SparsityModel model;
};

} // namespace vdnn::core

#endif // VDNN_CORE_PLANNER_HH
