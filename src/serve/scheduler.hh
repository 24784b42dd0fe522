/**
 * @file
 * Multi-tenant, multi-device GPU-sharing scheduler.
 *
 * Multiplexes N training jobs over a cluster of simulated GPUs
 * (gpu/cluster.hh): per device one compute engine, one DMA engine per
 * direction, one PCIe link, one cnmem pool — all devices on one
 * shared simulated clock. Jobs are admitted by a *per-device*
 * AdmissionController when their policy-dependent footprint fits, and
 * a pluggable PlacementPolicy (serve/placement.hh) picks the device;
 * the freed residency of the vDNN policies is what lets many more
 * tenants pack onto the same 12 GB devices than the baseline
 * allocator. A single GPU is simply a cluster of one: the default
 * SchedulerConfig::devices holds one Titan X (Maxwell).
 *
 * Programs. The scheduler owns one core::ProgramCache for its cluster
 * and hands it to every tenant (DeviceCtx::share): the executors of
 * tenants that run one network, plan and config share one compiled
 * IterationProgram, verified once, and admission's estimates read the
 * prefetch-off entries of the same cache.
 *
 * Scheduling policies. Each SchedPolicy is a preset: one row of a
 * table (scheduler.cc) over two axes, resolved once at construction,
 * and every scheduling decision reads an axis, never the preset.
 *
 *  - Ordering, which resident runs its next iteration and in which
 *    order the queue is admitted: round-robin (arrival order for the
 *    queue), shortest-remaining (SRPT at iteration granularity:
 *    fewest remaining iterations first) or priority (effective
 *    priority, round-robin within the top level; see below).
 *  - Packing, how tenants share a device: exclusive (one job owns
 *    it; the queue keeps strict arrival order, no backfill),
 *    one-iteration (every admitted job keeps its persistent state
 *    device-resident while iterations from all tenants interleave on
 *    the shared compute engine, Salus-style, and the queue is
 *    backfilled) or op-packed (every resident tenant may have an
 *    iteration in flight; whenever one blocks on a DMA join the
 *    next tenant's compute op dispatches, and admission reserves the
 *    *sum* of transients per device).
 *
 *      preset               ordering            packing
 *      FifoExclusive        round-robin         exclusive
 *      RoundRobin           round-robin         one-iteration
 *      ShortestRemaining    shortest-remaining  one-iteration
 *      PackedOverlap        round-robin         op-packed
 *      PreemptivePriority   priority            one-iteration
 *
 * FifoExclusive is the status quo this subsystem exists to beat
 * (head-of-line blocking, queueing delay); an exclusive device holds
 * one resident, so its round-robin pick is that tenant. Priority
 * ordering, driven by JobSpec::priority, also preempts: an arrival
 * that fails admission evicts the lowest-priority running tenants
 * through the Session lifecycle state machine — at iteration
 * boundaries by default, or mid-iteration at the victim's next
 * Sync/Barrier boundary when SchedulerConfig::preemptGranularity is
 * Op (the beneficiary is dispatching kernels within simulated
 * microseconds; ServeReport records the preemption latency) — and a
 * co-tenant's exit lets survivors re-plan to grow back.
 * JobSpec::agingRatePerSec bounds starvation: a queued job's
 * effective priority grows with its wait, so a hostile stream of
 * high-priority arrivals cannot park a low-priority job forever.
 *
 * Every change of a job's state goes through one routine, transition,
 * which checks it against the lifecycle table
 * (check/lifecycle_table.hh) as it happens, logs it and runs the aging
 * clock: the wait is the job's time in Queued (from arrival or a
 * requeue), Evicted (a preemption or a stalled migration) and
 * Migrating spells, whatever moved it there. The job's record
 * (JobOutcome) is live from submission; the report copies it.
 *
 * One event-driven engine serves every configuration with one
 * cadence: per turn it collects arrivals, reruns the one admission
 * sweep when a dirty flag says its inputs moved, then sweeps only the
 * devices on the WakeSet (populated by the Device completion hooks,
 * which also identify the one tenant whose stream drained) and
 * executes exactly one completion event when no tenant progressed.
 * Every tenant advances through one per-tenant step routine; the
 * exclusive and one-iteration packings call it for the tenant they
 * pick, op-packed for every tenant on the device's ready list: the
 * residents whose iteration is not known to be blocked, in resident-set
 * order. A tenant leaves the list when its step returns Blocked and
 * rejoins it when a completion lands on one of its own streams. On a
 * cluster a periodic rebalance sweep migrates the smallest-footprint
 * tenant off the most-loaded device whenever the queue-depth
 * imbalance reaches a threshold (Session::evictToHost, then
 * Session::migrate: re-plan and resume on the target).
 *
 * Priority ordering asks each distinct question once. An admission
 * pass reads every queued job's effective priority once for its sort
 * and decides each distinct refused demand once: a later job with the
 * same effective priority, reservation scale and per-device estimates
 * is refused on the spot, until an admission, eviction or backoff
 * moves the state those answers read. The Op-granularity
 * challenger scan runs once per in-flight pick and again only after a
 * tenant enters the device, the only event that can change its answer
 * (resident priorities do not age).
 *
 * Make-room under priority ordering is all-or-nothing: the whole
 * victim set is chosen against the admission ledger first, and when
 * evicting every eligible victim still would not free enough bytes,
 * or the device's pinned-host share cannot stage their persistent
 * state, nobody is evicted (or even parked). A partial eviction would
 * only be undone by the next resume sweep and repeated on the next
 * admission rescan. The rebalance sweep sizes a migration's staging
 * on both devices' host shares the same way before it starts.
 *
 * A setup OOM despite a fitting reservation (pool fragmentation or
 * co-tenant overshoot) leaves the job queued with its reservation
 * inflated; an in-flight OOM aborts only that iteration: the job is
 * torn down, its reservation inflated, and it is requeued for
 * readmission. Either backoff marks the job Failed after a bounded
 * number of attempts, or as soon as the inflated reservation fits
 * no device.
 */

#ifndef VDNN_SERVE_SCHEDULER_HH
#define VDNN_SERVE_SCHEDULER_HH

#include "gpu/cluster.hh"
#include "gpu/gpu_spec.hh"
#include "mem/memory_pool.hh"
#include "mem/pinned_host.hh"
#include "mem/usage_tracker.hh"
#include "serve/admission.hh"
#include "serve/job.hh"
#include "serve/placement.hh"
#include "serve/serve_stats.hh"
#include "serve/wake_set.hh"
#include "stats/time_weighted.hh"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace vdnn::serve
{

enum class SchedPolicy : std::uint8_t
{
    FifoExclusive,      ///< one job at a time, arrival order
    RoundRobin,         ///< iteration-granularity packing (Salus-style)
    ShortestRemaining,  ///< packed, fewest-remaining-iterations first
    PackedOverlap,      ///< op-granularity packing, compute/DMA overlap
    PreemptivePriority, ///< priority packing; preempts via suspend/evict
};

const char *schedPolicyName(SchedPolicy p);

/** One row of the scheduler's preset table (scheduler.cc): what a
 *  SchedPolicy resolves to. Opaque outside the scheduler. */
struct PolicyPreset;

/** When may PreemptivePriority park a victim? */
enum class PreemptGranularity : std::uint8_t
{
    /**
     * Only tenants with no iteration in flight are preemptible; a
     * high-priority arrival waits out the victim's current iteration.
     */
    Iteration,
    /**
     * The in-flight victim's iteration is frozen at its current op
     * boundary and parked resident (no DMA, ledger untouched); it
     * continues in place when it is next picked. Only a later
     * eviction unwinds the partial iteration, which then re-runs
     * after resume. The preemptor dispatches its first kernel within
     * simulated microseconds instead of a full victim iteration.
     */
    Op,
};

struct SchedulerConfig
{
    SchedPolicy policy = SchedPolicy::RoundRobin;
    /**
     * One GpuSpec per device (heterogeneous allowed); must not be
     * empty. Defaults to a single Titan X (Maxwell). Every policy
     * works at every device count.
     */
    std::vector<gpu::GpuSpec> devices{gpu::titanXMaxwell()};
    /** Device chooser for admissions. Null = BestFitPlacement. */
    std::shared_ptr<PlacementPolicy> placement;
    /**
     * Cluster rebalance sweep period: every period, migrate the
     * smallest-footprint tenant off the most-loaded device when the
     * running-tenant imbalance reaches rebalanceThreshold.
     * 0 (default) = placement is static, no migration.
     */
    TimeNs rebalancePeriod = 0;
    /** Queue-depth gap (most vs least loaded) triggering migration. */
    int rebalanceThreshold = 2;
    /** Reservation inflation guarding co-tenant prefetch overshoot
     *  and pool fragmentation (AdmissionController's safety). */
    double admissionSafety = 1.05;
    /**
     * Preemption granularity (PreemptivePriority only). Op enables
     * microsecond mid-iteration preemption (see the enum).
     */
    PreemptGranularity preemptGranularity = PreemptGranularity::Iteration;
    /** Ignored: the scheduler no longer pages buffers. Kept only
     *  because the repository benchmark still sets it. */
    bool bufferPaging = false;
    /** Retain pool-usage and jobs-in-flight timelines in the report. */
    bool keepTimeline = false;

    /**
     * Telemetry sinks (obs/). Wired through every device of the
     * cluster; scheduler decisions (admission, preemption, migration,
     * rebalance) become instant/flow events and serve-level counters.
     * Null members (the default) cost one branch per choke point.
     */
    obs::Telemetry telemetry;
};

class Scheduler
{
  public:
    explicit Scheduler(SchedulerConfig config);

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Register a job; it becomes visible at spec.arrival. */
    JobId submit(JobSpec spec);

    /** Drive every submitted job to a terminal state. */
    ServeReport run();

    // --- introspection (tests) -------------------------------------------
    int deviceCount() const { return int(devs.size()); }
    gpu::Device &device(int d) { return *devs.at(std::size_t(d))->dev; }
    mem::MemoryPool &devicePoolOn(int d)
    {
        return *devs.at(std::size_t(d))->pool;
    }
    const AdmissionController &admissionStateOn(int d) const
    {
        return devs.at(std::size_t(d))->admission;
    }
    const Job &job(JobId id) const { return *jobs.at(std::size_t(id)); }

    /**
     * Test hook (spurious-wakeup safety): at the start of every turn
     * wake every device and mark every resident tenant ready, so the
     * one sweep offers a step to every tenant, blocked or not. A
     * non-blocking step offered to a blocked tenant or an empty
     * device is pure, so outputs must be byte-identical with this on
     * — the equivalence suite pins it.
     */
    void setDebugForceWakeAll(bool on) { forceWakeAll = on; }

  private:
    /** Everything the scheduler keeps per device of the cluster. */
    struct DeviceCtx
    {
        int id;
        gpu::Device *dev;
        mem::MemoryPool *pool;
        mem::PinnedHostAllocator *host;
        /** The Scheduler's program cache, handed to every tenant. */
        core::ProgramCache *programs;
        AdmissionController admission;
        mem::UsageTracker track;    ///< this device's pool usage
        std::vector<JobId> running; ///< admitted here, entry order
        /**
         * Residents the next sweep offers a step (Job::ready), sorted
         * by Job::runSeq — the resident set's own order, since it is
         * append-plus-erase. Usually a handful of tenants: those whose
         * wait just ended.
         */
        struct ReadyEntry
        {
            std::uint64_t seq;
            JobId id;
            /** Ordered by entry sequence (std::lower_bound on a seq). */
            bool operator<(std::uint64_t s) const { return seq < s; }
        };
        std::vector<ReadyEntry> ready;
        /** Job::runSeq of the next tenant to enter `running`. */
        std::uint64_t nextSeq = 0;
        std::size_t rrCursor = 0;
        /** Job whose iteration the engine has in flight (exclusive
         *  and one-iteration packing; -1 under op-packed, where every
         *  resident tenant may have an iteration in flight). */
        JobId inFlight = -1;
        /** In-flight job topChallengerOn last found unchallenged (-1:
         *  none); enterRunning clears it. */
        JobId unchallenged = -1;
        /** Lowest device id with an identical spec: same-spec devices
         *  share one footprint-estimate slot per job. */
        int estimateSlot = 0;
        /** This device's report section, kept live: placements and
         *  migrations are counted here as they happen. */
        DeviceOutcome record;

        DeviceCtx(int id, gpu::Cluster &cluster,
                  const SchedulerConfig &cfg, bool overlap_transients,
                  core::ProgramCache *programs);
        /** Job @p client's handle on this device's shared resources. */
        core::SharedGpu share(JobId client) const
        {
            return {dev, pool, host, client, programs};
        }
        /** Can this device's pinned-host share stage @p bytes more
         *  (the dry run before an eviction or a migration)? */
        bool hostCanStage(Bytes bytes) const
        {
            return host->usedBytes() + bytes <= host->capacity();
        }
    };

    void collectArrivals();
    /** @p job's admission footprint on @p d: its planner's
     *  admissionPlan() under estimateFootprint() from `programs`,
     *  memoized in `estimates` per network, planner and device spec. */
    const FootprintEstimate &estimateFor(const Job &job, DeviceCtx &d);
    bool tryAdmit(Job &job, const FootprintEstimate &est, DeviceCtx &d);
    /** Tear a live job down and take it off its device: @p kind is
     *  Finish, Requeue or Fail. */
    void finishJob(Job &job, LifecycleKind kind, const std::string &why = "");
    void evictForRequeue(Job &job);
    void recordInflight();
    /** Fold one completed (ok) iteration into the job's record. */
    void chargeIteration(Job &job, const core::IterationResult &r);
    /** Reservation bytes summed over every device's ledger. */
    Bytes reservedBytesTotal() const;
    /** Effective priority: static priority plus queue-wait aging
     *  (accrued while Queued/Evicted/Migrating, retained while
     *  running). */
    double effectivePriority(const Job &job, TimeNs now) const;
    /**
     * The one writer of a job's state, called after the ledger moved
     * (from @p reserved_before). It checks the transition against the
     * lifecycle table and panics with stateDump() on a broken rule
     * (check::checkTransition). It runs the aging clock: entering
     * Queued, Evicted or Migrating opens a waiting spell, leaving one
     * banks it into Job::agedWait. Entering a terminal state
     * (Finished, Failed, Rejected) stamps the finish time and counts
     * the job terminal. A logged kind appends its LifecycleEvent on
     * @p device and emits its trace instant.
     */
    void transition(Job &job, LifecycleKind kind, int device,
                    Bytes reserved_before);
    /** Put @p job on @p d's resident set (the caller then makes it
     *  Running) and wake the device. */
    void enterRunning(Job &job, DeviceCtx &d);
    /** Does exclusive packing bar @p d from taking another tenant?
     *  (An exclusive device holds at most one resident.) */
    bool exclusivelyHeld(const DeviceCtx &d) const;
    /** Drop @p id from its device's resident set (and ready list),
     *  fixing cursors. */
    void removeFromRunning(JobId id);
    /** Put resident @p job on its device's ready list (no-op when it
     *  is already there). */
    void markReady(Job &job);
    /** Take @p job off its device's ready list (no-op when absent). */
    void leaveReady(Job &job);
    /** One OOM backoff step after an @p oom ("setup OOM" or
     *  "iteration OOM"): count the requeue and inflate the job's
     *  reservation. @return empty to retry, else why the job must go
     *  Failed: it has used up its requeues, or its inflated
     *  reservation fits no device. */
    std::string stepOomBackoff(Job &job, const char *oom);
    ServeReport buildReport();

    // --- admission -------------------------------------------------------
    /** The admission sweep, at every device count: priority sort
     *  (each queued job's effective priority read once for it),
     *  rejection when no device could ever hold the job, placement via
     *  the PlacementPolicy, make-room, backfill. A demand equal to the
     *  pass's last refused one — same effective priority at the visit,
     *  reserveScale and per-device estimates, with no admission,
     *  eviction or backoff since — is refused without asking again. */
    void admitQueued();
    /** Snapshot per-device loads and ask the placement policy
     *  (estimates from `jobEst`); -1 without asking it when no device
     *  fits. */
    int choosePlacement(const Job &job);
    /** Inflate a setup-OOM'd job's reservation; true when it went
     *  terminal (Failed) and was taken from the queue. */
    bool backoffAfterSetupOom(Job &job, std::size_t queue_index);

    // --- lifecycle state machine (priority ordering) ----------------------
    /** Suspend + evict one tenant, moving its reservation to the
     *  evicted ledger. Cannot fail: makeRoomFor() sized its pinned-host
     *  staging first. Accepts a victim already parked resident by
     *  parkInFlight(). */
    void preempt(Job &victim);
    /** Highest effective-priority *Running* co-tenant of @p d with
     *  strictly higher priority than the in-flight tenant, or
     *  nullptr. Parked (Suspended) residents never challenge. A null
     *  answer is kept (DeviceCtx::unchallenged) until a tenant enters
     *  @p d: resident priorities do not age, and the in-flight tenant
     *  was top-ranked when picked. */
    Job *topChallengerOn(DeviceCtx &d, const Job &inflight);
    /** Op-granularity dispatch preemption: freeze the in-flight
     *  tenant's iteration at its current op boundary and leave it
     *  resident (no DMA, ledger untouched); the device goes to
     *  @p challenger, which is charged the victimsPreempted
     *  attribution that feeds preemption-latency sampling. */
    void parkInFlight(DeviceCtx &d, Job &victim, Job &challenger);
    /**
     * All-or-nothing make-room for @p job (estimates from `jobEst`),
     * whose effective priority is @p bar. Until it evicts, it reads
     * only @p bar, the job's reserveScale and estimates, and ledger,
     * resident and pinned-host state. On every feasible device with
     * tenants below @p bar (those with an iteration in flight count
     * only at Op granularity), a dry run against the device's ledger
     * sizes the victim set — lowest effective priority first, latest
     * arrival first within a level — that lets the job fit, and checks
     * that the device's pinned-host share can stage every victim's
     * persistent state. It evicts on the cheapest such device: fewest
     * reserved bytes evicted, then the lowest highest-victim effective
     * priority, then the lowest device id.
     * @return the device now holding room, or -1 with nobody evicted.
     */
    int makeRoomFor(Job &job, double bar);
    /** Resume evicted tenants that fit again, onto the device each is
     *  homed on — best effective priority first under priority
     *  ordering, earliest arrival otherwise. */
    void resumeEvictedSweep();
    /** Readmit one evicted tenant onto @p d; false if it stays parked. */
    bool tryResumeOn(Job &job, DeviceCtx &d);

    // --- the unified event-driven engine ---------------------------------
    /** The ordering axis within a device: fewest remaining iterations
     *  under SRPT, else round-robin within the top effective-priority
     *  level (every tenant is top outside priority ordering). */
    Job *pickNextOn(DeviceCtx &d);
    /** The tenant whose iteration @p d runs next (one iteration per
     *  device): the in-flight one unless an Op-granularity challenger
     *  parks it, else a fresh pick — resumed in place when parked,
     *  grown back by a re-plan when a co-tenant left. */
    Job &pickInFlight(DeviceCtx &d);
    /** The per-tenant step routine: begin the iteration (stamping
     *  first dispatch), skip a tenant not on the ready list, take one
     *  non-blocking step (a Blocked one leaves the ready list), fold a
     *  finished iteration. @return progress. */
    bool stepTenant(Job &job);
    /** One step offer to @p d: its in-flight tenant, or under
     *  op-packed packing each tenant on the ready list that entered
     *  before the sweep began, in entry order. @return progress. */
    bool stepDevice(DeviceCtx &d);
    /** Periodic migration sweep off the most-loaded device: migrates
     *  its smallest idle tenant when the target's ledger admits it and
     *  both pinned-host shares can stage its persistent state. */
    void maybeRebalance();
    /** Evict @p job from @p src and resume it on @p dst. The staging
     *  cannot fail (maybeRebalance sized it); a failed re-plan or
     *  rebuild on @p dst leaves the job Evicted there, logged as
     *  "migrate-stall", for the resume sweep to retry. */
    void migrateJob(Job &job, DeviceCtx &src, DeviceCtx &dst);
    /** The one serve loop: every policy at every device count. */
    void runEngine();
    /** Queue and evicted counts, and per device the in-flight job, the
     *  ready-list size and each resident's state, marked blocked when
     *  it is off the ready list. */
    std::string stateDump() const;
    /** Device wake hook body: push @p device onto the wake-set and put
     *  @p client back on its device's ready list when it is resident
     *  (Running or Suspended). */
    void onDeviceWake(int device, int client);
    static void deviceWakeTrampoline(void *self, int device, int client);

    SchedulerConfig cfg;
    /** cfg.policy's row of the preset table, resolved once. */
    const PolicyPreset &preset;
    gpu::Cluster cluster;
    /**
     * One compiled, verified program per distinct plan, shared by
     * every tenant's executors and by admission's estimates. The job
     * specs below keep the networks it keys on alive; declared before
     * them, it outlives their sessions.
     */
    core::ProgramCache programs;
    std::vector<std::unique_ptr<DeviceCtx>> devs;

    std::vector<std::unique_ptr<Job>> jobs;
    /**
     * Footprint estimates are deterministic per (network, planner,
     * device spec): one entry per (network, planner object,
     * DeviceCtx::estimateSlot), shared by every job of that network
     * and planner. A std::map, so the references handed out stay
     * valid; the jobs keep the keyed objects alive.
     */
    std::map<std::tuple<const net::Network *, const core::Planner *, int>,
             FootprintEstimate>
        estimates;
    /** Each job's entry in `estimates` per device spec, filled on first
     *  use: `id * deviceCount() + DeviceCtx::estimateSlot`. Sized by
     *  submit(). */
    std::vector<const FootprintEstimate *> estimateOf;
    JobQueue queue;                 ///< arrived, waiting for admission
    std::vector<JobId> evictedJobs; ///< preempted/stalled, awaiting resume
    /** Capacity freed since the last resume sweep. */
    bool resumePending = false;
    /** Next rebalance sweep time (cluster mode). */
    TimeNs nextRebalance = kTimeNone;
    /**
     * Scheduler-loop accounting, kept incrementally so the per-event
     * serve loop does not rescan every job: jobs still Pending (with
     * the earliest arrival among them) and jobs gone terminal.
     */
    int numPending = 0;
    TimeNs nextPendingArrival = kTimeNone;
    int numTerminal = 0;
    /**
     * Event-driven engine state. `wake` holds the devices the next
     * turn must offer a step (populated by the Device completion
     * hooks plus the admit/resume/migrate-in sites); a device leaves
     * it only when a step offer makes no progress. `admissionDirty`
     * gates the admission rescan: it runs only when an arrival, a
     * ledger change, a running-set change, an iteration boundary
     * under priority ordering, or a pending setup-OOM retry could
     * alter its decisions — on every other turn the old polling
     * rescan was provably pure, so skipping it cannot change outputs.
     * `residentJobs` caches the summed running-set size (the jobs in
     * flight) so the idle test is O(1).
     */
    WakeSet wake;
    bool admissionDirty = true;
    int residentJobs = 0;
    std::uint64_t statWakeups = 0;
    std::uint64_t statFruitlessPolls = 0;
    std::uint64_t statIdleAdvances = 0;
    bool forceWakeAll = false;

    /**
     * Per-call scratch, kept to spare the admission sweep a heap
     * allocation per queued job: effective priorities by job id for
     * the priority sort, the current job's estimate per device, the
     * pass's last refused demand, the placement snapshot, and
     * make-room candidates, their eviction order and the cheapest
     * device's victim set.
     */
    std::vector<double> rankEff;
    std::vector<FootprintEstimate> jobEst;
    /** (effective priority, reserveScale, per-device estimates). */
    std::tuple<double, double, std::vector<FootprintEstimate>> refused;
    std::vector<DeviceLoad> loads;
    struct Candidate
    {
        double eff; ///< effective priority at the scan
        Job *job;
    };
    std::vector<Candidate> candidates;
    std::vector<JobId> victims;
    std::vector<JobId> chosenVictims;

    std::vector<LifecycleEvent> lifecycleLog;
    stats::TimeWeighted inflight;
    int peakInflight = 0;
    bool ran = false;

    // --- telemetry (null = off) -------------------------------------------
    obs::Counter *ctrAdmissions = nullptr;
    obs::Counter *ctrPreemptions = nullptr;
    obs::Counter *ctrMigrations = nullptr;
    stats::Accumulator *jctAcc = nullptr;
    stats::Accumulator *preemptLatAcc = nullptr;
    stats::Histogram *iterHist = nullptr;
    /** Open preemption flow: evict (victim) -> admit (beneficiary). */
    std::uint64_t pendingPreemptFlow = 0;
};

} // namespace vdnn::serve

#endif // VDNN_SERVE_SCHEDULER_HH
