/**
 * @file
 * Multi-tenant serving: jobs and the arrival queue.
 *
 * A Job is one tenant's training request against the shared GPU: a
 * network, a memory Planner, a priority, an arrival time and an
 * iteration budget. The Scheduler drives each job through the
 * lifecycle whose legal transitions are the rows of
 * check/lifecycle_table.hh. Each Job carries one JobOutcome, its
 * record: the scheduler keeps it live (Scheduler::transition is the
 * one writer of its state, and runs the priority-aging clock), and
 * the ServeReport copies it, so the serving metrics (queueing delay,
 * job completion time, SLO attainment) read the very record the
 * scheduler wrote.
 */

#ifndef VDNN_SERVE_JOB_HH
#define VDNN_SERVE_JOB_HH

#include "core/training_session.hh"
#include "net/network.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vdnn::serve
{

using JobId = int;

enum class JobState : std::uint8_t
{
    Pending,   ///< submitted, arrival time not reached yet
    Queued,    ///< arrived, waiting for admission
    Running,   ///< admitted; session active on the shared device
    /** Parked: the session stays active and resident, but the
     *  scheduler offers it no steps (stepTenant asserts Running). */
    Suspended,
    Evicted,   ///< preempted; device share released, state on host
    Finished,  ///< iteration budget completed
    Failed,    ///< gave up after repeated in-flight OOM aborts
    Rejected,  ///< can never fit the device, even alone
    Migrating  ///< staged on host between two devices (rebalance)
};

constexpr const char *
jobStateName(JobState s)
{
    constexpr const char *kNames[] = {
        "pending",  "queued", "running",  "suspended", "evicted",
        "finished", "failed", "rejected", "migrating"};
    return kNames[std::size_t(s)];
}

/** Finished, Failed or Rejected: the job has left the system. */
constexpr bool
jobStateTerminal(JobState s)
{
    return s == JobState::Finished || s == JobState::Failed ||
           s == JobState::Rejected;
}

/**
 * What moved a job from one state to the next. The first eleven are
 * logged (LifecycleEvent::what prints their name); arrival and
 * rejection are not. check/lifecycle_table.hh holds each kind's legal
 * from-states, its to-state, its reservation-delta rule and its name.
 */
enum class LifecycleKind : std::uint8_t
{
    Admit,
    Suspend,
    Evict,
    Resume,
    Replan,
    MigrateOut,
    Migrate,
    MigrateStall,
    Finish,
    Requeue,
    Fail,
    Arrive, ///< unlogged: Pending -> Queued
    Reject  ///< unlogged: Queued -> Rejected
};

/** One tenant's training request. */
struct JobSpec
{
    std::string name;
    std::shared_ptr<const net::Network> network;
    /**
     * The memory planner this tenant trains under. When null,
     * submission defaults to OffloadAllPlanner (vDNN_all,
     * memory-optimal algorithms).
     */
    std::shared_ptr<core::Planner> planner;
    core::ExecutorConfig exec;
    /**
     * Scheduling priority (higher = more important). Under
     * SchedPolicy::PreemptivePriority a higher-priority arrival that
     * fails admission preempts (suspend -> evict) the lowest-priority
     * running tenants until it fits.
     */
    int priority = 0;
    /**
     * Priority aging (starvation control): a queued job's *effective*
     * priority grows by this much per second of queue wait, so a
     * low-priority job facing a hostile stream of high-priority
     * arrivals eventually sorts ahead of them — and, under
     * PreemptivePriority, eventually out-preempts them. 0 (the
     * default) disables aging; running jobs never age.
     */
    double agingRatePerSec = 0.0;
    /** Simulated time the job enters the system. */
    TimeNs arrival = 0;
    /** Training iterations requested. */
    int iterations = 1;
    /**
     * Job-completion-time service-level objective (arrival to
     * finish), 0 = none. Purely observational: the scheduler never
     * consults it, but ServeReport::sloAttainment() reports the
     * fraction of SLO-carrying jobs that finished within theirs —
     * the scenario generator's headline quality metric.
     */
    TimeNs sloJct = 0;
};

/**
 * One job's record: the scheduler keeps it live from submission and
 * the report copies it (ServeReport::jobs), so each per-job fact has
 * one definition. submit() sets the identity fields; the scheduler
 * fills the rest as the job moves through its lifecycle, and the
 * report adds configName, queueingDelay and completionTime.
 */
struct JobOutcome
{
    JobId id = -1;
    std::string name;
    /** Report only: the planner's name. The report formats it, so
     *  submission (which perfbench's setup_s times) formats no string
     *  per job. */
    std::string configName;
    /** Written only by Scheduler::transition. */
    JobState state = JobState::Pending;
    int priority = 0;
    TimeNs arrival = 0;
    TimeNs admitTime = kTimeNone;
    /** First iteration dispatch (preemption responsiveness metric). */
    TimeNs firstDispatchTime = kTimeNone;
    /** Set when the job goes terminal (Finished, Failed, Rejected). */
    TimeNs finishTime = kTimeNone;
    TimeNs queueingDelay = 0;  ///< report only: admitTime - arrival
    TimeNs completionTime = 0; ///< report only: JCT; 0 unless Finished
    /**
     * Sum of the job's own iteration windows [start, end). Time the
     * job spends admitted with no iteration in flight — e.g. the
     * device clock advancing to the next sparse arrival — is never
     * billed here. Under packed overlap an iteration window includes
     * co-tenant interleaving, so it measures occupancy, not exclusive
     * compute.
     */
    TimeNs serviceTime = 0;
    /** Completed iterations. */
    int iterations = 0;
    /** Times the job was torn down and requeued after an OOM abort. */
    int oomRequeues = 0;
    /** Times the job was preempted (suspend -> evict) by a
     *  higher-priority arrival. */
    int preemptions = 0;
    /** Mid-run in-place re-plans (grow-back sweeps). */
    int replans = 0;
    /** Always 0: the scheduler no longer pages buffers. Kept only
     *  because the repository benchmark still reads it. */
    int pageOuts = 0;
    /** Tenants this job preempted (evicted) to get admitted. Jobs
     *  with a nonzero count contribute a preemption-latency sample
     *  (arrival to first dispatch) to the report. */
    int victimsPreempted = 0;
    /** Cross-device rebalance migrations. */
    int migrations = 0;
    /** Device the job is homed on (-1: never admitted). */
    int device = -1;
    /** Placement history: every device the job ran on, in order. */
    std::vector<int> placements;
    Bytes persistentBytes = 0;
    /** Peak bytes this tenant held in the shared pool(s). */
    Bytes peakPoolBytes = 0;
    Bytes offloadedBytes = 0;
    /** JCT service-level objective carried by the spec (0 = none). */
    TimeNs sloJct = 0;
    std::string failReason;

    /** Finished within the SLO (false when none was set). */
    bool sloMet() const
    {
        return sloJct > 0 && state == JobState::Finished &&
               completionTime <= sloJct;
    }
};

/**
 * Device-pool footprint one job is admitted with (estimateFootprint in
 * serve/admission.hh), fixed for the job's life.
 */
struct FootprintEstimate
{
    /** Resident for the whole job: weights, dW, classifier block
     *  (core::persistentFootprint). */
    Bytes persistent = 0;
    /** Peak per-iteration working set (released between iterations):
     *  the ProgramVerifier's provable peak with prefetching off. */
    Bytes transient = 0;

    Bytes total() const { return persistent + transient; }
    bool operator==(const FootprintEstimate &) const = default;
};

/** A job owned by the scheduler. */
struct Job
{
    JobId id = -1;
    /** The submitted request; submit() moves its name to the record. */
    JobSpec spec;
    JobOutcome record;
    /** Live while Running / Suspended / Evicted. */
    std::unique_ptr<core::Session> session;
    /** Multiplier applied to the admission reservation; grows after
     *  each OOM requeue so readmission is more conservative. */
    double reserveScale = 1.0;
    /** A co-tenant exited: re-plan at the next iteration boundary. */
    bool replanRequested = false;
    /**
     * On its device's ready list: the next sweep offers this resident
     * a step. A resident leaves the list when its live stepper returns
     * Blocked on one of its own streams, and rejoins it when a
     * completion lands on one of those streams (the wake hook), on a
     * fresh pick under one-iteration packing, or on entering the
     * resident set. Until then a re-poll must return Blocked again, so
     * for a resident `!ready` means blocked; only the spurious-wakeup
     * test mode (Scheduler::setDebugForceWakeAll) adds members without
     * a wake, marking every resident ready at the start of each turn.
     */
    bool ready = false;
    /** Entry sequence on its device's resident set: orders the ready
     *  list exactly like the resident set. */
    std::uint64_t runSeq = 0;
    /**
     * Priority-aging clock, run by the scheduler's state routine:
     * wait accrued over completed Queued/Evicted/Migrating spells, and
     * the start of the current spell (kTimeNone outside one). The
     * earned boost is *retained* while running — otherwise the next
     * hostile arrival would instantly re-preempt a job that aged its
     * way in, and the starvation aging exists to bound would continue.
     */
    TimeNs agedWait = 0;
    TimeNs waitingSince = kTimeNone;
    /** Offload traffic accrued on devices the job has migrated off
     *  (its live MemoryManager counts the current device only). */
    Bytes offloadedBytesPrior = 0;
};

/** FIFO admission queue of arrived jobs. */
class JobQueue
{
  public:
    void push(JobId id) { ids.push_back(id); }
    void pushFront(JobId id) { ids.insert(ids.begin(), id); }
    bool empty() const { return ids.empty(); }
    std::size_t size() const { return ids.size(); }

    /** Remove and return the i-th queued job (0 = head). */
    JobId take(std::size_t i);

    JobId at(std::size_t i) const { return ids.at(i); }

    /**
     * Stable-sort the queued ids (priority admission order).
     * std::stable_sort allocates a buffer even for an ordered queue,
     * so it runs only when the queue is out of order.
     */
    template <typename Cmp>
    void stableSort(Cmp cmp)
    {
        if (!std::is_sorted(ids.begin(), ids.end(), cmp))
            std::stable_sort(ids.begin(), ids.end(), cmp);
    }

  private:
    std::vector<JobId> ids;
};

} // namespace vdnn::serve

#endif // VDNN_SERVE_JOB_HH
