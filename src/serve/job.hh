/**
 * @file
 * Multi-tenant serving: jobs and the arrival queue.
 *
 * A Job is one tenant's training request against the shared GPU: a
 * network, a memory Planner, a priority, an arrival time and an
 * iteration budget. The Scheduler drives each admitted job through
 * the core::Session lifecycle state machine
 *
 *   Queued -> Admitted/Running <-> Suspended(resident)
 *                                  <-> Evicted(host) -> Finished/Failed
 *
 * (suspend/evict/resume under SchedPolicy::PreemptivePriority);
 * JobRecord captures the timestamps the serving metrics (queueing
 * delay, job completion time) are computed from.
 */

#ifndef VDNN_SERVE_JOB_HH
#define VDNN_SERVE_JOB_HH

#include "core/training_session.hh"
#include "net/network.hh"

#include <algorithm>
#include <cstdint>
#include <deque>
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
    Suspended, ///< preempted; device share retained, no steps offered
    Evicted,   ///< preempted; device share released, state on host
    Finished,  ///< iteration budget completed
    Failed,    ///< gave up after repeated in-flight OOM aborts
    Rejected   ///< can never fit the device, even alone
};

const char *jobStateName(JobState s);

/** A job still occupying (or entitled to re-occupy) the system. */
bool jobStateLive(JobState s);

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

/** Scheduler-maintained lifecycle record of one job. */
struct JobRecord
{
    JobState state = JobState::Pending;
    TimeNs admitTime = kTimeNone;
    /** First time an iteration of this job was dispatched. */
    TimeNs firstDispatchTime = kTimeNone;
    TimeNs finishTime = kTimeNone;
    int itersDone = 0;
    /** Times the job was torn down and requeued after an OOM abort. */
    int oomRequeues = 0;
    /** Times the job was preempted (suspend -> evict) by a
     *  higher-priority arrival. */
    int preemptions = 0;
    /** Mid-run in-place re-plans (grow-back sweeps). */
    int replans = 0;
    /** Cross-device rebalance migrations. */
    int migrations = 0;
    /** Times this tenant's cold buffers were paged out to make room
     *  for a co-tenant (Salus-style buffer-granularity eviction). */
    int pageOuts = 0;
    /** Tenants this job preempted (evicted) to get admitted. Jobs
     *  with a nonzero count contribute a preemption-latency sample
     *  (arrival to first dispatch) to the report. */
    int victimsPreempted = 0;
    /**
     * Priority-aging bookkeeping: wait accrued over completed
     * Queued/Evicted spells, and the start of the current spell
     * (kTimeNone while the job is running). The earned boost is
     * *retained* while running — otherwise the next hostile arrival
     * would instantly re-preempt a job that aged its way in, and the
     * starvation aging exists to bound would continue.
     */
    TimeNs agedWait = 0;
    TimeNs waitingSince = kTimeNone;
    /** Device the job is homed on (-1 before first admission). */
    int deviceId = -1;
    /** Every device the job was placed on, in order. */
    std::vector<int> placements;
    std::string failReason;

    Bytes persistentBytes = 0;
    /** Peak bytes this tenant held in the shared pool(s). */
    Bytes peakPoolBytes = 0;
    Bytes offloadedBytes = 0;
    /** Offload traffic accrued on devices the job has migrated off
     *  (its live MemoryManager counts the current device only). */
    Bytes offloadedBytesPrior = 0;
    /**
     * Sum of the job's own iteration windows [start, end). Time the
     * job spends admitted with no iteration in flight — e.g. the
     * device clock advancing to the next sparse arrival — is never
     * billed here. Under packed overlap an iteration window includes
     * co-tenant interleaving, so it measures occupancy, not exclusive
     * compute.
     */
    TimeNs serviceTime = 0;
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
    JobSpec spec;
    JobRecord record;
    /** Live while Running / Suspended / Evicted. */
    std::unique_ptr<core::Session> session;
    /** Multiplier applied to the admission reservation; grows after
     *  each OOM requeue so readmission is more conservative. */
    double reserveScale = 1.0;
    /** A co-tenant exited: re-plan at the next iteration boundary. */
    bool replanRequested = false;
    /**
     * Blocked-stepper memo: the live stepper returned Blocked on one
     * of its own streams, and no completion has landed on this
     * tenant's streams since. A stepper blocks only on its own device
     * streams draining, and those drain only through the completion
     * paths that fire the wake hook (which clears this), so until
     * then a re-poll must return Blocked again. Set only while
     * resident with a live stepper; cleared by the wake hook, by a
     * fresh pick under one-iteration packing, and on leaving the
     * resident set. Buffer paging reads it to page blocked tenants
     * first.
     */
    bool stepBlocked = false;
    /**
     * On its device's ready list: the next sweep offers this resident
     * a step. A resident is ready exactly when its memo is clear; the
     * spurious-wakeup test mode (Scheduler::setDebugForceWakeAll)
     * also marks every resident ready at the start of each turn.
     */
    bool ready = false;
    /** Entry sequence on its device's resident set: orders the ready
     *  list exactly like the resident set. */
    std::uint64_t runSeq = 0;

    TimeNs queueingDelay() const
    {
        return record.admitTime == kTimeNone
                   ? 0
                   : record.admitTime - spec.arrival;
    }

    /** Job completion time (arrival to finish). */
    TimeNs completionTime() const
    {
        return record.finishTime == kTimeNone
                   ? 0
                   : record.finishTime - spec.arrival;
    }

    bool done() const
    {
        return record.state == JobState::Finished ||
               record.state == JobState::Failed ||
               record.state == JobState::Rejected;
    }
};

/** FIFO admission queue of arrived jobs. */
class JobQueue
{
  public:
    void push(JobId id) { ids.push_back(id); }
    void pushFront(JobId id) { ids.push_front(id); }
    bool empty() const { return ids.empty(); }
    std::size_t size() const { return ids.size(); }

    /** Remove and return the i-th queued job (0 = head). */
    JobId take(std::size_t i);

    JobId at(std::size_t i) const { return ids.at(i); }

    /** Stable-sort the queued ids (priority admission order). */
    template <typename Cmp>
    void stableSort(Cmp cmp)
    {
        std::stable_sort(ids.begin(), ids.end(), cmp);
    }

  private:
    std::deque<JobId> ids;
};

} // namespace vdnn::serve

#endif // VDNN_SERVE_JOB_HH
