/**
 * @file
 * Serving metrics: the report the multi-tenant scheduler produces.
 *
 * Per job: a copy of the scheduler's live record (JobOutcome in
 * serve/job.hh) with queueing delay (arrival to admission) and job
 * completion time (arrival to finish) filled in; per device, likewise
 * a copy of the scheduler's live DeviceOutcome. Aggregate: makespan,
 * mean/p99 JCT, jobs admitted concurrently (peak and time-weighted
 * average), and the shared pool occupancy (peak, time-weighted
 * average, timeline).
 */

#ifndef VDNN_SERVE_SERVE_STATS_HH
#define VDNN_SERVE_SERVE_STATS_HH

#include "serve/job.hh"
#include "stats/table.hh"
#include "stats/time_weighted.hh"

#include <string>
#include <vector>

namespace vdnn::serve
{

/** Per-device section of a cluster report. The scheduler keeps one
 *  live per device (placements and migrations counted as they
 *  happen); the report copies it and fills the pool, busy-time and
 *  ledger fields. */
struct DeviceOutcome
{
    int device = -1;
    std::string gpuName;
    Bytes poolCapacity = 0;
    Bytes poolPeakBytes = 0;
    Bytes poolAvgBytes = 0; ///< time-weighted
    /** Busy time of this device's compute engine. */
    TimeNs computeBusyTime = 0;
    /** Admissions onto this device (including migrations in). */
    int jobsPlaced = 0;
    int migrationsIn = 0;
    int migrationsOut = 0;
    /** Ledger state after the drain (both must be zero). */
    Bytes reservedAtEnd = 0;
    int evictedLedgerAtEnd = 0;
};

/**
 * One tenant lifecycle transition, with the admission ledger's
 * reserved bytes on both sides — the audit trail the state machine
 * leaves behind (dumped by `memory_timeline lifecycle`).
 */
struct LifecycleEvent
{
    TimeNs when = 0;
    JobId job = -1;
    /** The kind's name in the transition table
     *  (check/lifecycle_table.hh), which it points at. */
    const char *what = "";
    /** Device the transition happened on (migrate: the target). */
    int device = -1;
    /** Reserved bytes summed over every device's ledger. */
    Bytes reservedBefore = 0;
    Bytes reservedAfter = 0;
};

struct ServeReport
{
    std::string schedulerName;
    std::string gpuName;
    /** Placement policy label ("" on a single-device run). */
    std::string placementName;
    /** Devices of the serving cluster (1 = the classic single GPU). */
    int deviceCount = 1;
    std::vector<JobOutcome> jobs;
    /** One section per device (aggregates sum these). */
    std::vector<DeviceOutcome> devices;

    /** First arrival to last completion. */
    TimeNs makespan = 0;
    /** Most jobs admitted (device-resident) at once. */
    int peakJobsInFlight = 0;
    /** Time-weighted average of admitted jobs over the run. */
    double avgJobsInFlight = 0.0;

    Bytes poolCapacity = 0;
    Bytes poolPeakBytes = 0;
    Bytes poolAvgBytes = 0; ///< time-weighted

    /** Busy time summed over every device's compute engine. */
    TimeNs computeBusyTime = 0;
    /** Busy time summed over every device's DMA engines. */
    TimeNs copyBusyTime = 0;
    /** Mean per-device compute busy fraction over the makespan. */
    double computeUtilization() const
    {
        return makespan > 0 && deviceCount > 0
                   ? double(computeBusyTime) /
                         (double(makespan) * deviceCount)
                   : 0.0;
    }

    /** Completed iterations per second over the makespan — the
     *  aggregate-throughput metric the scaling bench reports. */
    double aggregateThroughput() const;

    /** Shared-pool usage change points (when keepTimeline was set). */
    std::vector<stats::TimeWeighted::Sample> poolTimeline;
    /** Jobs-in-flight change points (when keepTimeline was set). */
    std::vector<stats::TimeWeighted::Sample> inflightTimeline;

    /** Every lifecycle transition, in time order. */
    std::vector<LifecycleEvent> lifecycle;

    /** Admission ledger after the run drained: both must be zero when
     *  every job reached a terminal state. */
    Bytes reservedBytesAtEnd = 0;
    int evictedLedgerAtEnd = 0;

    /**
     * Event-driven serve-loop accounting: device wake-hook firings
     * (one per executed completion event), fruitless step offers, and
     * idle clock advances to the next pending arrival. A fruitless
     * offer is a step that returned Blocked, an offer to an in-flight
     * tenant still known to be blocked (exclusive and one-iteration
     * packing), or an offer to a woken device with no resident; under
     * op-packed packing only tenants on the ready list are offered a
     * step, so there it counts steps that returned Blocked. Never
     * printed in the golden-pinned tables.
     */
    std::uint64_t loopWakeups = 0;
    std::uint64_t loopFruitlessPolls = 0;
    std::uint64_t loopIdleAdvances = 0;

    int finishedCount() const;
    int failedCount() const;
    int rejectedCount() const;

    /** Mean job completion time over finished jobs. */
    TimeNs meanJct() const;
    /** p95 (nearest-rank) job completion time over finished jobs. */
    TimeNs p95Jct() const;
    /** p99 (nearest-rank) job completion time over finished jobs. */
    TimeNs p99Jct() const;
    TimeNs meanQueueingDelay() const;
    /** p95 (nearest-rank) queueing delay over admitted jobs. */
    TimeNs p95QueueingDelay() const;
    /** p99 (nearest-rank) queueing delay over admitted jobs. */
    TimeNs p99QueueingDelay() const;

    /** Jobs that carried a JCT SLO (JobSpec::sloJct > 0). */
    int sloEligible() const;
    /** Eligible jobs that finished within their SLO. */
    int sloMet() const;
    /** sloMet() / sloEligible(); 1.0 when nothing carried an SLO. */
    double sloAttainment() const;

    /** Mean JCT over finished jobs at exactly @p priority. */
    TimeNs meanJctAtPriority(int priority) const;
    /** p95 (nearest-rank) JCT over finished jobs at @p priority. */
    TimeNs p95JctAtPriority(int priority) const;

    /**
     * Preemption latency: arrival to first kernel dispatch, sampled
     * over every job that evicted at least one victim to get in (the
     * responsiveness a high-priority arrival actually observed). At
     * op granularity this is microseconds; at iteration granularity
     * it includes the victim's full remaining iteration.
     */
    std::vector<TimeNs> preemptionLatencies() const;
    TimeNs meanPreemptionLatency() const;
    /** p95 (nearest-rank) preemption latency (0 when none). */
    TimeNs p95PreemptionLatency() const;

    /** Per-job ASCII table (gains a placement column on a cluster). */
    stats::Table jobTable() const;
    /** One-row aggregate summary. */
    stats::Table summaryTable() const;
    /** One row per device: placements, migrations, pool, busy time. */
    stats::Table deviceTable() const;
};

} // namespace vdnn::serve

#endif // VDNN_SERVE_SERVE_STATS_HH
