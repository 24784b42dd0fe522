#include "serve/serve_stats.hh"

#include "common/units.hh"

#include <algorithm>
#include <cstdint>

namespace vdnn::serve
{

namespace
{

int
countState(const std::vector<JobOutcome> &jobs, JobState s)
{
    int n = 0;
    for (const JobOutcome &j : jobs)
        n += j.state == s ? 1 : 0;
    return n;
}

std::vector<TimeNs>
finishedJcts(const std::vector<JobOutcome> &jobs)
{
    std::vector<TimeNs> jcts;
    for (const JobOutcome &j : jobs) {
        if (j.state == JobState::Finished)
            jcts.push_back(j.completionTime);
    }
    std::sort(jcts.begin(), jcts.end());
    return jcts;
}

std::vector<TimeNs>
finishedJctsAtPriority(const std::vector<JobOutcome> &jobs, int priority)
{
    std::vector<TimeNs> jcts;
    for (const JobOutcome &j : jobs) {
        if (j.state == JobState::Finished && j.priority == priority)
            jcts.push_back(j.completionTime);
    }
    std::sort(jcts.begin(), jcts.end());
    return jcts;
}

std::vector<TimeNs>
admittedQueueingDelays(const std::vector<JobOutcome> &jobs)
{
    std::vector<TimeNs> delays;
    for (const JobOutcome &j : jobs) {
        if (j.admitTime != kTimeNone)
            delays.push_back(j.queueingDelay);
    }
    std::sort(delays.begin(), delays.end());
    return delays;
}

TimeNs
meanOf(const std::vector<TimeNs> &jcts)
{
    if (jcts.empty())
        return 0;
    double sum = 0.0;
    for (TimeNs t : jcts)
        sum += double(t);
    return TimeNs(sum / double(jcts.size()));
}

TimeNs
nearestRank(const std::vector<TimeNs> &jcts, double pct)
{
    if (jcts.empty())
        return 0;
    std::size_t rank = std::size_t(std::max<double>(
        1.0, std::ceil(pct * double(jcts.size()))));
    return jcts[rank - 1];
}

} // namespace

int
ServeReport::finishedCount() const
{
    return countState(jobs, JobState::Finished);
}

int
ServeReport::failedCount() const
{
    return countState(jobs, JobState::Failed);
}

int
ServeReport::rejectedCount() const
{
    return countState(jobs, JobState::Rejected);
}

int
ServeReport::sloEligible() const
{
    int n = 0;
    for (const JobOutcome &j : jobs)
        n += int(j.sloJct > 0);
    return n;
}

int
ServeReport::sloMet() const
{
    int n = 0;
    for (const JobOutcome &j : jobs)
        n += int(j.sloMet());
    return n;
}

double
ServeReport::sloAttainment() const
{
    int eligible = sloEligible();
    return eligible > 0 ? double(sloMet()) / double(eligible) : 1.0;
}

TimeNs
ServeReport::meanJct() const
{
    return meanOf(finishedJcts(jobs));
}

TimeNs
ServeReport::p95Jct() const
{
    return nearestRank(finishedJcts(jobs), 0.95);
}

TimeNs
ServeReport::p99Jct() const
{
    return nearestRank(finishedJcts(jobs), 0.99);
}

std::vector<TimeNs>
ServeReport::preemptionLatencies() const
{
    std::vector<TimeNs> lats;
    for (const JobOutcome &j : jobs) {
        if (j.victimsPreempted > 0 && j.firstDispatchTime != kTimeNone)
            lats.push_back(j.firstDispatchTime - j.arrival);
    }
    std::sort(lats.begin(), lats.end());
    return lats;
}

TimeNs
ServeReport::meanPreemptionLatency() const
{
    return meanOf(preemptionLatencies());
}

TimeNs
ServeReport::p95PreemptionLatency() const
{
    return nearestRank(preemptionLatencies(), 0.95);
}

TimeNs
ServeReport::meanJctAtPriority(int priority) const
{
    return meanOf(finishedJctsAtPriority(jobs, priority));
}

TimeNs
ServeReport::p95JctAtPriority(int priority) const
{
    return nearestRank(finishedJctsAtPriority(jobs, priority), 0.95);
}

double
ServeReport::aggregateThroughput() const
{
    if (makespan <= 0)
        return 0.0;
    std::int64_t iters = 0;
    for (const JobOutcome &j : jobs)
        iters += j.iterations;
    return double(iters) / toSeconds(makespan);
}

TimeNs
ServeReport::meanQueueingDelay() const
{
    double sum = 0.0;
    int n = 0;
    for (const JobOutcome &j : jobs) {
        if (j.admitTime != kTimeNone) {
            sum += double(j.queueingDelay);
            ++n;
        }
    }
    return n > 0 ? TimeNs(sum / double(n)) : 0;
}

TimeNs
ServeReport::p95QueueingDelay() const
{
    return nearestRank(admittedQueueingDelays(jobs), 0.95);
}

TimeNs
ServeReport::p99QueueingDelay() const
{
    return nearestRank(admittedQueueingDelays(jobs), 0.99);
}

namespace
{

/** "0>1>0" placement-history cell. */
std::string
placementCell(const JobOutcome &j)
{
    if (j.placements.empty())
        return "-";
    std::string s;
    for (std::size_t i = 0; i < j.placements.size(); ++i) {
        if (i > 0)
            s += '>';
        s += std::to_string(j.placements[i]);
    }
    return s;
}

} // namespace

stats::Table
ServeReport::jobTable() const
{
    // The placement column appears only on a cluster, so classic
    // single-device reports stay byte-identical.
    bool cluster = deviceCount > 1;
    stats::Table t(schedulerName + " on " + gpuName + ": per-job report");
    std::vector<std::string> cols = {"job", "config", "prio", "state",
                                     "arrive (ms)", "queue (ms)",
                                     "iters", "preempt", "replan"};
    if (cluster)
        cols.push_back("dev");
    cols.insert(cols.end(), {"JCT (ms)", "persistent (MiB)",
                             "peak pool (MiB)"});
    t.setColumns(cols);
    for (const JobOutcome &j : jobs) {
        std::vector<std::string> row = {
            j.name, j.configName, stats::Table::cellInt(j.priority),
            jobStateName(j.state),
            stats::Table::cell(toMs(j.arrival), 1),
            stats::Table::cell(toMs(j.queueingDelay), 1),
            stats::Table::cellInt(j.iterations),
            stats::Table::cellInt(j.preemptions),
            stats::Table::cellInt(j.replans)};
        if (cluster)
            row.push_back(placementCell(j));
        row.insert(row.end(),
                   {j.state == JobState::Finished
                        ? stats::Table::cell(toMs(j.completionTime), 1)
                        : std::string("-"),
                    stats::Table::cell(toMiB(j.persistentBytes), 1),
                    stats::Table::cell(toMiB(j.peakPoolBytes), 1)});
        t.addRow(row);
    }
    return t;
}

stats::Table
ServeReport::deviceTable() const
{
    stats::Table t(schedulerName +
                   (placementName.empty() ? std::string()
                                          : " / " + placementName) +
                   ": per-device report");
    t.setColumns({"dev", "gpu", "placed", "migr in", "migr out",
                  "compute busy (ms)", "peak pool (GiB)",
                  "avg pool (GiB)", "reserved at end (B)"});
    for (const DeviceOutcome &d : devices) {
        t.addRow({stats::Table::cellInt(d.device), d.gpuName,
                  stats::Table::cellInt(d.jobsPlaced),
                  stats::Table::cellInt(d.migrationsIn),
                  stats::Table::cellInt(d.migrationsOut),
                  stats::Table::cell(toMs(d.computeBusyTime), 1),
                  stats::Table::cell(toGiB(d.poolPeakBytes), 2),
                  stats::Table::cell(toGiB(d.poolAvgBytes), 2),
                  stats::Table::cellInt((long long)d.reservedAtEnd)});
    }
    return t;
}

stats::Table
ServeReport::summaryTable() const
{
    stats::Table t(schedulerName + " on " + gpuName + ": summary");
    t.setColumns({"finished", "failed", "rejected", "makespan (ms)",
                  "mean JCT (ms)", "p95 JCT (ms)", "p99 JCT (ms)",
                  "mean queue (ms)", "p99 queue (ms)",
                  "peak jobs", "avg jobs", "peak pool (GiB)",
                  "avg pool (GiB)"});
    t.addRow({stats::Table::cellInt(finishedCount()),
              stats::Table::cellInt(failedCount()),
              stats::Table::cellInt(rejectedCount()),
              stats::Table::cell(toMs(makespan), 1),
              stats::Table::cell(toMs(meanJct()), 1),
              stats::Table::cell(toMs(p95Jct()), 1),
              stats::Table::cell(toMs(p99Jct()), 1),
              stats::Table::cell(toMs(meanQueueingDelay()), 1),
              stats::Table::cell(toMs(p99QueueingDelay()), 1),
              stats::Table::cellInt(peakJobsInFlight),
              stats::Table::cell(avgJobsInFlight, 2),
              stats::Table::cell(toGiB(poolPeakBytes), 2),
              stats::Table::cell(toGiB(poolAvgBytes), 2)});
    return t;
}

} // namespace vdnn::serve
