#include "check/ledger_auditor.hh"

#include "common/logging.hh"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vdnn::check
{

using serve::JobOutcome;
using serve::LifecycleEvent;
using serve::ServeReport;

namespace
{

/** Replay state of one tenant (refines serve::JobState). */
enum class ReplayState : std::uint8_t
{
    Unseen,    ///< no event yet (admission pending)
    Queued,    ///< requeued, waiting for re-admission
    Running,
    Suspended,
    Evicted,
    Migrating, ///< between migrate-out and migrate/migrate-stall
    Terminal,  ///< finished or failed
};

const char *
replayStateName(ReplayState s)
{
    switch (s) {
      case ReplayState::Unseen:
        return "unseen";
      case ReplayState::Queued:
        return "queued";
      case ReplayState::Running:
        return "running";
      case ReplayState::Suspended:
        return "suspended";
      case ReplayState::Evicted:
        return "evicted";
      case ReplayState::Migrating:
        return "migrating";
      case ReplayState::Terminal:
        return "terminal";
    }
    return "?";
}

/** How an event kind must move the reserved-bytes ledger. */
enum class DeltaRule : std::uint8_t
{
    Positive, ///< reserves bytes: delta > 0
    Negative, ///< frees bytes: delta < 0
    Zero,     ///< bookkeeping only: delta == 0
    NonPos,   ///< frees or no-op: delta <= 0
};

bool
deltaLegal(DeltaRule rule, Bytes delta)
{
    switch (rule) {
      case DeltaRule::Positive:
        return delta > 0;
      case DeltaRule::Negative:
        return delta < 0;
      case DeltaRule::Zero:
        return delta == 0;
      case DeltaRule::NonPos:
        return delta <= 0;
    }
    return false;
}

const char *
deltaRuleName(DeltaRule rule)
{
    switch (rule) {
      case DeltaRule::Positive:
        return "> 0";
      case DeltaRule::Negative:
        return "< 0";
      case DeltaRule::Zero:
        return "== 0";
      case DeltaRule::NonPos:
        return "<= 0";
    }
    return "?";
}

struct JobTrail
{
    ReplayState state = ReplayState::Unseen;
    int device = -1; ///< device while Running
    int evicts = 0;
    int replans = 0;
    int migrateOuts = 0; ///< "migrate-out" events
};

} // namespace

CheckResult
auditLedger(const ServeReport &report)
{
    CheckResult out;
    std::map<serve::JobId, JobTrail> trails;
    Bytes chained = 0; // expected reservedBefore of the next event

    for (std::size_t i = 0; i < report.lifecycle.size(); ++i) {
        const LifecycleEvent &ev = report.lifecycle[i];
        const std::string what = ev.what ? ev.what : "";
        JobTrail &t = trails[ev.job];
        int idx = int(i);

        if (ev.reservedBefore != chained) {
            out.add(DiagCode::LedgerChain, Severity::Error,
                    strFormat("event %zu ('%s' of job %d) starts from "
                              "%lld reserved bytes but the previous "
                              "event left %lld",
                              i, what.c_str(), ev.job,
                              (long long)ev.reservedBefore,
                              (long long)chained),
                    idx);
        }
        chained = ev.reservedAfter;
        Bytes delta = ev.reservedAfter - ev.reservedBefore;

        ReplayState next = t.state;
        DeltaRule rule = DeltaRule::Zero;
        bool legal = true;
        if (what == "admit") {
            if (t.state == ReplayState::Running ||
                t.state == ReplayState::Suspended ||
                t.state == ReplayState::Migrating) {
                out.add(DiagCode::DoubleResidency, Severity::Error,
                        strFormat("job %d admitted while already %s "
                                  "(on device %d)",
                                  ev.job, replayStateName(t.state),
                                  t.device),
                        idx);
            }
            legal = t.state == ReplayState::Unseen ||
                    t.state == ReplayState::Queued;
            next = ReplayState::Running;
            rule = DeltaRule::Positive;
        } else if (what == "suspend") {
            legal = t.state == ReplayState::Running;
            next = ReplayState::Suspended;
            rule = DeltaRule::Zero;
        } else if (what == "evict") {
            legal = t.state == ReplayState::Suspended;
            next = ReplayState::Evicted;
            rule = DeltaRule::Negative;
            ++t.evicts;
        } else if (what == "resume") {
            if (t.state == ReplayState::Running) {
                out.add(DiagCode::DoubleResidency, Severity::Error,
                        strFormat("job %d resumed while already "
                                  "running on device %d",
                                  ev.job, t.device),
                        idx);
            }
            legal = t.state == ReplayState::Suspended ||
                    t.state == ReplayState::Evicted;
            rule = t.state == ReplayState::Evicted
                       ? DeltaRule::Positive
                       : DeltaRule::Zero;
            next = ReplayState::Running;
        } else if (what == "replan") {
            legal = t.state == ReplayState::Running;
            rule = DeltaRule::Zero;
            ++t.replans;
        } else if (what == "migrate-out") {
            legal = t.state == ReplayState::Running;
            next = ReplayState::Migrating;
            rule = DeltaRule::Negative;
            ++t.migrateOuts;
        } else if (what == "migrate") {
            legal = t.state == ReplayState::Migrating;
            next = ReplayState::Running;
            rule = DeltaRule::Positive;
        } else if (what == "migrate-stall") {
            legal = t.state == ReplayState::Migrating;
            next = ReplayState::Evicted;
            rule = DeltaRule::Zero; // target reserve+evict cancel out
        } else if (what == "finish" || what == "fail") {
            // Admission may give up on a job still queued (repeated
            // setup OOM): it holds no reservation, so nothing moves.
            const bool queued = what == "fail" &&
                                (t.state == ReplayState::Unseen ||
                                 t.state == ReplayState::Queued);
            legal = queued || t.state == ReplayState::Running ||
                    t.state == ReplayState::Suspended ||
                    t.state == ReplayState::Evicted;
            next = ReplayState::Terminal;
            rule = queued ? DeltaRule::Zero : DeltaRule::NonPos;
        } else if (what == "requeue") {
            legal = t.state == ReplayState::Running ||
                    t.state == ReplayState::Suspended ||
                    t.state == ReplayState::Evicted;
            next = ReplayState::Queued;
            rule = DeltaRule::NonPos;
        } else {
            out.add(DiagCode::BadTransition, Severity::Error,
                    strFormat("event %zu: unknown lifecycle event "
                              "'%s' for job %d",
                              i, what.c_str(), ev.job),
                    idx);
            continue;
        }

        if (!legal) {
            out.add(DiagCode::BadTransition, Severity::Error,
                    strFormat("event %zu: '%s' of job %d is illegal "
                              "from state '%s'",
                              i, what.c_str(), ev.job,
                              replayStateName(t.state)),
                    idx);
        }
        if (!deltaLegal(rule, delta)) {
            out.add(DiagCode::DeltaSign, Severity::Error,
                    strFormat("event %zu: '%s' of job %d moved the "
                              "ledger by %lld bytes (must be %s)",
                              i, what.c_str(), ev.job,
                              (long long)delta, deltaRuleName(rule)),
                    idx);
        }
        t.state = next;
        t.device = next == ReplayState::Running ? ev.device : -1;
    }

    // --- drain: everyone terminal, every ledger at zero ------------------
    for (const auto &[job, t] : trails) {
        if (t.state != ReplayState::Terminal) {
            out.add(DiagCode::LostJob, Severity::Error,
                    strFormat("job %d ends the run in state '%s' — "
                              "its preemption/requeue was never "
                              "resolved by a resume, finish or fail",
                              job, replayStateName(t.state)));
        }
    }
    if (report.reservedBytesAtEnd != 0) {
        out.add(DiagCode::LedgerNonZero, Severity::Error,
                strFormat("admission ledger holds %lld reserved bytes "
                          "after the drain",
                          (long long)report.reservedBytesAtEnd));
    }
    if (report.evictedLedgerAtEnd != 0) {
        out.add(DiagCode::LedgerNonZero, Severity::Error,
                strFormat("evicted ledger holds %d entries after the "
                          "drain",
                          report.evictedLedgerAtEnd));
    }
    for (const serve::DeviceOutcome &d : report.devices) {
        if (d.reservedAtEnd != 0 || d.evictedLedgerAtEnd != 0) {
            out.add(DiagCode::LedgerNonZero, Severity::Error,
                    strFormat("device %d ledger not drained: %lld "
                              "reserved bytes, %d evicted entries",
                              d.device, (long long)d.reservedAtEnd,
                              d.evictedLedgerAtEnd));
        }
    }
    if (!report.lifecycle.empty() &&
        report.lifecycle.front().reservedBefore != 0) {
        out.add(DiagCode::LedgerChain, Severity::Error,
                strFormat("first lifecycle event starts from %lld "
                          "reserved bytes (must start from zero)",
                          (long long)report.lifecycle.front()
                              .reservedBefore),
                0);
    }

    // --- outcome counters vs. the event log ------------------------------
    for (const JobOutcome &j : report.jobs) {
        auto it = trails.find(j.id);
        if (it == trails.end())
            continue; // never admitted (rejected / still pending)
        const JobTrail &t = it->second;
        if (j.preemptions != t.evicts) {
            out.add(DiagCode::OutcomeMismatch, Severity::Error,
                    strFormat("job %d reports %d preemptions but the "
                              "log has %d evict events",
                              j.id, j.preemptions, t.evicts));
        }
        if (j.replans != t.replans) {
            out.add(DiagCode::OutcomeMismatch, Severity::Error,
                    strFormat("job %d reports %d replans but the log "
                              "has %d replan events",
                              j.id, j.replans, t.replans));
        }
        // Every migration re-homes the tenant, a stalled one too (the
        // scheduler sizes the staging on both devices first).
        if (j.migrations != t.migrateOuts) {
            out.add(DiagCode::OutcomeMismatch, Severity::Error,
                    strFormat("job %d reports %d migrations but the "
                              "log has %d migrate-out events",
                              j.id, j.migrations, t.migrateOuts));
        }
    }
    return out;
}

} // namespace vdnn::check
