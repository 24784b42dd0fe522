#include "check/ledger_auditor.hh"

#include "check/lifecycle_table.hh"
#include "common/logging.hh"

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace vdnn::check
{

using serve::JobOutcome;
using serve::JobState;
using serve::LifecycleEvent;
using serve::LifecycleKind;
using serve::ServeReport;

namespace
{

/** The row of @p kind from @p from; nullptr when that is illegal. */
const TransitionRow *
findRow(LifecycleKind kind, JobState from)
{
    for (const TransitionRow &row : kTransitions) {
        if (row.kind == kind && row.from == from)
            return &row;
    }
    return nullptr;
}

/** Would @p kind from @p from make a job resident a second time? An
 *  admission while it is resident or mid-migration, or a resume while
 *  it runs. */
bool
doubleResidency(LifecycleKind kind, JobState from)
{
    return (kind == LifecycleKind::Admit &&
            (from == JobState::Running || from == JobState::Suspended ||
             from == JobState::Migrating)) ||
           (kind == LifecycleKind::Resume && from == JobState::Running);
}

bool
deltaLegal(DeltaRule rule, Bytes delta)
{
    return std::uint8_t(rule) & (1 << ((delta > 0) - (delta < 0) + 1));
}

/** The rule as its comparison against zero, indexed by its sign set. */
const char *
deltaRuleName(DeltaRule rule)
{
    constexpr const char *kNames[] = {"?", "< 0", "== 0", "<= 0", "> 0"};
    return kNames[std::size_t(rule)];
}

struct JobTrail
{
    JobState state = JobState::Queued; ///< arrival is not logged
    int evicts = 0;
    int replans = 0;
    int migrateOuts = 0; ///< "migrate-out" events
};

} // namespace

std::optional<LifecycleKind>
findLoggedKind(const char *what)
{
    for (const TransitionRow &row : kTransitions) {
        if (kindLogged(row.kind) && std::strcmp(row.name, what) == 0)
            return row.kind;
    }
    return std::nullopt;
}

const TransitionRow &
checkRow(serve::JobId job, LifecycleKind kind, JobState from, Bytes delta,
         CheckResult &out, int event)
{
    const char *name = firstRow(kind).name;
    const char *state = serve::jobStateName(from);
    if (doubleResidency(kind, from)) {
        out.add(DiagCode::DoubleResidency, Severity::Error,
                strFormat("job %d '%s' while already %s", job, name,
                          state),
                event);
    }
    const TransitionRow *row = findRow(kind, from);
    if (!row) {
        out.add(DiagCode::BadTransition, Severity::Error,
                strFormat("job %d '%s' is illegal from state '%s'", job,
                          name, state),
                event);
        row = &firstRow(kind);
    }
    if (!deltaLegal(row->delta, delta)) {
        out.add(DiagCode::DeltaSign, Severity::Error,
                strFormat("job %d '%s' from state '%s' moved the ledger "
                          "by %lld bytes (must be %s)",
                          job, name, state, (long long)delta,
                          deltaRuleName(row->delta)),
                event);
    }
    return *row;
}

const TransitionRow &
checkTransition(serve::JobId job, LifecycleKind kind, JobState from,
                Bytes delta, const std::function<std::string()> &context)
{
    CheckResult faults;
    const TransitionRow &row = checkRow(job, kind, from, delta, faults);
    if (!faults.diags.empty()) {
        panic("lifecycle check: %s\n%s", faults.diags.front().str().c_str(),
              context().c_str());
    }
    return row;
}


CheckResult
auditLedger(const ServeReport &report)
{
    CheckResult out;
    std::map<serve::JobId, JobTrail> trails;
    Bytes chained = 0; // expected reservedBefore of the next event

    for (std::size_t i = 0; i < report.lifecycle.size(); ++i) {
        const LifecycleEvent &ev = report.lifecycle[i];
        const char *what = ev.what ? ev.what : "";
        JobTrail &t = trails[ev.job];
        int idx = int(i);

        if (ev.reservedBefore != chained) {
            out.add(DiagCode::LedgerChain, Severity::Error,
                    strFormat("event %zu ('%s' of job %d) starts from "
                              "%lld reserved bytes but the previous "
                              "event left %lld",
                              i, what, ev.job,
                              (long long)ev.reservedBefore,
                              (long long)chained),
                    idx);
        }
        chained = ev.reservedAfter;
        Bytes delta = ev.reservedAfter - ev.reservedBefore;

        std::optional<LifecycleKind> kind = findLoggedKind(what);
        if (!kind) {
            out.add(DiagCode::BadTransition, Severity::Error,
                    strFormat("event %zu: unknown lifecycle event "
                              "'%s' for job %d",
                              i, what, ev.job),
                    idx);
            continue;
        }
        const TransitionRow &row =
            checkRow(ev.job, *kind, t.state, delta, out, idx);
        t.evicts += row.kind == LifecycleKind::Evict;
        t.replans += row.kind == LifecycleKind::Replan;
        t.migrateOuts += row.kind == LifecycleKind::MigrateOut;
        t.state = row.to;
    }

    // --- drain: everyone terminal, every ledger at zero ------------------
    for (const auto &[job, t] : trails) {
        if (!serve::jobStateTerminal(t.state)) {
            out.add(DiagCode::LostJob, Severity::Error,
                    strFormat("job %d ends the run in state '%s' — "
                              "its preemption/requeue was never "
                              "resolved by a resume, finish or fail",
                              job, serve::jobStateName(t.state)));
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
