/**
 * @file
 * The tenant lifecycle's one transition table.
 *
 * Each row is one legal (kind, from-state) pair of a job's lifecycle:
 * the state the transition enters, how it must move the admission
 * ledger's reserved bytes (summed over every device), and the kind's
 * printed name, which is what LifecycleEvent::what points at. A pair
 * with no row is illegal. Scheduler::transition checks every
 * transition against the table as it happens (checkTransition), and
 * auditLedger (check/ledger_auditor.hh) replays a finished run's
 * lifecycle log through the same check (checkRow). A new lifecycle
 * kind is one enumerator of serve::LifecycleKind and its rows here.
 *
 * Header-only dependency on serve/job.hh, like the auditor's on the
 * report: vdnn_check needs no link against vdnn_serve.
 */

#ifndef VDNN_CHECK_LIFECYCLE_TABLE_HH
#define VDNN_CHECK_LIFECYCLE_TABLE_HH

#include "check/check.hh"
#include "common/types.hh"
#include "serve/job.hh"

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <string>

namespace vdnn::check
{

/** How a transition must move the reserved-bytes ledger: the set of
 *  signs its delta may take (bit 0 negative, bit 1 zero, bit 2
 *  positive). */
enum class DeltaRule : std::uint8_t
{
    Negative = 1, ///< frees bytes: delta < 0
    Zero = 2,     ///< bookkeeping only: delta == 0
    NonPos = 3,   ///< frees or no-op: delta <= 0
    Positive = 4, ///< reserves bytes: delta > 0
};

struct TransitionRow
{
    serve::LifecycleKind kind;
    const char *name; ///< the kind's printed name
    serve::JobState from;
    serve::JobState to;
    DeltaRule delta;
};

namespace lifecycle_rows
{

using enum serve::LifecycleKind;
using enum serve::JobState;
using enum DeltaRule;

/** A kind's first row is also the one a replay applies when the
 *  from-state has none (after reporting the illegal transition). */
inline constexpr TransitionRow kRows[] = {
    // kind        name             from       to         delta
    {Admit,        "admit",         Queued,    Running,   Positive},
    {Suspend,      "suspend",       Running,   Suspended, Zero},
    {Evict,        "evict",         Suspended, Evicted,   Negative},
    {Resume,       "resume",        Suspended, Running,   Zero},
    {Resume,       "resume",        Evicted,   Running,   Positive},
    {Replan,       "replan",        Running,   Running,   Zero},
    {MigrateOut,   "migrate-out",   Running,   Migrating, Negative},
    {Migrate,      "migrate",       Migrating, Running,   Positive},
    // The target's reserve and evict cancel out.
    {MigrateStall, "migrate-stall", Migrating, Evicted,   Zero},
    {Finish,       "finish",        Running,   Finished,  NonPos},
    {Requeue,      "requeue",       Running,   Queued,    NonPos},
    {Fail,         "fail",          Running,   Failed,    NonPos},
    // runEngine's backstop: an evicted tenant that cannot come back
    // with the cluster drained.
    {Fail,         "fail",          Evicted,   Failed,    NonPos},
    // Admission gave up on a queued job: it holds no reservation.
    {Fail,         "fail",          Queued,    Failed,    Zero},
    {Arrive,       "arrive",        Pending,   Queued,    Zero},
    {Reject,       "reject",        Queued,    Rejected,  Zero},
};

} // namespace lifecycle_rows

inline constexpr auto &kTransitions = lifecycle_rows::kRows;

/** Logged kinds appear in the lifecycle log; arrival and rejection
 *  do not. */
constexpr bool
kindLogged(serve::LifecycleKind kind)
{
    return kind < serve::LifecycleKind::Arrive;
}

/** The first row of @p kind (its name, and the replay's fallback). */
constexpr const TransitionRow &
firstRow(serve::LifecycleKind kind)
{
    return *std::find_if(
        std::begin(kTransitions), std::end(kTransitions),
        [kind](const TransitionRow &row) { return row.kind == kind; });
}

/** The logged kind printed as @p what; nullopt for a name no logged
 *  kind has. */
std::optional<serve::LifecycleKind> findLoggedKind(const char *what);

/**
 * Check @p job's @p kind from @p from, which moved the reserved bytes
 * by @p delta, against the table. Each broken rule is added to @p out
 * as a DoubleResidency, BadTransition or DeltaSign error at @p event.
 * @return the row that applies: the pair's own or, for an illegal
 * pair, the kind's first row.
 */
const TransitionRow &checkRow(serve::JobId job, serve::LifecycleKind kind,
                              serve::JobState from, Bytes delta,
                              CheckResult &out, int event = -1);

/**
 * The online check Scheduler::transition runs at every transition:
 * checkRow, panicking on the first broken rule with its class, the
 * job, the kind and the from-state, followed by @p context() (the
 * scheduler's state dump). @return the row.
 */
const TransitionRow &
checkTransition(serve::JobId job, serve::LifecycleKind kind,
                serve::JobState from, Bytes delta,
                const std::function<std::string()> &context);

} // namespace vdnn::check

#endif // VDNN_CHECK_LIFECYCLE_TABLE_HH
