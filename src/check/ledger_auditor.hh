/**
 * @file
 * LedgerAuditor: replayable verification of a finished serving run.
 *
 * The serve-layer scheduler leaves a complete audit trail behind — the
 * time-ordered LifecycleEvent log with the admission ledger's reserved
 * bytes on both sides of every transition, plus the drained ledger
 * state and per-job outcome counters in the ServeReport. The auditor
 * replays that trail through the transition table the scheduler
 * checks each event against as it happens (check/lifecycle_table.hh),
 * from Queued for every job, and proves:
 *  - every event is of a known kind and legal from the job's replayed
 *    state (BadTransition), and no tenant is admitted or resumed while
 *    it is already resident (DoubleResidency);
 *  - every delta has the sign its row implies (DeltaSign);
 *  - the reserved-bytes ledger chains: each event's reservedBefore
 *    equals the previous event's reservedAfter, starting from zero
 *    (LedgerChain);
 *  - at drain every tenant reached a terminal state (LostJob) and the
 *    reserved/evicted ledgers — aggregate and per device — balance to
 *    zero (LedgerNonZero);
 *  - the JobOutcome counters agree with the event log: replans,
 *    preemptions and migrations (one per migrate-out) exactly
 *    (OutcomeMismatch).
 * The first three are the online check's rules, replayed; the rest
 * need the whole trail.
 *
 * Header-only dependency on serve/serve_stats.hh: the auditor reads
 * report fields, so vdnn_check needs no link against vdnn_serve.
 */

#ifndef VDNN_CHECK_LEDGER_AUDITOR_HH
#define VDNN_CHECK_LEDGER_AUDITOR_HH

#include "check/check.hh"
#include "serve/serve_stats.hh"

namespace vdnn::check
{

/** Replay and verify the lifecycle/ledger trail of a drained run. */
CheckResult auditLedger(const serve::ServeReport &report);

} // namespace vdnn::check

#endif // VDNN_CHECK_LEDGER_AUDITOR_HH
