/**
 * @file
 * The static-analysis subsystem's shared vocabulary: diagnostics,
 * check results, and the CheckConfig that gates verification.
 *
 * Three passes build on these types (each in its own header):
 *
 *  - ProgramVerifier (check/program_verifier.hh): abstract
 *    interpretation over the IterationProgram op stream, tracking every
 *    buffer through a residency lattice and proving the invariants the
 *    Executor's op bodies silently rely on.
 *  - PlanVerifier (check/plan_verifier.hh): MemoryPlan admissibility
 *    against a granted share, folding in the ProgramVerifier's result
 *    on the compiled program.
 *  - LedgerAuditor (check/ledger_auditor.hh): replayable checks over
 *    the serve layer's admission ledgers and LifecycleEvent log.
 *
 * The plan and program checks have one wired gate: the Executor runs
 * the PlanVerifier body on the very program it compiled (construction
 * and adoptPlan), so every plan a Session, a vDNN_dyn trial or a test
 * executes is checked once. The gate is on by default in Debug and
 * the default RelWithDebInfo (test) builds, one branch off in Release
 * (CMake sets VDNN_CHECK_OFF_BY_DEFAULT there); either way a caller
 * can force it per-executor through ExecutorConfig::check. Every
 * finding's severity is fixed by its code; the one capacity finding,
 * ShareExceeded, is always a warning (a plan that outgrows its share
 * meets an OOM at run time; it is not a defect of the plan).
 */

#ifndef VDNN_CHECK_CHECK_HH
#define VDNN_CHECK_CHECK_HH

#include "common/types.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace vdnn::check
{

/** What a diagnostic means for the run. */
enum class Severity : std::uint8_t
{
    Info,    ///< observation, never fails a check
    Warning, ///< suspicious but not provably wrong (or demoted)
    Error,   ///< proven invariant violation; the check fails
};

const char *severityName(Severity s);

/** Machine-readable defect class of a diagnostic. */
enum class DiagCode : std::uint8_t
{
    // --- ProgramVerifier: op-stream structure ---------------------------
    BadStructure,   ///< begin/end/barrier placement, malformed groups
    SyncOrder,      ///< Sync dropped/reordered against its layer's DMAs
    // --- ProgramVerifier: residency dataflow ----------------------------
    UseUnallocated, ///< op touches an Unallocated or Released buffer
    ReadOffloaded,  ///< kernel reads offloaded data with no fetch before
    DoubleOffload,  ///< offload of an already-offloaded/static buffer
    DoubleRelease,  ///< release of a Released buffer / refcount underflow
    MissingGradient,///< backward kernel runs without its dY allocated
    MissingWorkspace,///< conv kernel runs without its workspace
    UnjoinedDma,    ///< DMA issued but never joined by a Sync/Barrier
    LeakedAlloc,    ///< device allocation still live at EndIteration
    HostLeak,       ///< host copy never fetched back nor dropped
    OffloadCoverage,///< plan offload not issued once at its last reader
    // --- PlanVerifier: plan admissibility -------------------------------
    PlanShape,      ///< directive/algo vectors do not match the network
    Infeasible,     ///< plan marked infeasible reached verification
    IneligibleOffload, ///< offload directive on an ineligible buffer
    CompressedDense,///< compressed directive without ReLU sparsity
    BadDmaScale,    ///< dmaScale outside (0, 1] / without compression
    StaticPlanTraffic, ///< static-allocation plan carries directives
    PriorityConflict,  ///< ambiguous/cyclic prefetch-priority ordering
    ShareExceeded,  ///< provable peak exceeds the share (always a warning)
    // --- LedgerAuditor: serve-layer replay ------------------------------
    LedgerChain,    ///< reservedBefore does not chain from the last event
    LedgerNonZero,  ///< reserved/evicted ledger nonzero at drain
    BadTransition,  ///< illegal lifecycle transition for a job
    DoubleResidency,///< job admitted while already running somewhere
    LostJob,        ///< preempted/evicted job never resumed or failed
    DeltaSign,      ///< ledger delta sign contradicts the event kind
    OutcomeMismatch,///< JobOutcome counters disagree with the event log
};

const char *diagCodeName(DiagCode c);

/** One finding of a verifier pass. */
struct Diagnostic
{
    DiagCode code = DiagCode::BadStructure;
    Severity severity = Severity::Error;
    std::string message;
    /** Op index in the program (-1 when not op-scoped). */
    int op = -1;
    /** Layer the finding anchors to (-1 when not layer-scoped). */
    int layer = -1;
    /** Buffer the finding anchors to (-1 when not buffer-scoped). */
    int buffer = -1;

    /** "error[UnjoinedDma] op 12: ..." single-line rendering. */
    std::string str() const;
};

/** Outcome of one verifier pass. */
struct CheckResult
{
    std::vector<Diagnostic> diags;

    /** ProgramVerifier: provable peak of per-iteration (transient)
     *  device bytes along the op stream. */
    Bytes peakTransientBytes = 0;
    /** PlanVerifier: analytic persistent footprint (setup state). */
    Bytes persistentBytes = 0;
    /** PlanVerifier: persistent + transient peak — the residency the
     *  plan provably needs from its share. */
    Bytes provablePeakBytes = 0;
    /** ProgramVerifier: DMAs issued / joined along the stream. */
    int dmasIssued = 0;
    int dmasJoined = 0;

    int errorCount() const;
    int warningCount() const;
    /** No errors (warnings and infos do not fail a check). */
    bool ok() const { return errorCount() == 0; }

    /** Multi-line report: one diagnostic per line. */
    std::string report() const;

    Diagnostic &add(DiagCode code, Severity sev, std::string message,
                    int op = -1, int layer = -1, int buffer = -1);
    /** Fold another pass's findings into this result. */
    void merge(const CheckResult &other);
};

/** Verification gate carried by ExecutorConfig: whether to verify,
 *  never how (severities are fixed by DiagCode). */
struct CheckConfig
{
    /** Run the Executor's plan gate (PlanVerifier + ProgramVerifier)
     *  on every program it compiles; a failing plan panics. */
    bool verifyPlans = defaultEnabled();

    /**
     * Build-type default: true in Debug and the default RelWithDebInfo
     * (test) builds, false when CMake defines VDNN_CHECK_OFF_BY_DEFAULT
     * (Release/MinSizeRel) — the "one branch off" promise.
     */
    static bool defaultEnabled();
};

} // namespace vdnn::check

#endif // VDNN_CHECK_CHECK_HH
