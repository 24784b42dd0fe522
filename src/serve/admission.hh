/**
 * @file
 * Admission control for the shared device pool.
 *
 * A job's footprint splits Salus-style into:
 *
 *  - persistent bytes, held for the job's whole lifetime (weights,
 *    shared dW, the classifier block — and, for Baseline tenants, the
 *    entire network-wide allocation): core::persistentFootprint, the
 *    regions Executor::setup() allocates;
 *  - transient bytes, the per-iteration working set that is allocated
 *    at iteration start and fully released by iteration end: the
 *    ProgramVerifier's provable peak of the plan's compiled program
 *    (check/program_verifier.hh) with prefetching off. Overlapped
 *    prefetches are not reserved, because the Executor skips or
 *    evicts them whenever a mandatory allocation needs the space.
 *
 * Both numbers are read off the plan statically, before the job ever
 * runs, and a reservation is never revised afterwards: the first
 * iteration's measured footprint (obs::ProfiledFootprint) is an
 * observation, not an admission input.
 *
 * Because the scheduler interleaves tenants at *iteration*
 * granularity, at most one tenant's transient working set is live at
 * any instant; tenants between iterations hold only their persistent
 * bytes. Admission therefore requires
 *
 *     sum(persistent_i) + max(transient_i)  <=  pool capacity
 *
 * — one communal transient arena sized to the largest admitted
 * tenant, not one per tenant. This is where vDNN pays off twice: its
 * offloading shrinks the transient term (feature maps live in host
 * memory between forward and backward), and its persistent term is
 * tiny next to Baseline's network-wide allocation, so far more
 * tenants pack onto the same 12 GB device.
 *
 * One exception is not reserved: Op-granularity preemption
 * (PreemptGranularity::Op) parks the in-flight victim resident,
 * mid-iteration, with its partial iteration's transients still
 * allocated, while the challenger runs its own. Two transient working
 * sets are then live at once. On the repository benchmark's
 * priority-churn workload at admissionSafety 1.05 (seeds 1–6), 2,012
 * of 2,068 in-flight OOMs happened with such a parked co-resident.
 *
 * Reservations are bookkept against pool capacity rather than live
 * usage so admission is stable while the active tenant's usage
 * fluctuates within its reservation.
 */

#ifndef VDNN_SERVE_ADMISSION_HH
#define VDNN_SERVE_ADMISSION_HH

#include "core/planner.hh"
#include "dnn/cudnn_sim.hh"
#include "net/network.hh"
#include "serve/job.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace vdnn::serve
{

/**
 * The device footprint of training @p net under the resolved @p plan:
 * core::persistentFootprint plus the ProgramVerifier's provable
 * transient peak of @p plan compiled with prefetching off (a
 * static-allocation plan holds everything persistently, so its
 * transient term is zero).
 */
FootprintEstimate estimateFootprint(const net::Network &net,
                                    const dnn::CudnnSim &cudnn,
                                    const core::MemoryPlan &plan);

class AdmissionController
{
  public:
    /**
     * @param capacity shared device pool size
     * @param safety   reservation inflation (e.g. 1.05 = +5%). The
     *                 footprint itself is a provable bound, so this
     *                 margin covers what it leaves out: co-tenants'
     *                 opportunistic prefetches overshooting their
     *                 reservations, and pool fragmentation (each
     *                 allocation rounded up to the pool alignment).
     * @param overlap_transients packed-overlap mode: iterations of all
     *                 admitted tenants may be in flight
     *                 *simultaneously*, so the shared-transient-arena
     *                 assumption above no longer holds — every
     *                 tenant's transient working set is reserved at
     *                 once (sum instead of max).
     */
    AdmissionController(Bytes capacity, double safety = 1.05,
                        bool overlap_transients = false);

    /**
     * Would @p est (scaled by @p scale) fit beside the admitted set,
     * i.e. sum(persistent) + max(transient) stays within capacity
     * (sum(transient) in packed-overlap mode)?
     */
    bool canAdmit(const FootprintEstimate &est, double scale = 1.0) const;

    /** Could it fit an *empty* device at all (else: reject outright)?
     *  @p scale includes any OOM-backoff inflation the job accrued.
     *  Rounds exactly like canAdmit(), so a feasible job fits an
     *  empty ledger. */
    bool feasible(const FootprintEstimate &est, double scale = 1.0) const;

    /** Record an admitted job's reservation. */
    void admit(JobId id, const FootprintEstimate &est, double scale = 1.0);

    /**
     * Drop a reservation (job finished / torn down). The job may be
     * device-resident or evicted — either ledger entry is released.
     */
    void release(JobId id);

    // --- evict / readmit (the lifecycle state machine) -------------------
    //
    // Reserved bytes track the *state machine*, not the job lifetime:
    // an evicted tenant holds no device reservation (its bytes are
    // free for the preemptor) but stays on the evicted ledger, so the
    // controller can restore the exact reservation on readmission and
    // the books balance to zero only when every tenant is gone.

    /** Move an admitted job's reservation to the evicted ledger,
     *  freeing its device bytes (suspend -> evict). */
    void evict(JobId id);

    /** Would the evicted job's reservation fit back beside the
     *  currently resident set? */
    bool canReadmit(JobId id) const;

    /** Restore an evicted job's reservation (resume). */
    void readmit(JobId id);

    /** Safety-scaled reservation of a single job standing alone. */
    Bytes reservationFor(const FootprintEstimate &est,
                         double scale = 1.0) const;

    /** Bytes a resident job's reservation holds on this ledger. */
    Bytes reservedFor(JobId id) const;

    /**
     * Make-room dry run: the fewest leading entries of @p victims
     * (distinct resident jobs, in eviction order) whose eviction lets
     * @p est fit, or -1 when evicting all of them is not enough. One
     * pass over the resident set, however many victims are tried.
     */
    int evictionsToFit(const FootprintEstimate &est, double scale,
                       const std::vector<JobId> &victims) const;

    Bytes capacity() const { return cap; }
    /** Committed device bytes: sum of resident persistents + the
     *  transient arena. Evicted tenants contribute nothing. */
    Bytes reservedBytes() const;
    /** Device-resident reservations (Running/Suspended tenants). */
    int admittedCount() const { return int(residents.size()); }
    /** Tenants parked on the evicted ledger. */
    int evictedCount() const { return evicted; }

  private:
    struct Reservation
    {
        Bytes persistent = 0;
        Bytes transient = 0;
    };
    enum class Where : std::uint8_t
    {
        None,
        Resident, ///< holds device bytes
        Evicted,  ///< reservation remembered, device bytes free
    };
    /** One job's ledger entry (job ids are small and dense). */
    struct Entry
    {
        Reservation r;
        Where where = Where::None;
        /** Index in `residents` while Resident. */
        std::size_t slot = 0;
        /** evictionsToFit() scratch mark, clear between calls. */
        mutable bool victim = false;
    };

    /** Transient arena the admitted set needs: max, or sum when
     *  packed overlap keeps several iterations in flight at once.
     *  Cached; recomputed only after a reservation leaves. */
    Bytes transientArena() const;
    /** Arena of two disjoint sets: sum or max, as above. */
    Bytes combineArena(Bytes a, Bytes b) const
    {
        return overlapTransients ? a + b : std::max(a, b);
    }
    /** @p id's entry, asserted to be in state @p w. */
    Entry &entryIn(JobId id, Where w, const char *what);
    const Entry &entryIn(JobId id, Where w, const char *what) const;
    /** Move @p id's entry (holding @p r) onto the resident set. */
    void addResident(JobId id, const Reservation &r);
    /** Take @p id off the resident set, into state @p to. */
    void dropResident(JobId id, Where to);
    /** The one rounding rule: each component scaled by
     *  safety * @p scale and rounded up. */
    Reservation scaled(const FootprintEstimate &est, double scale) const;

    bool fits(const Reservation &r) const;

    Bytes cap;
    double safety;
    bool overlapTransients;
    Bytes persistentSum = 0;
    mutable Bytes arena = 0;
    mutable bool arenaStale = false;
    /** Ledger entries by job id, grown on demand. */
    std::vector<Entry> entries;
    /** Resident job ids (unordered; entries hold their slots). */
    std::vector<JobId> residents;
    int evicted = 0;
};

} // namespace vdnn::serve

#endif // VDNN_SERVE_ADMISSION_HH
