#include "serve/admission.hh"

#include "common/logging.hh"
#include "core/program_cache.hh"

#include <algorithm>
#include <cmath>

namespace vdnn::serve
{

FootprintEstimate
estimateFootprint(const net::Network &net, const core::MemoryPlan &plan,
                  core::ProgramCache *programs)
{
    VDNN_ASSERT(net.finalized(), "network must be finalized");
    VDNN_ASSERT(plan.buffers.size() == net.numBuffers() &&
                    plan.algos.size() == net.numLayers(),
                "plan does not match the network");

    // Prefetches are opportunistic (skipped or evicted whenever a
    // mandatory allocation needs the space), so the working set to
    // reserve is the program's peak with prefetching off.
    core::ExecutorConfig cfg;
    cfg.prefetchEnabled = false;
    auto entry = core::compiledPlan(programs, net, plan, cfg);
    const check::CheckResult &r = entry->verdict();
    VDNN_ASSERT(r.ok(), "admission plan fails verification:\n%s",
                r.report().c_str());
    return {entry->footprint().total(), r.peakTransientBytes};
}

AdmissionController::AdmissionController(Bytes capacity, double safety_,
                                         bool overlap_transients)
    : cap(capacity), safety(safety_), overlapTransients(overlap_transients)
{
    VDNN_ASSERT(capacity > 0, "admission capacity must be positive");
    VDNN_ASSERT(safety_ >= 1.0, "safety factor must be >= 1");
}

AdmissionController::Entry &
AdmissionController::entryIn(JobId id, Where w, const char *what)
{
    VDNN_ASSERT(id >= 0, "negative job id %d", id);
    if (std::size_t(id) >= entries.size())
        entries.resize(std::size_t(id) + 1);
    Entry &e = entries[std::size_t(id)];
    VDNN_ASSERT(e.where == w, "%s: job %d in the wrong ledger state",
                what, id);
    return e;
}

const AdmissionController::Entry &
AdmissionController::entryIn(JobId id, Where w, const char *what) const
{
    VDNN_ASSERT(id >= 0 && std::size_t(id) < entries.size() &&
                    entries[std::size_t(id)].where == w,
                "%s: job %d in the wrong ledger state", what, id);
    return entries[std::size_t(id)];
}

void
AdmissionController::addResident(JobId id, const Reservation &r)
{
    Entry &e = entries[std::size_t(id)];
    e.r = r;
    e.where = Where::Resident;
    e.slot = residents.size();
    residents.push_back(id);
    persistentSum += r.persistent;
    if (!arenaStale)
        arena = combineArena(arena, r.transient);
}

void
AdmissionController::dropResident(JobId id, Where to)
{
    Entry &e = entries[std::size_t(id)];
    persistentSum -= e.r.persistent;
    // Swap-remove: the resident set is unordered.
    JobId moved = residents.back();
    residents[e.slot] = moved;
    entries[std::size_t(moved)].slot = e.slot;
    residents.pop_back();
    e.where = to;
    arenaStale = true;
}

Bytes
AdmissionController::transientArena() const
{
    if (arenaStale) {
        arena = 0;
        for (JobId id : residents)
            arena = combineArena(arena, entries[std::size_t(id)].r.transient);
        arenaStale = false;
    }
    return arena;
}

AdmissionController::Reservation
AdmissionController::scaled(const FootprintEstimate &est,
                            double scale) const
{
    double s = safety * scale;
    Reservation r;
    r.persistent = Bytes(std::ceil(double(est.persistent) * s));
    r.transient = Bytes(std::ceil(double(est.transient) * s));
    return r;
}

Bytes
AdmissionController::reservationFor(const FootprintEstimate &est,
                                    double scale) const
{
    Reservation r = scaled(est, scale);
    return r.persistent + r.transient;
}

bool
AdmissionController::fits(const Reservation &r) const
{
    return persistentSum + r.persistent +
               combineArena(transientArena(), r.transient) <=
           cap;
}

bool
AdmissionController::canAdmit(const FootprintEstimate &est,
                              double scale) const
{
    return fits(scaled(est, scale));
}

bool
AdmissionController::feasible(const FootprintEstimate &est,
                              double scale) const
{
    // Alone on the device the arena is this job's own transient, in
    // both packings.
    return reservationFor(est, scale) <= cap;
}

void
AdmissionController::admit(JobId id, const FootprintEstimate &est,
                           double scale)
{
    entryIn(id, Where::None, "admit");
    addResident(id, scaled(est, scale));
}

void
AdmissionController::release(JobId id)
{
    VDNN_ASSERT(id >= 0 && std::size_t(id) < entries.size() &&
                    entries[std::size_t(id)].where != Where::None,
                "releasing unadmitted job %d", id);
    Entry &e = entries[std::size_t(id)];
    if (e.where == Where::Resident) {
        dropResident(id, Where::None);
    } else {
        e.where = Where::None;
        --evicted;
    }
}

void
AdmissionController::evict(JobId id)
{
    entryIn(id, Where::Resident, "evict");
    dropResident(id, Where::Evicted);
    ++evicted;
}

bool
AdmissionController::canReadmit(JobId id) const
{
    return fits(entryIn(id, Where::Evicted, "readmit query").r);
}

void
AdmissionController::readmit(JobId id)
{
    Entry &e = entryIn(id, Where::Evicted, "readmit");
    --evicted;
    addResident(id, e.r);
}

Bytes
AdmissionController::reservedFor(JobId id) const
{
    const Reservation &r = entryIn(id, Where::Resident, "reservedFor").r;
    return r.persistent + r.transient;
}

int
AdmissionController::evictionsToFit(const FootprintEstimate &est,
                                    double scale,
                                    const std::vector<JobId> &victims) const
{
    const Reservation need = scaled(est, scale);
    // Start from every victim gone: the arena of the residents that
    // stay, and the persistent bytes they hold.
    Bytes persistent = persistentSum;
    for (JobId v : victims) {
        const Entry &e = entryIn(v, Where::Resident, "make-room victim");
        e.victim = true;
        persistent -= e.r.persistent;
    }
    Bytes arena_left = 0;
    for (JobId id : residents) {
        const Entry &e = entries[std::size_t(id)];
        if (!e.victim)
            arena_left = combineArena(arena_left, e.r.transient);
    }
    for (JobId v : victims)
        entries[std::size_t(v)].victim = false;
    // Fitting is monotone in the number evicted: walk victims back in,
    // last first, while the job still fits.
    int fewest = -1;
    for (std::size_t n = victims.size();; --n) {
        if (persistent + need.persistent +
                combineArena(arena_left, need.transient) >
            cap) {
            break;
        }
        fewest = int(n);
        if (n == 0)
            break;
        const Reservation &r = entries[std::size_t(victims[n - 1])].r;
        persistent += r.persistent;
        arena_left = combineArena(arena_left, r.transient);
    }
    return fewest;
}

Bytes
AdmissionController::reservedBytes() const
{
    return persistentSum + transientArena();
}

} // namespace vdnn::serve
