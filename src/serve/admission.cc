#include "serve/admission.hh"

#include "common/logging.hh"
#include "dnn/conv_algo.hh"
#include "net/network_stats.hh"

#include <algorithm>
#include <cmath>

namespace vdnn::serve
{

namespace
{

/** Distinct buffers a layer touches as inputs (concat joins repeat). */
std::vector<net::BufferId>
inputBuffers(const net::Network &net, net::LayerId id)
{
    std::vector<net::BufferId> out;
    for (net::LayerId in_id : net.node(id).inputs) {
        net::BufferId b = net.producedBuffer(in_id);
        if (std::find(out.begin(), out.end(), b) == out.end())
            out.push_back(b);
    }
    return out;
}

} // namespace

FootprintEstimate
estimateFootprint(const net::Network &net, const dnn::CudnnSim &cudnn,
                  const core::MemoryPlan &plan)
{
    VDNN_ASSERT(net.finalized(), "network must be finalized");
    VDNN_ASSERT(plan.buffers.size() == net.numBuffers() &&
                    plan.algos.size() == net.numLayers(),
                "plan does not match the network");

    net::NetworkStats stats(net, cudnn);

    FootprintEstimate est;

    // Persistent state: the regions Executor::setup() allocates.
    est.persistent = core::persistentFootprint(net, plan, stats).total();
    if (plan.staticAllocation)
        return est; // Baseline holds everything between iterations

    // Managed buffers the plan does *not* offload stay resident from
    // their forward definition to their last backward use; they are
    // part of every layer's instantaneous residency.
    Bytes resident = 0;
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        const net::Buffer &buf = net.buffer(b);
        if (!buf.classifier && !plan.offloads(b) &&
            !buf.bwdUsers.empty()) {
            resident += buf.bytes();
        }
    }

    // Largest instantaneous working set over the managed layers. The
    // forward set holds X, Y and workspace; the backward set holds the
    // gradients dY/dX plus whichever of X/Y the layer's backward
    // kernels read. Overlapped prefetches need no reservation: they
    // are opportunistic (skipped or evicted whenever a mandatory
    // allocation needs the space).
    Bytes max_working = 0;
    for (net::LayerId id : net.topoOrder()) {
        const net::LayerNode &n = net.node(id);
        if (n.classifier)
            continue;
        Bytes ws = n.spec.kind == dnn::LayerKind::Conv
                       ? dnn::convWorkspaceBytes(
                             plan.algos[std::size_t(id)], n.spec)
                       : 0;
        std::vector<net::BufferId> ins = inputBuffers(net, id);
        Bytes x_bytes = 0;
        for (net::BufferId b : ins)
            x_bytes += net.buffer(b).bytes();
        Bytes y_bytes =
            n.spec.inPlace() ? 0 : net.buffer(n.yBuffer).bytes();

        Bytes fwd = ws + x_bytes + y_bytes;

        Bytes bwd = ws;
        bwd += net.buffer(n.yBuffer).bytes(); // dY
        for (net::BufferId b : ins) {
            if (b != net.inputBuffer())
                bwd += net.buffer(b).bytes(); // dX
        }
        if (n.spec.backwardNeedsX())
            bwd += x_bytes;
        if (n.spec.backwardNeedsY() && !n.spec.inPlace())
            bwd += net.buffer(n.yBuffer).bytes();

        max_working = std::max({max_working, fwd, bwd});
    }

    est.transient = resident + max_working;
    return est;
}

FootprintEstimate
estimatePlannerFootprint(const net::Network &net,
                         const dnn::CudnnSim &cudnn,
                         core::Planner &planner,
                         const core::PlannerContext &ctx)
{
    return estimateFootprint(net, cudnn,
                             planner.admissionPlan(net, ctx));
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
    return Bytes(std::ceil(double(est.total()) * safety * scale));
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
AdmissionController::updateReservation(JobId id,
                                       const FootprintEstimate &measured,
                                       double scale)
{
    Reservation &r = entryIn(id, Where::Resident, "profile update").r;
    Reservation m = scaled(measured, scale);
    Bytes before = r.persistent + r.transient;
    Bytes new_persistent = std::min(r.persistent, m.persistent);
    persistentSum += new_persistent - r.persistent;
    r.persistent = new_persistent;
    r.transient = std::min(r.transient, m.transient);
    arenaStale = true;
    return before - (r.persistent + r.transient);
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
