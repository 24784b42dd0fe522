#include "serve/scheduler.hh"

#include "check/lifecycle_table.hh"
#include "common/logging.hh"
#include "common/units.hh"

#include <algorithm>
#include <iterator>
#include <limits>

namespace vdnn::serve
{

/** Which resident runs next, and in which order the queue admits. */
enum class Ordering : std::uint8_t
{
    RoundRobin,        ///< arrival order
    ShortestRemaining, ///< fewest remaining iterations first
    Priority,          ///< effective priority; preempts and grows back
};

/** How tenants share a device. */
enum class Packing : std::uint8_t
{
    Exclusive,    ///< one resident; a blocked queue head blocks the rest
    OneIteration, ///< one iteration in flight per device; backfill
    OpPacked,     ///< every resident steps; transients reserved summed
};

struct PolicyPreset
{
    SchedPolicy policy;
    const char *name;
    Ordering ordering;
    Packing packing;
};

namespace
{

/** Reservation growth per OOM requeue of a job. */
constexpr double kOomBackoffScale = 1.25;
/** OOM requeues before a job is marked Failed. */
constexpr int kMaxOomRequeues = 3;

/** The five presets, in SchedPolicy order: the only place a
 *  SchedPolicy value is read. */
constexpr PolicyPreset kPresets[] = {
    {SchedPolicy::FifoExclusive, "fifo-exclusive", Ordering::RoundRobin,
     Packing::Exclusive},
    {SchedPolicy::RoundRobin, "round-robin", Ordering::RoundRobin,
     Packing::OneIteration},
    {SchedPolicy::ShortestRemaining, "shortest-remaining",
     Ordering::ShortestRemaining, Packing::OneIteration},
    {SchedPolicy::PackedOverlap, "packed-overlap", Ordering::RoundRobin,
     Packing::OpPacked},
    {SchedPolicy::PreemptivePriority, "preemptive-priority",
     Ordering::Priority, Packing::OneIteration},
};

const PolicyPreset &
presetFor(SchedPolicy p)
{
    auto row = std::size_t(p);
    VDNN_ASSERT(row < std::size(kPresets) && kPresets[row].policy == p,
                "unknown scheduling policy %d", int(p));
    return kPresets[row];
}

} // namespace

const char *
schedPolicyName(SchedPolicy p)
{
    return presetFor(p).name;
}

Scheduler::DeviceCtx::DeviceCtx(int id_, gpu::Cluster &cluster_,
                                const SchedulerConfig &cfg_,
                                bool overlap_transients,
                                core::ProgramCache *programs_)
    : id(id_), dev(&cluster_.device(id_)), pool(&cluster_.pool(id_)),
      host(&cluster_.host(id_)), programs(programs_),
      admission(pool->capacity(), cfg_.admissionSafety,
                overlap_transients),
      track(cluster_.clock().timeSource(), cfg_.keepTimeline)
{
    pool->setTracker(&track);
    record.device = id;
    record.gpuName = dev->spec().name;
    record.poolCapacity = pool->capacity();
}

Scheduler::Scheduler(SchedulerConfig config)
    : cfg(std::move(config)), preset(presetFor(cfg.policy)),
      cluster(gpu::ClusterSpec{cfg.devices}), inflight(cfg.keepTimeline)
{
    for (int d = 0; d < cluster.deviceCount(); ++d) {
        // Op-packed keeps several tenants' iterations in flight at
        // once, so their transient working sets are reserved together.
        devs.push_back(std::make_unique<DeviceCtx>(
            d, cluster, cfg, preset.packing == Packing::OpPacked,
            &programs));
        // Identical devices yield identical estimates: share the cache
        // entry of the first same-spec device so a homogeneous cluster
        // derives each job's admission plan once, not once per device.
        DeviceCtx &ctx = *devs.back();
        ctx.estimateSlot = d;
        for (int k = 0; k < d; ++k) {
            if (devs[std::size_t(k)]->dev->spec() == ctx.dev->spec()) {
                ctx.estimateSlot = k;
                break;
            }
        }
    }
    cluster.setTelemetry(cfg.telemetry);
    if (obs::MetricsRegistry *m = cfg.telemetry.metrics) {
        ctrAdmissions = &m->counter("sched.admissions");
        ctrPreemptions = &m->counter("sched.preemptions");
        ctrMigrations = &m->counter("sched.migrations");
        jctAcc = &m->accumulator("sched.jct_ms");
        preemptLatAcc = &m->accumulator("sched.preemption_latency_ms");
        iterHist = &m->histogram("sched.iteration_ms", 0.0, 2000.0, 100);
    }
    if (!cfg.placement)
        cfg.placement = std::make_shared<BestFitPlacement>();
    VDNN_ASSERT(cfg.rebalancePeriod >= 0, "negative rebalance period");
    VDNN_ASSERT(cfg.rebalanceThreshold >= 1,
                "rebalance threshold must be >= 1");
    wake.resize(deviceCount());
    cluster.setWakeHook(&Scheduler::deviceWakeTrampoline, this);
    inflight.record(cluster.now(), 0.0);
}

void
Scheduler::deviceWakeTrampoline(void *self, int device, int client)
{
    static_cast<Scheduler *>(self)->onDeviceWake(device, client);
}

void
Scheduler::onDeviceWake(int device, int client)
{
    // Every executed completion event lands here: the owning device
    // may have an unblocked tenant (or a drained stream an admission
    // teardown was waiting on), so the next turn must offer it a step.
    wake.add(device);
    ++statWakeups;
    // The completion landed on `client`'s stream, and an iteration
    // blocks only on its tenant's own streams: this is the one tenant
    // whose blocked iteration could have been released, so it alone
    // rejoins the ready list — if it is resident.
    if (client < 0 || std::size_t(client) >= jobs.size())
        return;
    Job &job = *jobs[std::size_t(client)];
    if (job.record.state == JobState::Running ||
        job.record.state == JobState::Suspended)
        markReady(job);
}

JobId
Scheduler::submit(JobSpec spec)
{
    VDNN_ASSERT(!ran, "submit() after run()");
    VDNN_ASSERT(spec.network && spec.network->finalized(),
                "job needs a finalized network");
    VDNN_ASSERT(spec.iterations >= 1,
                "job needs at least one iteration");
    VDNN_ASSERT(spec.arrival >= 0, "negative arrival time");
    VDNN_ASSERT(spec.agingRatePerSec >= 0.0, "negative aging rate");
    auto job = std::make_unique<Job>();
    job->id = JobId(jobs.size());
    job->spec = std::move(spec);
    // Default planner, resolved once here so admission and session
    // setup agree on the plan source.
    if (!job->spec.planner) {
        job->spec.planner = std::make_shared<core::OffloadAllPlanner>(
            core::AlgoPreference::MemoryOptimal);
    }
    JobOutcome &rec = job->record;
    rec.id = job->id;
    // The name moves to the record, its one home.
    rec.name.swap(job->spec.name);
    if (rec.name.empty())
        rec.name = strFormat("job%d", job->id);
    rec.priority = job->spec.priority;
    rec.arrival = job->spec.arrival;
    rec.sloJct = job->spec.sloJct;
    jobs.push_back(std::move(job));
    estimateOf.resize(jobs.size() * devs.size());
    ++numPending;
    if (nextPendingArrival == kTimeNone ||
        jobs.back()->spec.arrival < nextPendingArrival) {
        nextPendingArrival = jobs.back()->spec.arrival;
    }
    return jobs.back()->id;
}

void
Scheduler::collectArrivals()
{
    // Nothing can arrive before the cached earliest pending arrival,
    // so the per-event serve loop skips the job scan entirely.
    if (numPending == 0 || cluster.now() < nextPendingArrival)
        return;
    std::vector<JobId> arrived;
    TimeNs next = kTimeNone;
    for (const auto &job : jobs) {
        if (job->record.state != JobState::Pending)
            continue;
        if (job->spec.arrival <= cluster.now()) {
            arrived.push_back(job->id);
        } else if (next == kTimeNone || job->spec.arrival < next) {
            next = job->spec.arrival;
        }
    }
    numPending -= int(arrived.size());
    nextPendingArrival = next;
    // New queue entries: the admission rescan has fresh work.
    if (!arrived.empty())
        admissionDirty = true;
    // Arrival order; the scan collected ties in id order.
    std::stable_sort(arrived.begin(), arrived.end(),
                     [this](JobId a, JobId b) {
                         return jobs[std::size_t(a)]->spec.arrival <
                                jobs[std::size_t(b)]->spec.arrival;
                     });
    for (JobId id : arrived) {
        Job &job = *jobs[std::size_t(id)];
        transition(job, LifecycleKind::Arrive, -1, reservedBytesTotal());
        // Aging clock: the wait began at arrival, not collection.
        job.waitingSince = job.spec.arrival;
        queue.push(id);
    }
}

void
Scheduler::transition(Job &job, LifecycleKind kind, int device,
                      Bytes reserved_before)
{
    TimeNs now = cluster.now();
    Bytes reserved_after = reservedBytesTotal();
    const check::TransitionRow &row = check::checkTransition(
        job.id, kind, job.record.state, reserved_after - reserved_before,
        [this] { return stateDump(); });
    if (job.waitingSince != kTimeNone) {
        job.agedWait += now - job.waitingSince;
        job.waitingSince = kTimeNone;
    }
    if (row.to == JobState::Queued || row.to == JobState::Evicted ||
        row.to == JobState::Migrating)
        job.waitingSince = now;
    if (jobStateTerminal(row.to)) {
        job.record.finishTime = now;
        ++numTerminal;
    }
    job.record.state = row.to;
    if (!check::kindLogged(kind))
        return;
    lifecycleLog.push_back(
        {now, job.id, row.name, device, reserved_before, reserved_after});
    if (cfg.telemetry.tracing()) {
        cfg.telemetry.trace->instant(
            device, job.id, "sched", row.name, now,
            strFormat(
                "{\"reserved_before\":%lld,\"reserved_after\":%lld}",
                (long long)reserved_before, (long long)reserved_after));
    }
}

const FootprintEstimate &
Scheduler::estimateFor(const Job &job, DeviceCtx &d)
{
    const FootprintEstimate *&ref =
        estimateOf[std::size_t(job.id) * devs.size() +
                   std::size_t(d.estimateSlot)];
    if (ref)
        return *ref;
    const net::Network &net = *job.spec.network;
    auto [it, fresh] = estimates.try_emplace(
        {&net, job.spec.planner.get(), d.estimateSlot});
    if (fresh) {
        // Budget for the planner's most conservative plan, derived
        // against the whole device (the reservation must hold however
        // crowded the pool is when the job finally runs).
        it->second = estimateFootprint(
            net,
            job.spec.planner->admissionPlan(
                net, core::PlannerContext::exclusive(d.dev->spec())),
            &programs);
    }
    ref = &it->second;
    return *ref;
}

double
Scheduler::effectivePriority(const Job &job, TimeNs now) const
{
    double p = double(job.spec.priority);
    if (job.spec.agingRatePerSec > 0.0) {
        TimeNs waited = job.agedWait;
        if (job.waitingSince != kTimeNone && now > job.waitingSince)
            waited += now - job.waitingSince;
        p += job.spec.agingRatePerSec * toSeconds(waited);
    }
    return p;
}

Bytes
Scheduler::reservedBytesTotal() const
{
    Bytes total = 0;
    for (const auto &d : devs)
        total += d->admission.reservedBytes();
    return total;
}

bool
Scheduler::tryAdmit(Job &job, const FootprintEstimate &est, DeviceCtx &d)
{
    core::SessionConfig scfg;
    scfg.planner = job.spec.planner;
    scfg.gpu = d.dev->spec();
    scfg.exec = job.spec.exec;
    job.session = std::make_unique<core::Session>(*job.spec.network,
                                                  scfg, d.share(job.id));
    if (!job.session->setup()) {
        // The ledger said fit; the allocator disagreed (pool
        // fragmentation or co-tenants' prefetches above their
        // reservations).
        job.record.failReason = job.session->failReason();
        job.session.reset();
        return false;
    }
    Bytes before = reservedBytesTotal();
    d.admission.admit(job.id, est, job.reserveScale);
    if (job.record.admitTime == kTimeNone)
        job.record.admitTime = cluster.now();
    job.record.persistentBytes =
        std::max(job.record.persistentBytes,
                 job.session->persistentBytes());
    job.record.device = d.id;
    if (job.record.placements.empty() ||
        job.record.placements.back() != d.id) {
        job.record.placements.push_back(d.id);
    }
    ++d.record.jobsPlaced;
    enterRunning(job, d);
    transition(job, LifecycleKind::Admit, d.id, before);
    if (ctrAdmissions)
        ctrAdmissions->add();
    if (cfg.telemetry.tracing()) {
        cfg.telemetry.trace->setThreadName(d.id, job.id, job.record.name);
        if (pendingPreemptFlow) {
            // Close the preemption arrow at its beneficiary: this
            // admission is what the eviction paid for.
            cfg.telemetry.trace->flowEnd(pendingPreemptFlow, d.id,
                                         job.id, "sched", "preempt",
                                         cluster.now());
            pendingPreemptFlow = 0;
        }
    }
    return true;
}

bool
Scheduler::backoffAfterSetupOom(Job &job, std::size_t queue_index)
{
    // Setup OOM despite a fitting reservation: grow the reservation
    // and retry later, give up after a few attempts. Setup success
    // depends on the pool's instantaneous free-block structure, which
    // co-tenant iterations churn between turns — so the retry must
    // run every turn, exactly as the polling loop did: keep the
    // admission rescan dirty until the job admits or goes terminal.
    admissionDirty = true;
    std::string give_up = stepOomBackoff(job, "setup OOM");
    if (!give_up.empty()) {
        queue.take(queue_index);
        job.record.failReason =
            "admission gave up after " + give_up + ": " +
            job.record.failReason;
        // Queued jobs hold no reservation: the ledger does not move.
        transition(job, LifecycleKind::Fail, job.record.device,
                   reservedBytesTotal());
        return true; // taken from the queue, now terminal
    }
    return false;
}

std::string
Scheduler::stepOomBackoff(Job &job, const char *oom)
{
    ++job.record.oomRequeues;
    job.reserveScale *= kOomBackoffScale;
    if (job.record.oomRequeues > kMaxOomRequeues)
        return std::string("repeated ") + oom;
    // An inflated reservation no device can hold would only be
    // rejected from the queue, without the lifecycle event a job the
    // ledger already saw needs: give up here instead.
    for (auto &d : devs) {
        if (d->admission.feasible(estimateFor(job, *d), job.reserveScale))
            return "";
    }
    return std::string(oom) + " (the inflated reservation fits no device)";
}

void
Scheduler::enterRunning(Job &job, DeviceCtx &d)
{
    d.running.push_back(job.id);
    // The only way a Running resident can come to outrank the
    // top-ranked in-flight tenant: topChallengerOn must rescan.
    d.unchallenged = -1;
    job.runSeq = d.nextSeq++;
    markReady(job); // its next iteration can begin
    ++residentJobs;
    wake.add(d.id);
    recordInflight();
}

bool
Scheduler::exclusivelyHeld(const DeviceCtx &d) const
{
    return preset.packing == Packing::Exclusive && !d.running.empty();
}

void
Scheduler::removeFromRunning(JobId id)
{
    Job &job = *jobs[std::size_t(id)];
    VDNN_ASSERT(job.record.device >= 0, "job %d has no device", id);
    DeviceCtx &d = *devs[std::size_t(job.record.device)];
    auto it = std::find(d.running.begin(), d.running.end(), id);
    VDNN_ASSERT(it != d.running.end(), "job %d not running", id);
    std::size_t idx = std::size_t(it - d.running.begin());
    d.running.erase(it);
    leaveReady(job);
    --residentJobs;
    if (idx < d.rrCursor)
        --d.rrCursor;
    if (d.inFlight == id)
        d.inFlight = -1;
    recordInflight();
}

void
Scheduler::markReady(Job &job)
{
    if (job.ready)
        return;
    job.ready = true;
    auto &ready = devs[std::size_t(job.record.device)]->ready;
    ready.insert(std::lower_bound(ready.begin(), ready.end(), job.runSeq),
                 {job.runSeq, job.id});
}

void
Scheduler::leaveReady(Job &job)
{
    if (!job.ready)
        return;
    job.ready = false;
    auto &ready = devs[std::size_t(job.record.device)]->ready;
    auto it = std::lower_bound(ready.begin(), ready.end(), job.runSeq);
    VDNN_ASSERT(it != ready.end() && it->id == job.id,
                "job %d missing from the ready list", job.id);
    ready.erase(it);
}

void
Scheduler::finishJob(Job &job, LifecycleKind kind, const std::string &why)
{
    DeviceCtx &d = *devs[std::size_t(job.record.device)];
    Bytes before = reservedBytesTotal();
    job.record.peakPoolBytes = std::max(
        job.record.peakPoolBytes, d.pool->peakByClient(job.id));
    job.record.offloadedBytes = job.offloadedBytesPrior +
                                job.session->memory().offloadedBytes();
    job.session->teardown();
    job.session.reset();
    d.admission.release(job.id);
    // Freed reservation and a shrunk running set: queued jobs that
    // did not fit may now, so the admission rescan must run again.
    admissionDirty = true;

    if (job.record.state == JobState::Evicted) {
        auto ev = std::find(evictedJobs.begin(), evictedJobs.end(),
                            job.id);
        VDNN_ASSERT(ev != evictedJobs.end(), "job %d not evicted",
                    job.id);
        evictedJobs.erase(ev);
    } else {
        removeFromRunning(job.id);
    }

    transition(job, kind, d.id, before);
    job.record.failReason = why;
    if (kind == LifecycleKind::Finish && jctAcc)
        jctAcc->add(double(job.record.finishTime - job.spec.arrival) / 1e6);

    // Freed capacity: evicted tenants may fit again, and survivors
    // whose planner supports it may grow their plans back.
    resumePending = true;
    if (preset.ordering == Ordering::Priority) {
        for (JobId id : d.running)
            jobs[std::size_t(id)]->replanRequested = true;
    }
}

void
Scheduler::evictForRequeue(Job &job)
{
    std::string give_up = stepOomBackoff(job, "iteration OOM");
    std::string why = job.session->failReason();
    if (!give_up.empty()) {
        finishJob(job, LifecycleKind::Fail,
                  "gave up after " + give_up + ": " + why);
        return;
    }
    finishJob(job, LifecycleKind::Requeue, why);
    // Head of the queue: the job keeps its arrival-order priority.
    queue.pushFront(job.id);
}

// --- lifecycle state machine (priority ordering) -----------------------------

Job *
Scheduler::topChallengerOn(DeviceCtx &d, const Job &inflight)
{
    // Strictly higher effective priority only: at equal priority the
    // in-flight tenant keeps the device (no same-level thrash), and
    // parked (Suspended) residents cannot challenge — they wait until
    // they are top again. Resident priorities do not age, so a tenant
    // found unchallenged stays so until another tenant enters.
    if (d.unchallenged == inflight.id)
        return nullptr;
    TimeNs now = cluster.now();
    double bar = effectivePriority(inflight, now);
    Job *top = nullptr;
    double top_eff = bar;
    for (JobId id : d.running) {
        Job *j = jobs[std::size_t(id)].get();
        if (j->id == inflight.id ||
            j->record.state != JobState::Running)
            continue;
        double eff = effectivePriority(*j, now);
        if (eff > top_eff) {
            top = j;
            top_eff = eff;
        }
    }
    if (!top)
        d.unchallenged = inflight.id;
    return top;
}

void
Scheduler::parkInFlight(DeviceCtx &d, Job &victim, Job &challenger)
{
    // Salus-style fast switch: the victim's iteration freezes at its
    // current op boundary and every byte it holds stays resident, so
    // the reservation ledger does not move and no staging DMA is
    // issued. The beneficiary samples preemption latency at its first
    // dispatch (stepTenant keys on victimsPreempted).
    // record.preemptions is *not* bumped: the auditor equates that
    // count with evict events, and nothing was evicted.
    transition(victim, LifecycleKind::Suspend, d.id, reservedBytesTotal());
    d.inFlight = -1;
    ++challenger.record.victimsPreempted;
    if (ctrPreemptions)
        ctrPreemptions->add();
}

void
Scheduler::preempt(Job &victim)
{
    DeviceCtx &d = *devs[std::size_t(victim.record.device)];
    Bytes before = reservedBytesTotal();
    // An op-granularity dispatch preemption may already have parked
    // this victim resident (Suspended); eviction then just skips the
    // suspend step and stages the frozen state out.
    if (victim.record.state == JobState::Running)
        transition(victim, LifecycleKind::Suspend, d.id, before);
    VDNN_ASSERT(victim.session->evictToHost(),
                "job %d: pinned host refused the staging makeRoomFor's "
                "dry run sized",
                victim.id);
    d.admission.evict(victim.id);
    removeFromRunning(victim.id);
    admissionDirty = true;
    evictedJobs.push_back(victim.id);
    ++victim.record.preemptions;
    transition(victim, LifecycleKind::Evict, d.id, before);
    if (ctrPreemptions)
        ctrPreemptions->add();
    if (cfg.telemetry.tracing()) {
        pendingPreemptFlow = cfg.telemetry.trace->flowStart(
            d.id, victim.id, "sched", "preempt", cluster.now());
    }
    // Schedule a resume sweep: if the beneficiary then fails
    // admission (setup OOM), the freed capacity must not strand the
    // victim until an unrelated job finishes.
    resumePending = true;
}

int
Scheduler::makeRoomFor(Job &job, double bar)
{
    TimeNs now = cluster.now();
    DeviceCtx *best = nullptr;
    Bytes best_bytes = 0;
    double best_top = 0.0;
    for (auto &dp : devs) {
        DeviceCtx &d = *dp;
        const FootprintEstimate &est = jobEst[std::size_t(d.id)];
        if (!d.admission.feasible(est, job.reserveScale))
            continue;
        candidates.clear();
        for (JobId id : d.running) {
            Job *v = jobs[std::size_t(id)].get();
            double eff = effectivePriority(*v, now);
            // Iteration granularity parks victims only at iteration
            // boundaries; at op granularity an iteration in flight is
            // parked at its current Sync/Barrier boundary and unwound
            // by evictToHost().
            if (eff >= bar ||
                (cfg.preemptGranularity == PreemptGranularity::Iteration &&
                 v->session->iterationInFlight())) {
                continue;
            }
            candidates.push_back({eff, v});
        }
        if (candidates.empty())
            continue;
        // Eviction order: lowest effective priority first (an aged-in
        // tenant keeps the boost it earned, so it is not the default
        // victim); the latest-arrived tenant of a level first (LIFO),
        // so incumbents are disturbed least; ties keep running-set
        // order.
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const Candidate &a, const Candidate &b) {
                             if (a.eff != b.eff)
                                 return a.eff < b.eff;
                             return a.job->spec.arrival >
                                    b.job->spec.arrival;
                         });
        victims.clear();
        for (const Candidate &c : candidates)
            victims.push_back(c.job->id);
        // Dry run on the ledger: size the whole victim set before
        // anyone is evicted, so an insufficient set costs nothing.
        int need = d.admission.evictionsToFit(est, job.reserveScale,
                                              victims);
        if (need < 0)
            continue;
        victims.resize(std::size_t(need));
        // ... and on the pinned-host share, where each eviction stages
        // the victim's persistent state (Session::evictToHost).
        // Conservative: it does not credit the host copies an earlier
        // victim's cancelled iteration frees.
        Bytes bytes = 0;
        Bytes staged = 0;
        for (JobId v : victims) {
            bytes += d.admission.reservedFor(v);
            staged += jobs[std::size_t(v)]->session->persistentBytes();
        }
        if (!d.hostCanStage(staged))
            continue;
        // Victims are in ascending priority: the last is the highest.
        double top = need > 0 ? candidates[std::size_t(need - 1)].eff
                              : -std::numeric_limits<double>::infinity();
        if (!best || bytes < best_bytes ||
            (bytes == best_bytes && top < best_top)) {
            best = &d;
            best_bytes = bytes;
            best_top = top;
            chosenVictims.swap(victims);
        }
    }
    if (!best)
        return -1;
    for (JobId v : chosenVictims) {
        preempt(*jobs[std::size_t(v)]);
        ++job.record.victimsPreempted;
    }
    return best->id;
}

void
Scheduler::resumeEvictedSweep()
{
    // Under priority ordering: best *effective* priority first
    // (evicted tenants keep aging, so a long-parked job climbs this
    // order too), then earliest arrival. Otherwise earliest arrival —
    // either way, the order admission would have picked them in. Each
    // tenant resumes on the device it is homed on (post-migration).
    TimeNs now = cluster.now();
    std::vector<JobId> order = evictedJobs;
    std::sort(order.begin(), order.end(),
              [this, now](JobId a, JobId b) {
        const Job &ja = *jobs[std::size_t(a)];
        const Job &jb = *jobs[std::size_t(b)];
        if (preset.ordering == Ordering::Priority) {
            double ea = effectivePriority(ja, now);
            double eb = effectivePriority(jb, now);
            if (ea != eb)
                return ea > eb;
        }
        if (ja.spec.arrival != jb.spec.arrival)
            return ja.spec.arrival < jb.spec.arrival;
        return a < b;
    });
    for (JobId id : order) {
        Job &job = *jobs[std::size_t(id)];
        tryResumeOn(job, *devs[std::size_t(job.record.device)]);
    }
}

bool
Scheduler::tryResumeOn(Job &job, DeviceCtx &d)
{
    if (!d.admission.canReadmit(job.id) || exclusivelyHeld(d))
        return false;
    Bytes before = reservedBytesTotal();
    // resume() re-plans against the current free share before
    // restoring the staged state; it may fail here (fragmentation,
    // co-tenant bursts above their reservations) — the tenant
    // simply stays evicted until the next capacity event.
    if (!job.session->resume())
        return false;
    d.admission.readmit(job.id);
    auto ev =
        std::find(evictedJobs.begin(), evictedJobs.end(), job.id);
    VDNN_ASSERT(ev != evictedJobs.end(), "job %d not evicted", job.id);
    evictedJobs.erase(ev);
    enterRunning(job, d);
    admissionDirty = true;
    transition(job, LifecycleKind::Resume, d.id, before);
    return true;
}

void
Scheduler::recordInflight()
{
    inflight.record(cluster.now(), double(residentJobs));
    peakInflight = std::max(peakInflight, residentJobs);
}

void
Scheduler::chargeIteration(Job &job, const core::IterationResult &r)
{
    ++job.record.iterations;
    // Service time is derived solely from the iteration's own
    // [start, end) window, never from scheduler wall time: host
    // advances between iterations — in particular advancing the device
    // clock to the next sparse arrival while a job sits admitted with
    // no iteration in flight — must not be billed to any tenant.
    job.record.serviceTime += r.makespan();
    if (iterHist)
        iterHist->add(double(r.makespan()) / 1e6);
}

// --- admission ---------------------------------------------------------------

int
Scheduler::choosePlacement(const Job &job)
{
    loads.clear();
    bool any_fits = false;
    for (auto &d : devs) {
        bool fits = !exclusivelyHeld(*d) &&
                    d->admission.canAdmit(jobEst[std::size_t(d->id)],
                                          job.reserveScale);
        any_fits |= fits;
        loads.push_back({d->id, d->admission.capacity(),
                         d->admission.reservedBytes(),
                         int(d->running.size()), fits});
    }
    // A policy may only pick a fitting device: with none, it has no
    // choice to make (and a stateful one no call to observe).
    if (!any_fits)
        return -1;
    int pick = cfg.placement->place(loads);
    VDNN_ASSERT(pick == -1 ||
                    (pick >= 0 && pick < deviceCount() &&
                     loads[std::size_t(pick)].fits),
                "placement policy '%s' chose an unfit device %d",
                cfg.placement->name().c_str(), pick);
    return pick;
}

void
Scheduler::admitQueued()
{
    // Priority scheduling admits the most important arrivals first;
    // the queue stays FIFO within a priority level. Aging lifts a
    // long-waiting job's effective priority, so a starved arrival
    // eventually sorts ahead of younger, nominally hotter ones.
    const bool ranked = preset.ordering == Ordering::Priority;
    if (ranked) {
        TimeNs now = cluster.now();
        rankEff.resize(jobs.size());
        for (std::size_t k = 0; k < queue.size(); ++k)
            rankEff[std::size_t(queue.at(k))] =
                effectivePriority(*jobs[std::size_t(queue.at(k))], now);
        queue.stableSort([this](JobId a, JobId b) {
            return rankEff[std::size_t(a)] > rankEff[std::size_t(b)];
        });
    }
    // `refused` holds this pass's last refused demand (effective
    // priority, reserveScale, estimates) while `memo` is set; anything
    // that could change an answer clears it.
    bool memo = false;
    std::size_t i = 0;
    while (i < queue.size()) {
        Job &job = *jobs[std::size_t(queue.at(i))];
        // One estimate lookup per device serves every decision below.
        // Rejection only when no device could ever hold the (possibly
        // backoff-inflated) reservation alone: such a job would sit in
        // the queue forever.
        jobEst.clear();
        bool feasible_somewhere = false;
        Bytes largest_cap = 0;
        for (auto &d : devs) {
            jobEst.push_back(estimateFor(job, *d));
            feasible_somewhere |=
                d->admission.feasible(jobEst.back(), job.reserveScale);
            largest_cap = std::max(largest_cap, d->admission.capacity());
        }
        if (!feasible_somewhere) {
            queue.take(i);
            transition(job, LifecycleKind::Reject, -1, reservedBytesTotal());
            job.record.failReason = strFormat(
                "reservation exceeds every device's capacity "
                "(largest %s)",
                formatBytes(largest_cap).c_str());
            continue;
        }
        // The make-room bar, read at the visit: an eviction earlier in
        // the pass waited out its staging DMA, which moved the clock.
        const double eff = ranked ? effectivePriority(job, cluster.now())
                                  : 0.0;
        // Placement and make-room are functions of (bar, scale,
        // estimates) and of ledger, resident and pinned-host state that
        // no refusal moves: an equal demand is refused again.
        if (memo && refused == std::tie(eff, job.reserveScale, jobEst)) {
            ++i;
            continue;
        }
        int target = choosePlacement(job);
        // No device fits outright: under priority ordering evict
        // below-priority tenants, all or none.
        if (target < 0 && ranked) {
            target = makeRoomFor(job, eff);
            if (target < 0) {
                memo = true;
                refused = std::tie(eff, job.reserveScale, jobEst);
            }
        }
        if (target < 0) {
            // Nothing fits right now. Exclusive packing keeps strict
            // arrival order (no later job may jump a blocked head);
            // the sharing packings backfill.
            if (preset.packing == Packing::Exclusive)
                break;
            ++i;
            continue;
        }
        // An admission or a backoff follows (and make-room may have
        // evicted): the state the memo described is gone.
        memo = false;
        if (tryAdmit(job, jobEst[std::size_t(target)],
                     *devs[std::size_t(target)])) {
            queue.take(i);
            continue;
        }
        if (backoffAfterSetupOom(job, i))
            continue;
        ++i;
    }
}

// --- the engine --------------------------------------------------------------

Job *
Scheduler::pickNextOn(DeviceCtx &d)
{
    VDNN_ASSERT(!d.running.empty(), "pickNextOn() with nothing running");
    if (preset.ordering == Ordering::ShortestRemaining) {
        Job *best = nullptr;
        for (JobId id : d.running) {
            Job *j = jobs[std::size_t(id)].get();
            int rem = j->spec.iterations - j->record.iterations;
            if (!best ||
                rem < best->spec.iterations - best->record.iterations) {
                best = j;
            }
        }
        return best;
    }
    // Round-robin within the top level. The level is the effective
    // priority under priority ordering (aged-in tenants keep their
    // earned boost here too) and constant otherwise, where the walk
    // stops at the cursor: plain round-robin, O(1). rrCursor never
    // exceeds running.size(), so the wrap lands exactly where a
    // reset-to-zero would.
    const bool ranked = preset.ordering == Ordering::Priority;
    TimeNs now = cluster.now();
    double top = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; ranked && k < d.running.size(); ++k)
        top = std::max(top, effectivePriority(
                                *jobs[std::size_t(d.running[k])], now));
    for (std::size_t k = 0;; ++k) {
        VDNN_ASSERT(k < d.running.size(), "no top-level tenant");
        std::size_t idx = (d.rrCursor + k) % d.running.size();
        Job *j = jobs[std::size_t(d.running[idx])].get();
        if (!ranked || effectivePriority(*j, now) == top) {
            d.rrCursor = idx + 1;
            return j;
        }
    }
}

Job &
Scheduler::pickInFlight(DeviceCtx &d)
{
    if (d.inFlight >= 0) {
        Job &job = *jobs[std::size_t(d.inFlight)];
        // Op-granularity dispatch preemption: ledger room is not the
        // only resource a high-priority arrival needs — it needs the
        // SMs. At iteration granularity the device hands over only at
        // the in-flight tenant's boundary; at op granularity a
        // strictly higher-priority resident tenant takes the device at
        // the next op step. The in-flight tenant parks *resident*
        // (its iteration is simply offered no steps, memory and ledger
        // reservation untouched) and continues byte-identically when
        // it is next picked, so the switch costs no DMA at all.
        Job *top = nullptr;
        if (preset.ordering == Ordering::Priority &&
            cfg.preemptGranularity == PreemptGranularity::Op) {
            top = topChallengerOn(d, job);
        }
        if (!top)
            return job;
        parkInFlight(d, job, *top);
    }
    Job &job = *pickNextOn(d);
    // A parked-resident victim is top again: its frozen executor
    // continues the interrupted iteration in place.
    if (job.record.state == JobState::Suspended)
        transition(job, LifecycleKind::Resume, d.id, reservedBytesTotal());
    // Grow-back sweep (priority ordering, the only one that requests
    // it): a co-tenant exited since this tenant last ran; planners
    // that support it re-plan in place against the fresh free share
    // at this iteration boundary.
    if (job.replanRequested) {
        job.replanRequested = false;
        if (!job.session->iterationInFlight()) {
            Bytes before = reservedBytesTotal();
            if (job.session->replan()) {
                ++job.record.replans;
                transition(job, LifecycleKind::Replan, d.id, before);
            }
        }
    }
    markReady(job);
    d.inFlight = job.id;
    return job;
}

bool
Scheduler::stepTenant(Job &job)
{
    VDNN_ASSERT(job.record.state == JobState::Running,
                "job %d stepped while %s", job.id,
                jobStateName(job.record.state));
    if (!job.session->iterationInFlight()) {
        if (job.record.firstDispatchTime == kTimeNone) {
            job.record.firstDispatchTime = cluster.now();
            // Preemption latency: arrival to first kernel dispatch of
            // a job that had to preempt someone to get in, the
            // responsiveness its priority actually bought.
            if (job.record.victimsPreempted > 0 && preemptLatAcc) {
                preemptLatAcc->add(
                    double(cluster.now() - job.spec.arrival) / 1e6);
            }
        }
        job.session->beginIteration();
    }
    if (!job.ready) {
        // The in-flight tenant of a one-tenant-at-a-time device is
        // still blocked: no completion has landed on its streams since
        // it blocked, so a re-poll must block again — skip the pure
        // call.
        ++statFruitlessPolls;
        return false;
    }
    core::Executor &ex = job.session->executor();
    if (ex.step() == core::Executor::Status::Blocked) {
        leaveReady(job);
        ++statFruitlessPolls;
        return false;
    }
    if (!ex.finished())
        return true;
    devs[std::size_t(job.record.device)]->inFlight = -1;
    core::IterationResult r = job.session->completeIteration();
    if (r.ok) {
        chargeIteration(job, r);
        if (job.record.iterations >= job.spec.iterations)
            finishJob(job, LifecycleKind::Finish);
    } else {
        // In-flight OOM: only this job's iteration aborts; it is torn
        // down and requeued (it may be re-placed on another device).
        evictForRequeue(job);
    }
    // Completed-iteration boundary: effective priorities aged, so
    // priority ordering's admission decisions (sort order, make-room
    // bar) may have shifted on time alone — rescan next turn.
    if (preset.ordering == Ordering::Priority)
        admissionDirty = true;
    return true;
}

bool
Scheduler::stepDevice(DeviceCtx &d)
{
    if (d.running.empty()) {
        ++statFruitlessPolls;
        return false;
    }
    if (preset.packing != Packing::OpPacked)
        return stepTenant(pickInFlight(d));
    // Op-granularity packing: every resident tenant's Executor is a
    // resumable cursor over its compiled IterationProgram. One sweep
    // offers each ready tenant a single step, in entry order; a tenant
    // blocked on a stream join (its offload or prefetch still in
    // flight) leaves the ready list rather than stalling the host, so
    // the next tenant's compute op dispatches under the blocked
    // tenant's DMA, and it is not offered another step until its wake
    // hook fires. The list changes under the sweep: a tenant woken
    // above the cursor (a finishing iteration's teardown executes
    // events) is stepped in this sweep, one woken below it or entering
    // mid-sweep in the next — exactly the tenants a sweep over a
    // snapshot of the resident set would have found unblocked.
    bool progress = false;
    const std::uint64_t sweep_end = d.nextSeq;
    for (std::uint64_t cursor = 0;;) {
        auto it = std::lower_bound(d.ready.begin(), d.ready.end(), cursor);
        if (it == d.ready.end() || it->seq >= sweep_end)
            break;
        cursor = it->seq + 1;
        if (stepTenant(*jobs[std::size_t(it->id)]))
            progress = true;
    }
    return progress;
}

void
Scheduler::maybeRebalance()
{
    // The engine calls this only when a sweep is due; the first call
    // just starts the period.
    const bool first = nextRebalance == kTimeNone;
    nextRebalance = cluster.now() + cfg.rebalancePeriod;
    if (first || deviceCount() < 2)
        return;

    DeviceCtx *src = nullptr;
    DeviceCtx *dst = nullptr;
    for (auto &d : devs) {
        if (!src || d->running.size() > src->running.size())
            src = d.get();
        if (!dst || d->running.size() < dst->running.size())
            dst = d.get();
    }
    if (!src || !dst || src == dst)
        return;
    if (int(src->running.size()) - int(dst->running.size()) <
        cfg.rebalanceThreshold) {
        return;
    }

    // Smallest-footprint tenant not mid-iteration: cheapest state to
    // move over PCIe, and nothing to cancel.
    Job *cand = nullptr;
    for (JobId id : src->running) {
        Job *j = jobs[std::size_t(id)].get();
        if (id == src->inFlight || j->session->iterationInFlight())
            continue;
        if (!cand || j->session->persistentBytes() <
                         cand->session->persistentBytes()) {
            cand = j;
        }
    }
    if (!cand)
        return;
    // The staged state is allocated on the source's pinned-host share
    // (evictToHost), then on the target's (Session::migrate).
    Bytes staged = cand->session->persistentBytes();
    if (!dst->admission.canAdmit(estimateFor(*cand, *dst),
                                 cand->reserveScale) ||
        !src->hostCanStage(staged) || !dst->hostCanStage(staged)) {
        return;
    }
    migrateJob(*cand, *src, *dst);
}

void
Scheduler::migrateJob(Job &job, DeviceCtx &src, DeviceCtx &dst)
{
    Bytes before = reservedBytesTotal();
    VDNN_ASSERT(job.session->evictToHost(),
                "job %d: source host share refused the staging "
                "maybeRebalance's dry run sized",
                job.id);
    // Hand the reservation over: off the source ledger entirely
    // (release drops a resident reservation directly; the evicted
    // ledger is for tenants that will resume on the *same* device),
    // onto the target's. The offload traffic accrued on the source is
    // banked before migrate() rebuilds the memory manager.
    Bytes src_offloaded = job.session->memory().offloadedBytes();
    Bytes src_peak = src.pool->peakByClient(job.id);
    src.admission.release(job.id);
    removeFromRunning(job.id);
    // Both outcomes move ledger entries across devices.
    admissionDirty = true;
    ++src.record.migrationsOut;
    transition(job, LifecycleKind::MigrateOut, src.id, before);
    // The migrate-out event above already accounted the source
    // release; the migrate/migrate-stall event below must chain from
    // the ledger as it stands *now*, or its delta double-counts it.
    before = reservedBytesTotal();
    std::uint64_t flow = 0;
    if (cfg.telemetry.tracing()) {
        flow = cfg.telemetry.trace->flowStart(
            src.id, job.id, "sched", "migrate", cluster.now());
    }

    const FootprintEstimate &est = estimateFor(job, dst);
    dst.admission.admit(job.id, est, job.reserveScale);
    bool ok = job.session->migrate(dst.share(job.id));
    VDNN_ASSERT(job.session->deviceId() == dst.id,
                "job %d: target host share refused the staging "
                "maybeRebalance's dry run sized",
                job.id);
    job.offloadedBytesPrior += src_offloaded;
    job.record.peakPoolBytes = std::max(job.record.peakPoolBytes, src_peak);
    job.record.device = dst.id;
    job.record.placements.push_back(dst.id);
    ++job.record.migrations;
    ++dst.record.migrationsIn;
    ++dst.record.jobsPlaced;
    if (ok) {
        enterRunning(job, dst);
    } else {
        // The re-plan or the persistent-state rebuild failed on the
        // target: the tenant waits there Evicted, and the resume sweep
        // retries.
        dst.admission.evict(job.id);
        evictedJobs.push_back(job.id);
        resumePending = true;
    }
    transition(job, ok ? LifecycleKind::Migrate : LifecycleKind::MigrateStall,
               dst.id, before);
    if (ok && ctrMigrations)
        ctrMigrations->add();
    if (cfg.telemetry.tracing()) {
        if (ok) {
            cfg.telemetry.trace->setThreadName(dst.id, job.id,
                                               job.record.name);
        }
        if (flow) {
            cfg.telemetry.trace->flowEnd(flow, dst.id, job.id, "sched",
                                         "migrate", cluster.now());
        }
    }
}

void
Scheduler::runEngine()
{
    // The one serve loop: every policy at every device count, one
    // cadence. Each device's resident set advances through resumable
    // iterations while its siblings' kernels and DMAs run on the shared
    // clock, so N devices genuinely serve N tenants' compute
    // concurrently — and under op-packed packing every resident tenant
    // of a device may have an iteration in flight at once.
    //
    // The loop is event-driven. Each turn drains only the wake-set —
    // the devices whose state actually changed since they last made no
    // progress (a completion event executed on them, or a tenant was
    // admitted / resumed / migrated in) — and within an op-packed
    // device only the tenants on its ready list are offered a step. A
    // tenant leaves the list when its step returns Blocked and rejoins
    // it when the wake hook of a completion on its own stream puts it
    // back, so a thousand-tenant device offers about one step per
    // completion, not a thousand. The admission sweep reruns only when
    // `admissionDirty` says one of its inputs moved: an arrival, a
    // ledger or running-set change, a pending setup-OOM retry, or —
    // under priority ordering, whose admission order ages with time —
    // a completed iteration. Every skipped call is pure: a
    // non-blocking step offered to a blocked or empty tenant returns
    // without side effects, and a rescan with unchanged inputs
    // reproduces its previous (fruitless) decisions.
    //
    // Arrivals stay turn-boundary-scheduled rather than becoming real
    // clock events: collectArrivals() is O(1) until the cached
    // nextPendingArrival is due (a real arrival-time event would
    // process the queue *mid*-turn and shift admit times). The idle
    // path advances straight to that cached arrival, and rebalance
    // sweeps gate on their precomputed next-due time.
    for (auto &d : devs)
        wake.add(d->id);
    while (numTerminal < int(jobs.size())) {
        collectArrivals();
        if (admissionDirty) {
            admissionDirty = false;
            // May re-dirty itself: a setup-OOM backoff must retry
            // against the pool's next-turn state, every turn, until it
            // admits or goes terminal (the polling cadence).
            admitQueued();
        }
        if (resumePending) {
            resumePending = false;
            resumeEvictedSweep();
        }
        if (cfg.rebalancePeriod > 0 &&
            (nextRebalance == kTimeNone || cluster.now() >= nextRebalance))
            maybeRebalance();

        if (residentJobs == 0) {
            if (!evictedJobs.empty()) {
                // Preempted tenants and nothing resident: readmit.
                resumeEvictedSweep();
                if (residentJobs > 0)
                    continue;
            }
            // The earliest arrival still Pending: the incrementally
            // kept numPending/nextPendingArrival pair is exact because
            // jobs leave Pending only via collectArrivals().
            TimeNs next = numPending > 0 ? nextPendingArrival : kTimeNone;
            if (next == kTimeNone) {
                if (!evictedJobs.empty()) {
                    // Backstop: an evicted tenant that cannot come back
                    // even with the cluster drained must go terminal,
                    // not hang the scheduler.
                    std::vector<JobId> stuck = evictedJobs;
                    for (JobId id : stuck) {
                        finishJob(*jobs[std::size_t(id)], LifecycleKind::Fail,
                                  "evicted tenant could not be "
                                  "readmitted: " +
                                      jobs[std::size_t(id)]
                                          ->session->failReason());
                    }
                    continue;
                }
                // A setup-OOM retry is pending: rerun the sweep until
                // the job admits or gives up.
                if (admissionDirty)
                    continue;
                // Nothing running, nothing admissible, nothing still
                // to arrive: every job went terminal.
                break;
            }
            ++statIdleAdvances;
            cluster.advanceTo(next);
            continue;
        }

        if (forceWakeAll) {
            // Spurious-wakeup test mode: every device is woken and
            // every resident offered a step by the same sweep. Extra
            // offers to blocked tenants are pure, so the equivalence
            // goldens must still hold.
            for (auto &d : devs) {
                wake.add(d->id);
                for (JobId id : d->running)
                    markReady(*jobs[std::size_t(id)]);
            }
        }
        // Ascending-id sweep over the live wake-set. A device woken
        // *above* the cursor mid-sweep (a teardown's stream drain
        // executes events) is stepped this turn, one woken at or
        // below it next turn — both exactly when the polling scan
        // would have offered it a step. A device leaves the set only
        // when its offer makes no progress; it re-enters via its wake
        // hook or an admission, so a runnable device is never
        // stranded.
        bool progress = false;
        for (int id = wake.next(0); id != -1; id = wake.next(id + 1)) {
            if (stepDevice(*devs[std::size_t(id)]))
                progress = true;
            else
                wake.remove(id);
        }
        // Every woken tenant is blocked on in-flight device work (or
        // the set is empty): run the single next completion — its wake
        // hook repopulates the set and puts exactly the tenant whose
        // stream drained back on its ready list.
        if (!progress && !cluster.stepDevice()) {
            panic("all tenants blocked with an empty event queue\n%s",
                  stateDump().c_str());
        }
    }
}

std::string
Scheduler::stateDump() const
{
    std::string out = strFormat("queued %zu, evicted %zu", queue.size(),
                                evictedJobs.size());
    for (const auto &d : devs) {
        out += strFormat("\ndevice %d: in flight %d, ready %zu, residents",
                         d->id, d->inFlight, d->ready.size());
        for (JobId id : d->running) {
            const Job &j = *jobs[std::size_t(id)];
            out += strFormat(" %d:%s%s", id, jobStateName(j.record.state),
                             j.ready ? "" : ":blocked");
        }
    }
    return out;
}

ServeReport
Scheduler::run()
{
    VDNN_ASSERT(!ran, "run() called twice");
    ran = true;
    runEngine();
    return buildReport();
}

ServeReport
Scheduler::buildReport()
{
    inflight.finish(cluster.now());
    for (auto &d : devs)
        d->track.finish();

    ServeReport rep;
    rep.schedulerName = preset.name;
    rep.deviceCount = deviceCount();
    if (deviceCount() > 1) {
        // Each distinct spec with its count, in device order:
        // "Titan X (Maxwell) x16", "Small 4 GiB GPU x1 + Titan X ...".
        for (std::size_t i = 0; i < devs.size(); ++i) {
            const std::string &name = devs[i]->dev->spec().name;
            auto same = [&](const auto &d) {
                return d->dev->spec().name == name;
            };
            auto first = devs.begin() + std::ptrdiff_t(i);
            if (std::any_of(devs.begin(), first, same))
                continue;
            rep.gpuName += strFormat("%s%s x%d", i ? " + " : "", name.c_str(),
                                     int(std::count_if(first, devs.end(),
                                                       same)));
        }
        rep.placementName = cfg.placement->name();
    } else {
        rep.gpuName = devs[0]->dev->spec().name;
    }
    rep.peakJobsInFlight = peakInflight;
    rep.avgJobsInFlight = inflight.average();
    for (auto &d : devs) {
        rep.poolCapacity += d->pool->capacity();
        rep.poolPeakBytes += d->track.peakBytes();
        rep.poolAvgBytes += d->track.averageBytes();
        rep.computeBusyTime += d->dev->computeBusyTime();
        rep.copyBusyTime +=
            d->dev->copyBusyTime(gpu::CopyDir::DeviceToHost) +
            d->dev->copyBusyTime(gpu::CopyDir::HostToDevice);
        rep.reservedBytesAtEnd += d->admission.reservedBytes();
        rep.evictedLedgerAtEnd += d->admission.evictedCount();

        DeviceOutcome out = d->record;
        out.poolPeakBytes = d->track.peakBytes();
        out.poolAvgBytes = d->track.averageBytes();
        out.computeBusyTime = d->dev->computeBusyTime();
        out.reservedAtEnd = d->admission.reservedBytes();
        out.evictedLedgerAtEnd = d->admission.evictedCount();
        rep.devices.push_back(std::move(out));
    }
    rep.lifecycle = lifecycleLog;
    if (cfg.keepTimeline) {
        // Device 0's pool trace (the whole story on a single GPU).
        rep.poolTimeline = devs[0]->track.signal().timeline();
        rep.inflightTimeline = inflight.timeline();
    }

    TimeNs first_arrival = kTimeNone;
    TimeNs last_finish = 0;
    for (const auto &job : jobs) {
        JobOutcome out = job->record;
        out.configName = job->spec.planner->name();
        if (out.admitTime != kTimeNone)
            out.queueingDelay = out.admitTime - out.arrival;
        if (out.state == JobState::Finished)
            out.completionTime = out.finishTime - out.arrival;
        rep.jobs.push_back(std::move(out));

        if (first_arrival == kTimeNone ||
            job->spec.arrival < first_arrival) {
            first_arrival = job->spec.arrival;
        }
        if (job->record.finishTime != kTimeNone)
            last_finish = std::max(last_finish, job->record.finishTime);
    }
    if (first_arrival != kTimeNone && last_finish > first_arrival)
        rep.makespan = last_finish - first_arrival;

    rep.loopWakeups = statWakeups;
    rep.loopFruitlessPolls = statFruitlessPolls;
    rep.loopIdleAdvances = statIdleAdvances;
    if (obs::MetricsRegistry *m = cfg.telemetry.metrics) {
        m->counter("serve.wakeups").add(double(statWakeups));
        m->counter("serve.fruitless_polls")
            .add(double(statFruitlessPolls));
        m->counter("serve.idle_advances").add(double(statIdleAdvances));
    }
    return rep;
}

} // namespace vdnn::serve
