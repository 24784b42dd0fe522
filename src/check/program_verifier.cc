#include "check/program_verifier.hh"

#include "common/logging.hh"
#include "core/prefetch.hh"

#include <algorithm>
#include <optional>
#include <vector>

namespace vdnn::check
{

using core::ExecutorConfig;
using core::IterOp;
using core::IterationProgram;
using core::MemoryPlan;
using core::OpKind;

const char *
absResidencyName(AbsResidency r)
{
    switch (r) {
      case AbsResidency::Unallocated:
        return "unallocated";
      case AbsResidency::Resident:
        return "resident";
      case AbsResidency::OffloadInFlight:
        return "offload-in-flight";
      case AbsResidency::Host:
        return "host";
      case AbsResidency::FetchInFlight:
        return "fetch-in-flight";
      case AbsResidency::Released:
        return "released";
    }
    return "?";
}

namespace
{

/** Canonical in-group op order (compile's emission order). */
int
groupRank(OpKind k, bool backward)
{
    if (!backward) {
        switch (k) {
          case OpKind::Alloc:
            return 0;
          case OpKind::Kernel:
            return 1;
          case OpKind::Offload:
            return 2;
          case OpKind::Sync:
            return 3;
          case OpKind::Release:
            return 4;
          default:
            return -1;
        }
    }
    switch (k) {
      case OpKind::OnDemandFetch:
        return 0;
      case OpKind::Alloc:
        return 1;
      case OpKind::Prefetch:
        return 2;
      case OpKind::Kernel:
        return 3;
      case OpKind::Sync:
        return 4;
      case OpKind::Release:
        return 5;
      default:
        return -1;
    }
}

/** The abstract interpreter: one walk over the op stream. */
struct Interp
{
    const net::Network &net;
    const MemoryPlan &plan;
    const ExecutorConfig &cfg;
    CheckResult &out;

    bool buffersStatic;
    std::vector<bool> isStatic;        // per buffer: materialized at setup
    std::vector<AbsResidency> st;      // per buffer
    std::vector<int> readersLeft;      // forward refcount copies
    std::vector<bool> gradLive;        // per buffer: dY/dX allocated
    std::optional<Bytes> ws;           // current layer's workspace
    std::vector<net::BufferId> pendingOffloads;
    std::vector<net::BufferId> pendingPrefetches;
    std::vector<net::BufferId> deferredJoins; // async-release ablation
    core::PrefetchState pf;
    /** findPrefetchLayer's result (reused scratch). */
    core::PrefetchCandidate prefetchHit;
    // Plan coverage, per buffer: Offload ops naming it, the layer of
    // the last one, and the layer whose Release drained its refcount.
    std::vector<int> offloadOps;
    std::vector<net::LayerId> offloadLayer;
    std::vector<net::LayerId> drainedAt;

    Bytes transient = 0;

    int op = -1;        // current op index (diagnostic anchor)
    int layer = -1;     // current op's layer

    Interp(const net::Network &net_, const MemoryPlan &plan_,
           const ExecutorConfig &cfg_, CheckResult &out_)
        : net(net_), plan(plan_), cfg(cfg_), out(out_),
          buffersStatic(plan_.staticAllocation),
          pf(net_.numBuffers())
    {
        std::size_t nb = net.numBuffers();
        isStatic.assign(nb, false);
        st.assign(nb, AbsResidency::Unallocated);
        readersLeft.assign(nb, 0);
        gradLive.assign(nb, false);
        offloadOps.assign(nb, 0);
        offloadLayer.assign(nb, net::kInputLayer);
        drainedAt.assign(nb, net::kInputLayer);
        for (net::BufferId b = 0; b < net::BufferId(nb); ++b) {
            if (buffersStatic || net.buffer(b).classifier) {
                isStatic[std::size_t(b)] = true;
                st[std::size_t(b)] = AbsResidency::Resident;
            }
        }
    }

    Diagnostic &diag(DiagCode code, std::string msg, int buffer = -1)
    {
        return out.add(code, Severity::Error, std::move(msg), op, layer,
                       buffer);
    }

    const char *layerName(net::LayerId id) const
    {
        return net.node(id).spec.name.c_str();
    }

    void addBytes(Bytes b)
    {
        transient += b;
        out.peakTransientBytes =
            std::max(out.peakTransientBytes, transient);
    }

    void subBytes(Bytes b) { transient -= b; }

    AbsResidency state(net::BufferId b) const
    {
        return st[std::size_t(b)];
    }

    void setState(net::BufferId b, AbsResidency r)
    {
        st[std::size_t(b)] = r;
    }

    /** A read access requires a valid device copy. */
    void requireReadable(net::BufferId b, const char *what)
    {
        switch (state(b)) {
          case AbsResidency::Resident:
          case AbsResidency::OffloadInFlight: // device copy still valid
            return;
          case AbsResidency::Host:
            diag(DiagCode::ReadOffloaded,
                 strFormat("%s reads buffer %d which was offloaded and "
                           "never fetched back",
                           what, b),
                 b);
            return;
          case AbsResidency::FetchInFlight:
            diag(DiagCode::ReadOffloaded,
                 strFormat("%s reads buffer %d whose fetch DMA has not "
                           "been joined by a Sync",
                           what, b),
                 b);
            return;
          case AbsResidency::Unallocated:
          case AbsResidency::Released:
            diag(DiagCode::UseUnallocated,
                 strFormat("%s touches buffer %d in state '%s'", what, b,
                           absResidencyName(state(b))),
                 b);
            return;
        }
    }

    // --- op bodies (abstract) -------------------------------------------

    void opBegin()
    {
        // Mirror opBeginIteration: the input batch is materialized here
        // under every layer-wise plan.
        net::BufferId in = net.inputBuffer();
        if (!buffersStatic && state(in) == AbsResidency::Unallocated) {
            setState(in, AbsResidency::Resident);
            addBytes(net.buffer(in).bytes());
        }
        for (net::BufferId b = 0; b < net::BufferId(net.numBuffers());
             ++b) {
            readersLeft[std::size_t(b)] = net.buffer(b).refCount;
        }
    }

    void opFwdAlloc(const IterOp &o)
    {
        for (net::BufferId b : o.buffers)
            requireReadable(b, "forward Alloc input check");

        net::BufferId y = o.yBuffer;
        if (o.allocY) {
            switch (state(y)) {
              case AbsResidency::Unallocated:
                setState(y, AbsResidency::Resident);
                addBytes(net.buffer(y).bytes());
                break;
              case AbsResidency::Resident: // static region
                break;
              case AbsResidency::Released:
                diag(DiagCode::UseUnallocated,
                     strFormat("Y buffer %d of '%s' re-allocated after "
                               "release within one iteration",
                               y, layerName(o.layer)),
                     y);
                setState(y, AbsResidency::Resident);
                break;
              default:
                diag(DiagCode::UseUnallocated,
                     strFormat("Y buffer %d of '%s' allocated while in "
                               "state '%s'",
                               y, layerName(o.layer),
                               absResidencyName(state(y))),
                     y);
                break;
            }
        }
        allocWorkspace(o);
    }

    void allocWorkspace(const IterOp &o)
    {
        if (ws) {
            // The runtime's ws.reset() here would strand the previous
            // allocation in the pool: its Release op never ran.
            diag(DiagCode::LeakedAlloc,
                 strFormat("workspace of a previous layer still live "
                           "entering Alloc of '%s' (its Release op is "
                           "missing)",
                           layerName(o.layer)));
            subBytes(*ws);
            ws.reset();
        }
        if (o.wsBytes > 0) {
            ws = o.wsBytes;
            addBytes(o.wsBytes);
        }
    }

    void opFwdKernel(const IterOp &o)
    {
        for (net::BufferId b : o.buffers)
            requireReadable(b, "forward kernel");
        if (o.allocY)
            requireReadable(o.yBuffer, "forward kernel output");
        requireWorkspace(o);
    }

    void requireWorkspace(const IterOp &o)
    {
        if (o.wsBytes > 0 && (!ws || *ws != o.wsBytes)) {
            diag(DiagCode::MissingWorkspace,
                 strFormat("conv kernel of '%s' needs %lld workspace "
                           "bytes but %lld are allocated",
                           layerName(o.layer), (long long)o.wsBytes,
                           (long long)(ws ? *ws : 0)));
        }
    }

    void opFwdOffload(const IterOp &o)
    {
        for (net::BufferId b : o.buffers) {
            ++offloadOps[std::size_t(b)];
            offloadLayer[std::size_t(b)] = o.layer;
            if (isStatic[std::size_t(b)]) {
                diag(DiagCode::DoubleOffload,
                     strFormat("offload of buffer %d which lives in the "
                               "static region",
                               b),
                     b);
                continue;
            }
            switch (state(b)) {
              case AbsResidency::Resident:
                setState(b, AbsResidency::OffloadInFlight);
                pendingOffloads.push_back(b);
                pf.offloaded[std::size_t(b)] = true;
                ++out.dmasIssued;
                break;
              case AbsResidency::OffloadInFlight:
              case AbsResidency::Host:
                diag(DiagCode::DoubleOffload,
                     strFormat("buffer %d offloaded twice (state '%s')",
                               b, absResidencyName(state(b))),
                     b);
                break;
              default:
                diag(DiagCode::UseUnallocated,
                     strFormat("offload of buffer %d in state '%s'", b,
                               absResidencyName(state(b))),
                     b);
                break;
            }
        }
    }

    void opSync(bool backward)
    {
        std::vector<net::BufferId> &pending =
            backward ? pendingPrefetches : pendingOffloads;
        if (pending.empty())
            return;
        if (backward || cfg.syncAtLayerBoundary) {
            for (net::BufferId b : pending) {
                if (backward)
                    joinPrefetch(b);
                else
                    joinOffload(b);
            }
        } else {
            // Asynchronous-release ablation: the join lands at some
            // later sync; provably by the Barrier. Keeping the device
            // copy charged until then makes the peak an upper bound.
            deferredJoins.insert(deferredJoins.end(), pending.begin(),
                                 pending.end());
        }
        pending.clear();
    }

    void joinOffload(net::BufferId b)
    {
        if (state(b) == AbsResidency::OffloadInFlight) {
            setState(b, AbsResidency::Host);
            subBytes(net.buffer(b).bytes());
            ++out.dmasJoined;
        }
    }

    void joinPrefetch(net::BufferId b)
    {
        if (state(b) == AbsResidency::FetchInFlight) {
            setState(b, AbsResidency::Resident);
            ++out.dmasJoined;
        }
    }

    void opFwdRelease(const IterOp &o)
    {
        if (cfg.syncAtLayerBoundary && !pendingOffloads.empty()) {
            diag(DiagCode::SyncOrder,
                 strFormat("Release of '%s' runs under %zu un-joined "
                           "offload DMAs (Sync dropped or reordered)",
                           layerName(o.layer), pendingOffloads.size()));
        }
        releaseWorkspace();
        if (buffersStatic)
            return;
        for (net::BufferId b : o.buffers) {
            if (--readersLeft[std::size_t(b)] < 0) {
                diag(DiagCode::DoubleRelease,
                     strFormat("forward refcount of buffer %d went "
                               "negative (duplicate Release op)",
                               b),
                     b);
                readersLeft[std::size_t(b)] = 0;
                continue;
            }
            if (readersLeft[std::size_t(b)] > 0)
                continue;
            drainedAt[std::size_t(b)] = o.layer;
            const net::Buffer &buf = net.buffer(b);
            if (buf.bwdUsers.empty() && !buf.classifier &&
                state(b) == AbsResidency::Resident) {
                setState(b, AbsResidency::Released);
                subBytes(buf.bytes());
            }
        }
    }

    void releaseWorkspace()
    {
        if (ws) {
            subBytes(*ws);
            ws.reset();
        }
    }

    void opBarrier()
    {
        for (net::BufferId b : deferredJoins)
            joinOffload(b);
        deferredJoins.clear();
    }

    void opBwdFetch(const IterOp &o)
    {
        for (net::BufferId b : o.buffers) {
            switch (state(b)) {
              case AbsResidency::Resident:
              case AbsResidency::OffloadInFlight:
                break;
              case AbsResidency::Host:
                // On-demand fetch: blocking H2D, joined synchronously.
                setState(b, AbsResidency::Resident);
                addBytes(net.buffer(b).bytes());
                pf.prefetched[std::size_t(b)] = true;
                ++out.dmasIssued;
                ++out.dmasJoined;
                break;
              case AbsResidency::FetchInFlight:
                // ensureResident joins the in-flight prefetch.
                joinPrefetch(b);
                pendingPrefetches.erase(
                    std::remove(pendingPrefetches.begin(),
                                pendingPrefetches.end(), b),
                    pendingPrefetches.end());
                break;
              case AbsResidency::Unallocated:
              case AbsResidency::Released:
                diag(DiagCode::UseUnallocated,
                     strFormat("backward of '%s' needs buffer %d which "
                               "is %s",
                               layerName(o.layer), b,
                               absResidencyName(state(b))),
                     b);
                break;
            }
        }
    }

    void opBwdAlloc(const IterOp &o)
    {
        allocGradient(o.yBuffer); // dY, then the dX set
        for (net::BufferId b : o.buffers)
            allocGradient(b);
        allocWorkspace(o);
    }

    void allocGradient(net::BufferId b)
    {
        if (buffersStatic || net.buffer(b).classifier)
            return; // served by the static gradient region
        if (gradLive[std::size_t(b)])
            return;
        gradLive[std::size_t(b)] = true;
        addBytes(net.buffer(b).bytes());
    }

    void releaseGradient(net::BufferId b)
    {
        if (!gradLive[std::size_t(b)])
            return;
        gradLive[std::size_t(b)] = false;
        subBytes(net.buffer(b).bytes());
    }

    bool gradientAvailable(net::BufferId b) const
    {
        return buffersStatic || net.buffer(b).classifier ||
               gradLive[std::size_t(b)];
    }

    void opBwdPrefetch(net::LayerId id)
    {
        // The runtime consults the same deterministic Fig. 10 search on
        // the same per-buffer state, so the abstract DMA schedule
        // matches the concrete one exactly.
        core::findPrefetchLayer(net, id, pf, prefetchHit,
                                cfg.prefetchWindowBounded, &plan);
        for (net::BufferId b : prefetchHit.buffers) {
            if (state(b) != AbsResidency::Host)
                continue; // already fetched on demand earlier
            setState(b, AbsResidency::FetchInFlight);
            addBytes(net.buffer(b).bytes());
            pendingPrefetches.push_back(b);
            ++out.dmasIssued;
        }
    }

    void opBwdKernel(const IterOp &o)
    {
        for (net::BufferId b : o.buffers) {
            switch (state(b)) {
              case AbsResidency::Resident:
                break;
              case AbsResidency::Host:
              case AbsResidency::FetchInFlight:
              case AbsResidency::OffloadInFlight:
                diag(DiagCode::ReadOffloaded,
                     strFormat("backward kernel of '%s' reads buffer %d "
                               "in state '%s' (no fetch made it "
                               "resident)",
                               layerName(o.layer), b,
                               absResidencyName(state(b))),
                     b);
                break;
              case AbsResidency::Unallocated:
              case AbsResidency::Released:
                diag(DiagCode::UseUnallocated,
                     strFormat("backward kernel of '%s' reads buffer %d "
                               "in state '%s'",
                               layerName(o.layer), b,
                               absResidencyName(state(b))),
                     b);
                break;
            }
        }
        if (!gradientAvailable(o.yBuffer)) {
            diag(DiagCode::MissingGradient,
                 strFormat("backward kernel of '%s' consumes dY of "
                           "buffer %d which was never allocated",
                           layerName(o.layer), o.yBuffer),
                 o.yBuffer);
        }
        requireWorkspace(o);
    }

    void opBwdRelease(const IterOp &o)
    {
        if (!pendingPrefetches.empty()) {
            diag(DiagCode::SyncOrder,
                 strFormat("Release of '%s' backward runs under %zu "
                           "un-joined prefetch DMAs (Sync dropped or "
                           "reordered)",
                           layerName(o.layer), pendingPrefetches.size()));
        }
        releaseWorkspace();
        if (buffersStatic)
            return;
        if (o.releaseDY)
            releaseGradient(o.yBuffer);
        for (net::BufferId b : o.buffers) {
            if (isStatic[std::size_t(b)])
                continue;
            switch (state(b)) {
              case AbsResidency::Resident:
                setState(b, AbsResidency::Released);
                subBytes(net.buffer(b).bytes());
                break;
              case AbsResidency::Released:
                diag(DiagCode::DoubleRelease,
                     strFormat("buffer %d released twice (last backward "
                               "user '%s' ran again?)",
                               b, layerName(o.layer)),
                     b);
                break;
              default:
                // Host / in-flight copies are left for the final drain
                // checks (an offload-without-fetch shows up there).
                break;
            }
        }
    }

    void opEnd()
    {
        // The final drain forces deferred joins exactly like Barrier.
        opBarrier();
        for (net::BufferId b : pendingOffloads) {
            diag(DiagCode::UnjoinedDma,
                 strFormat("offload DMA of buffer %d was issued but "
                           "never joined by any Sync",
                           b),
                 b);
        }
        for (net::BufferId b : pendingPrefetches) {
            diag(DiagCode::UnjoinedDma,
                 strFormat("prefetch DMA of buffer %d was issued but "
                           "never joined by any Sync",
                           b),
                 b);
        }
        for (net::BufferId b = 0; b < net::BufferId(net.numBuffers());
             ++b) {
            if (isStatic[std::size_t(b)])
                continue;
            switch (state(b)) {
              case AbsResidency::Unallocated:
              case AbsResidency::Released:
                break; // clean
              case AbsResidency::Resident:
                diag(DiagCode::LeakedAlloc,
                     strFormat("buffer %d still device-resident at "
                               "EndIteration (missing Release)",
                               b),
                     b);
                break;
              case AbsResidency::OffloadInFlight:
              case AbsResidency::FetchInFlight:
                diag(DiagCode::UnjoinedDma,
                     strFormat("buffer %d still has a DMA in flight at "
                               "EndIteration",
                               b),
                     b);
                break;
              case AbsResidency::Host:
                diag(DiagCode::HostLeak,
                     strFormat("buffer %d was offloaded to host and "
                               "never fetched back nor dropped",
                               b),
                     b);
                break;
            }
            if (gradLive[std::size_t(b)]) {
                diag(DiagCode::LeakedAlloc,
                     strFormat("gradient of buffer %d still live at "
                               "EndIteration",
                               b),
                     b);
            }
        }
        if (ws) {
            diag(DiagCode::LeakedAlloc,
                 "convolution workspace still live at EndIteration");
        }
    }

    /**
     * The program against the plan: every buffer the plan offloads is
     * offloaded by exactly one Offload op, at the layer whose forward
     * Release drained its refcount (its last forward reader), and no
     * other buffer is offloaded. Guards the compiled Offload operands,
     * which the residency walk alone would accept as "kept resident".
     */
    void checkCoverage()
    {
        op = -1;
        layer = -1;
        for (net::BufferId b = 0; b < net::BufferId(net.numBuffers());
             ++b) {
            std::size_t i = std::size_t(b);
            if (isStatic[i])
                continue; // the residency walk reports static offloads
            bool want = plan.offloads(b);
            if (offloadOps[i] == (want ? 1 : 0) &&
                (!want || offloadLayer[i] == drainedAt[i])) {
                continue;
            }
            diag(DiagCode::OffloadCoverage,
                 want ? strFormat("plan offloads buffer %d; the program "
                                  "offloads it %d times, last at layer "
                                  "%d (its last forward reader is %d)",
                                  b, offloadOps[i], offloadLayer[i],
                                  drainedAt[i])
                      : strFormat("program offloads buffer %d, which "
                                  "the plan keeps resident",
                                  b),
                 b);
        }
    }
};

/** Structural validation of the op stream (phase/group well-formedness). */
struct StructureChecker
{
    const net::Network &net;
    CheckResult &out;

    net::LayerId groupLayer = net::kInputLayer - 1;
    bool groupBackward = false;
    int groupStartOp = -1;
    int lastRank = -1;
    std::vector<OpKind> groupKinds;
    std::vector<net::LayerId> fwdOrder;
    std::vector<net::LayerId> bwdOrder;
    bool barrierSeen = false;

    StructureChecker(const net::Network &net_, CheckResult &out_)
        : net(net_), out(out_)
    {}

    void structural(DiagCode code, std::string msg, int op, int layer)
    {
        out.add(code, Severity::Error, std::move(msg), op, layer);
    }

    bool hasKind(OpKind k) const
    {
        return std::find(groupKinds.begin(), groupKinds.end(), k) !=
               groupKinds.end();
    }

    void flushGroup()
    {
        if (groupLayer < 0 || groupKinds.empty())
            return;
        const char *name = net.node(groupLayer).spec.name.c_str();
        const char *phase = groupBackward ? "backward" : "forward";
        if (!groupBackward && !hasKind(OpKind::Alloc)) {
            structural(DiagCode::BadStructure,
                       strFormat("%s group of '%s' has no Alloc op",
                                 phase, name),
                       groupStartOp, groupLayer);
        }
        for (OpKind required :
             {OpKind::Kernel, OpKind::Sync, OpKind::Release}) {
            if (!hasKind(required)) {
                structural(
                    required == OpKind::Sync ? DiagCode::SyncOrder
                                             : DiagCode::BadStructure,
                    strFormat("%s group of '%s' has no %s op", phase,
                              name, core::opKindName(required)),
                    groupStartOp, groupLayer);
            }
        }
        groupKinds.clear();
    }

    void step(const IterOp &op, int idx)
    {
        if (op.layer == net::kInputLayer) {
            flushGroup();
            groupLayer = net::kInputLayer - 1;
            if (op.kind == OpKind::Barrier)
                barrierSeen = true;
            return;
        }
        if (op.layer < 0 ||
            std::size_t(op.layer) >= net.numLayers()) {
            structural(DiagCode::BadStructure,
                       strFormat("op references unknown layer %d",
                                 op.layer),
                       idx, op.layer);
            return;
        }
        if (op.backward != barrierSeen) {
            structural(DiagCode::BadStructure,
                       strFormat("%s op of '%s' on the wrong side of "
                                 "the Barrier",
                                 op.backward ? "backward" : "forward",
                                 net.node(op.layer).spec.name.c_str()),
                       idx, op.layer);
        }
        if (op.layer != groupLayer || op.backward != groupBackward) {
            flushGroup();
            groupLayer = op.layer;
            groupBackward = op.backward;
            groupStartOp = idx;
            lastRank = -1;
            (op.backward ? bwdOrder : fwdOrder).push_back(op.layer);
        }
        int rank = groupRank(op.kind, op.backward);
        if (rank < 0) {
            structural(DiagCode::BadStructure,
                       strFormat("op kind '%s' is illegal in a %s layer "
                                 "group",
                                 core::opKindName(op.kind),
                                 op.backward ? "backward" : "forward"),
                       idx, op.layer);
        } else if (rank <= lastRank) {
            structural(
                op.kind == OpKind::Sync || hasKind(OpKind::Sync)
                    ? DiagCode::SyncOrder
                    : DiagCode::BadStructure,
                strFormat("op '%s' out of canonical order in the %s "
                          "group of '%s'",
                          core::opKindName(op.kind),
                          op.backward ? "backward" : "forward",
                          net.node(op.layer).spec.name.c_str()),
                idx, op.layer);
        } else {
            lastRank = rank;
        }
        groupKinds.push_back(op.kind);
    }

    void finish(const IterationProgram &prog)
    {
        flushGroup();
        int begins = 0;
        int ends = 0;
        int barriers = 0;
        for (const IterOp &op : prog.ops) {
            begins += op.kind == OpKind::BeginIteration;
            ends += op.kind == OpKind::EndIteration;
            barriers += op.kind == OpKind::Barrier;
        }
        if (prog.ops.empty() ||
            prog.ops.front().kind != OpKind::BeginIteration ||
            begins != 1) {
            structural(DiagCode::BadStructure,
                       "program must start with exactly one "
                       "BeginIteration",
                       0, -1);
        }
        if (prog.ops.empty() ||
            prog.ops.back().kind != OpKind::EndIteration || ends != 1) {
            structural(DiagCode::BadStructure,
                       "program must end with exactly one EndIteration",
                       int(prog.ops.size()) - 1, -1);
        }
        if (barriers != 1) {
            structural(DiagCode::BadStructure,
                       strFormat("program has %d Barrier ops (need "
                                 "exactly one between the phases)",
                                 barriers),
                       -1, -1);
        }
        // Layer groups must follow the topological execution order
        // (forward) and its exact reverse (backward).
        const std::vector<net::LayerId> &topo = net.topoOrder();
        std::vector<net::LayerId> rtopo(topo.rbegin(), topo.rend());
        if (fwdOrder != topo) {
            structural(DiagCode::BadStructure,
                       "forward layer groups do not follow the "
                       "topological order",
                       -1, -1);
        }
        if (bwdOrder != rtopo) {
            structural(DiagCode::BadStructure,
                       "backward layer groups do not follow the "
                       "reverse topological order",
                       -1, -1);
        }
    }
};

} // namespace

CheckResult
verifyProgram(const net::Network &net, const MemoryPlan &plan,
              const ExecutorConfig &cfg, const IterationProgram &prog)
{
    CheckResult out;
    VDNN_ASSERT(net.finalized(), "network must be finalized");
    if (plan.buffers.size() != net.numBuffers() ||
        plan.algos.size() != net.numLayers()) {
        out.add(DiagCode::PlanShape, Severity::Error,
                strFormat("plan does not match the network (%zu/%zu "
                          "directives, %zu/%zu algos) — cannot "
                          "interpret the program",
                          plan.buffers.size(), net.numBuffers(),
                          plan.algos.size(), net.numLayers()));
        return out;
    }

    StructureChecker structure(net, out);
    Interp in(net, plan, cfg, out);

    for (std::size_t i = 0; i < prog.ops.size(); ++i) {
        const IterOp &op = prog.ops[i];
        structure.step(op, int(i));
        in.op = int(i);
        in.layer = op.layer;
        bool layer_ok = op.layer == net::kInputLayer ||
                        (op.layer >= 0 &&
                         std::size_t(op.layer) < net.numLayers());
        if (!layer_ok)
            continue; // structure already reported it
        switch (op.kind) {
          case OpKind::BeginIteration:
            in.opBegin();
            break;
          case OpKind::Alloc:
            if (op.backward)
                in.opBwdAlloc(op);
            else
                in.opFwdAlloc(op);
            break;
          case OpKind::Kernel:
            if (op.backward)
                in.opBwdKernel(op);
            else
                in.opFwdKernel(op);
            break;
          case OpKind::Offload:
            in.opFwdOffload(op);
            break;
          case OpKind::OnDemandFetch:
            in.opBwdFetch(op);
            break;
          case OpKind::Prefetch:
            in.opBwdPrefetch(op.layer);
            break;
          case OpKind::Sync:
            in.opSync(op.backward);
            break;
          case OpKind::Release:
            if (op.backward)
                in.opBwdRelease(op);
            else
                in.opFwdRelease(op);
            break;
          case OpKind::Barrier:
            in.opBarrier();
            break;
          case OpKind::EndIteration:
            in.opEnd();
            break;
        }
    }
    in.checkCoverage();
    structure.finish(prog);
    return out;
}

} // namespace vdnn::check
