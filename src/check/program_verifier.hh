/**
 * @file
 * ProgramVerifier: dataflow verification (abstract interpretation) of a
 * compiled IterationProgram.
 *
 * The pass walks the op stream once, tracking every feature-map buffer
 * through an abstract residency lattice that refines the runtime's
 * Residence state machine (check the D2H/H2D directions apart and add a
 * terminal Released state):
 *
 *     Unallocated -> Resident -> OffloadInFlight -> Host
 *                       ^                            |
 *                       +------- FetchInFlight <-----+
 *     Resident -> Released                (terminal within an iteration)
 *
 * alongside the forward refcounts, the live gradient set, the current
 * layer's workspace, and the pending (un-joined) DMA lists each Sync op
 * drains — the state the Executor's op bodies mutate, interpreted
 * symbolically with no device, pool or clock behind it. The verifier
 * interprets the program's own operands (the buffers, Y/dY and
 * workspace each IterOp carries, the same ones Executor::step()
 * executes), plus the plan-coverage check that ties those operands
 * back to the MemoryPlan.
 *
 * Proven properties (each violation is a distinct DiagCode):
 *  - no op touches an Unallocated/Released buffer (UseUnallocated);
 *  - no kernel reads offloaded-and-not-fetched data (ReadOffloaded);
 *  - offloads are issued once, never on static buffers
 *    (DoubleOffload);
 *  - plan coverage: every buffer the plan offloads is offloaded by
 *    exactly one Offload op, at the layer whose forward Release drains
 *    its refcount, and no other buffer is (OffloadCoverage);
 *  - releases balance allocations — no refcount underflow or release
 *    of a Released buffer (DoubleRelease), no leaked feature map,
 *    gradient or workspace at EndIteration (LeakedAlloc), no host copy
 *    stranded by an offload-without-fetch (HostLeak);
 *  - every DMA is joined by its layer's Sync / the Barrier / the final
 *    drain (UnjoinedDma), and with syncAtLayerBoundary no Release runs
 *    under its layer's un-joined DMAs (SyncOrder);
 *  - backward kernels have their dY gradient (MissingGradient) and
 *    conv kernels their workspace (MissingWorkspace) in place;
 *  - the stream is well-formed: one BeginIteration first, one
 *    EndIteration last, one Barrier between the phases, canonical
 *    per-layer op order (BadStructure).
 *
 * The walk is sound for peak accounting: asynchronous releases (the
 * syncAtLayerBoundary=false ablation) are nondeterministic at run time,
 * so the verifier retires them only at the Barrier, making
 * peakTransientBytes an upper bound on the per-iteration transient
 * device bytes (the admissibility input PlanVerifier compares against
 * the granted share). Prefetch issue is simulated with the real
 * findPrefetchLayer (Fig. 10) on the verifier's own PrefetchState, so
 * the abstract DMA schedule matches the runtime's deterministic one.
 * Admission reserves the same peak computed with prefetching off
 * (serve::estimateFootprint).
 *
 * The peak counts raw buffer bytes, while the pool rounds every
 * allocation up to its 512 B alignment, so a measured peak can sit a
 * few hundred bytes above it (256 B on OverFeat (64) vDNN_all (m)).
 * Counting rounded bytes would move every admission reservation, so
 * the peak stays raw.
 */

#ifndef VDNN_CHECK_PROGRAM_VERIFIER_HH
#define VDNN_CHECK_PROGRAM_VERIFIER_HH

#include "check/check.hh"
#include "core/executor.hh"
#include "core/iteration_program.hh"
#include "core/planner.hh"
#include "net/network.hh"

#include <cstdint>

namespace vdnn::check
{

/** Abstract residency of one buffer at one program point. */
enum class AbsResidency : std::uint8_t
{
    Unallocated,    ///< never materialized (or re-usable next iteration)
    Resident,       ///< device copy valid, no transfer in flight
    OffloadInFlight,///< device copy valid, D2H DMA not yet joined
    Host,           ///< device copy released, pinned host copy valid
    FetchInFlight,  ///< H2D DMA issued, device copy not yet usable
    Released,       ///< released this iteration (terminal)
};

const char *absResidencyName(AbsResidency r);

/**
 * Verify @p prog against the (net, plan, cfg) triple it was compiled
 * from. Pure function of its inputs: no runtime, pool or clock is
 * consulted, so it can run before any device state exists.
 */
CheckResult verifyProgram(const net::Network &net,
                          const core::MemoryPlan &plan,
                          const core::ExecutorConfig &cfg,
                          const core::IterationProgram &prog);

} // namespace vdnn::check

#endif // VDNN_CHECK_PROGRAM_VERIFIER_HH
