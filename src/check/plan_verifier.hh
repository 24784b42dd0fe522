/**
 * @file
 * PlanVerifier: MemoryPlan admissibility against its PlannerContext,
 * before any program compiles or device state exists.
 *
 * The pass proves (or rejects) four families of properties:
 *
 *  - Directive sanity — every directive must be realizable: no offload
 *    of an offload-ineligible buffer (IneligibleOffload), no compressed
 *    DMA routing for a buffer that never holds post-ReLU sparse data
 *    (CompressedDense), dmaScale within (0, 1] and only meaningful
 *    under compression (BadDmaScale), no offload traffic declared by a
 *    network-wide static plan (StaticPlanTraffic).
 *  - Prefetch-priority ordering — among buffers the Fig. 10 search
 *    would fetch from the same producing layer, equal positive
 *    priorities make the issue order ambiguous (PriorityConflict).
 *  - Program correctness — the plan is compiled exactly as the
 *    Executor would and the resulting op stream is run through the
 *    ProgramVerifier; its findings are folded into this result.
 *  - Capacity — the persistent footprint (core::persistentFootprint,
 *    the regions Executor::setup allocates) plus the program's
 *    provable transient peak must
 *    fit PlannerContext::capacity() (ShareExceeded; an error only when
 *    CheckConfig::enforceCapacity, a warning otherwise, because the
 *    runtime degrades gracefully on OOM).
 */

#ifndef VDNN_CHECK_PLAN_VERIFIER_HH
#define VDNN_CHECK_PLAN_VERIFIER_HH

#include "check/check.hh"
#include "core/executor.hh"
#include "core/planner.hh"
#include "net/network.hh"

namespace vdnn::check
{

/**
 * Verify @p plan for @p net against the capacity granted by @p ctx.
 * Compiles the plan under @p cfg and runs the ProgramVerifier on the
 * result, so a passing plan is admissible *and* compiles to a correct
 * program. CheckResult carries persistentBytes, peakTransientBytes and
 * provablePeakBytes (their sum) on return.
 */
CheckResult verifyPlan(const net::Network &net,
                       const core::MemoryPlan &plan,
                       const core::PlannerContext &ctx,
                       const core::ExecutorConfig &cfg,
                       const CheckConfig &ccfg = {});

} // namespace vdnn::check

#endif // VDNN_CHECK_PLAN_VERIFIER_HH
