/**
 * @file
 * PlanVerifier: MemoryPlan admissibility against a granted share, on
 * the program the plan compiles to.
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
 *  - Program correctness — the compiled op stream is run through the
 *    ProgramVerifier; its findings are folded into this result.
 *  - Capacity — the persistent footprint (core::persistentFootprint,
 *    the regions Executor::setup allocates) plus the program's
 *    provable transient peak must fit the granted share
 *    (ShareExceeded; an error only when CheckConfig::enforceCapacity,
 *    a warning otherwise, because the runtime degrades gracefully on
 *    OOM). Both terms count raw buffer bytes; the pool's 512 B
 *    allocation rounding is not included, so a measured peak can
 *    exceed the provable one by a few hundred bytes.
 *
 * verifyCompiledPlan() is the one body. The Executor runs it as its
 * gate on the program it will execute, against its pool's free bytes
 * plus the persistent bytes it already holds; verifyPlan() is the
 * standalone entry point that compiles first.
 */

#ifndef VDNN_CHECK_PLAN_VERIFIER_HH
#define VDNN_CHECK_PLAN_VERIFIER_HH

#include "check/check.hh"
#include "core/executor.hh"
#include "core/iteration_program.hh"
#include "core/planner.hh"
#include "net/network.hh"
#include "net/network_stats.hh"

namespace vdnn::check
{

/**
 * Verify the feasible, network-shaped @p plan, already compiled under
 * @p cfg into @p prog, against @p share bytes. CheckResult carries
 * persistentBytes, peakTransientBytes and provablePeakBytes (their
 * sum) on return.
 */
CheckResult verifyCompiledPlan(const net::Network &net,
                               const core::MemoryPlan &plan,
                               const core::ExecutorConfig &cfg,
                               const core::IterationProgram &prog,
                               const net::NetworkStats &stats, Bytes share,
                               const CheckConfig &ccfg);

/**
 * Verify @p plan for @p net against the capacity granted by @p ctx:
 * reject an infeasible or misshapen plan, else compile it under @p cfg
 * and run verifyCompiledPlan(), so a passing plan is admissible *and*
 * compiles to a correct program.
 */
CheckResult verifyPlan(const net::Network &net,
                       const core::MemoryPlan &plan,
                       const core::PlannerContext &ctx,
                       const core::ExecutorConfig &cfg,
                       const CheckConfig &ccfg = {});

} // namespace vdnn::check

#endif // VDNN_CHECK_PLAN_VERIFIER_HH
