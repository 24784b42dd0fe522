/**
 * @file
 * DynamicPlanner — vDNN_dyn, the profiling memory planner
 * (Section III-C).
 *
 * Before real training starts, vDNN_dyn runs a short sequence of
 * profiling passes (simulated trial iterations — the paper runs real
 * ones; their cost is negligible against days of training):
 *
 *  1. vDNN_all with memory-optimal algorithms: the least-memory
 *     configuration. If this fails, the network is untrainable.
 *  2. No offloading with the fastest algorithms: adopted outright if
 *     it fits — highest performance, no transfer overhead.
 *  3. vDNN_conv then vDNN_all with the fastest algorithms.
 *  4. A greedy pass per offload set (conv, then all): start from the
 *     fastest algorithm everywhere; whenever a trial overflows on a
 *     layer's workspace, locally downgrade that layer to the next
 *     fastest algorithm with a smaller workspace and retry, bottoming
 *     out at the zero-workspace IMPLICIT_GEMM.
 *  5. Fall back to the step-1 configuration.
 *
 * All trial devices are sized to the PlannerContext's *available*
 * capacity — the tenant's current free share of its device's pool,
 * the whole device for a session run alone — so a tenant derives a
 * plan for what it can actually get.
 */

#ifndef VDNN_CORE_DYNAMIC_POLICY_HH
#define VDNN_CORE_DYNAMIC_POLICY_HH

#include "core/executor.hh"
#include "core/planner.hh"

#include <string>
#include <vector>

namespace vdnn::core
{

class DynamicPlanner : public Planner
{
  public:
    /** @param exec executor knobs used in the trial iterations */
    explicit DynamicPlanner(ExecutorConfig exec = {});

    std::string name() const override { return "vDNN_dyn"; }

    /**
     * Run the profiling passes and derive the execution plan. The
     * returned plan carries the full trial history; on an untrainable
     * network feasible is false and failReason says why.
     */
    MemoryPlan plan(const net::Network &net,
                    const PlannerContext &ctx) override;

    /**
     * Admission floor: the least-memory configuration vDNN_dyn falls
     * back to under pressure (vDNN_all, memory-optimal algorithms),
     * produced without running any trials.
     */
    MemoryPlan admissionPlan(const net::Network &net,
                             const PlannerContext &ctx) override;

    /**
     * vDNN_dyn's trial passes consult the context's available
     * capacity, so a running tenant can be re-planned in place at an
     * iteration boundary — shrinking toward the vDNN_all floor when
     * the pool tightens, growing back toward the no-offload ideal
     * when co-tenants exit.
     */
    ReplanHint replanHint() const override { return ReplanHint::InPlace; }

    /** Maximum trial iterations in the greedy downgrade loop. */
    static constexpr int kMaxGreedyTrials = 256;

  private:
    ExecutorConfig execCfg;
};

} // namespace vdnn::core

#endif // VDNN_CORE_DYNAMIC_POLICY_HH
