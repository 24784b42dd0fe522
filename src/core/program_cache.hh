/**
 * @file
 * CompiledPlan and ProgramCache: compile once, verify once.
 *
 * vDNN fixes a network's offload and prefetch schedule once, when
 * training starts (vDNN_all and vDNN_conv are static; vDNN_dyn profiles
 * once). A CompiledPlan is such a schedule in executable form: the
 * IterationProgram of one (network, plan, config), the plan's
 * persistent footprint, and, from its first verified use on, the
 * share-independent part of the plan verifier's verdict
 * (check::verifyCompiledPlan). It is immutable apart from that verdict,
 * which is filled at most once, and every Executor that runs the plan
 * shares it.
 *
 * A ProgramCache keeps one CompiledPlan per distinct key, so the
 * tenants of a serving cluster, who share a few networks and planners,
 * compile and verify each program once. The key is everything compile,
 * the footprint and the verifier read:
 *
 *   - the network object;
 *   - the plan's staticAllocation, each directive (action, compressed,
 *     dmaScale, prefetchPriority) and the per-layer algorithms;
 *   - the ExecutorConfig's syncAtLayerBoundary, prefetchEnabled and
 *     prefetchWindowBounded.
 *
 * A plan's provenance, trials and failReason are read by none of them
 * and are not in the key. Networks are keyed by address, so the cache's
 * owner keeps every keyed network alive as long as the cache (the
 * Scheduler's job specs hold theirs).
 *
 * The share is not in the entry either: the capacity finding
 * (ShareExceeded) is the Executor gate's own step, run per tenant
 * against that tenant's share (check::checkShare).
 *
 * Executors and admission get their entry from compiledPlan(): the
 * cache's when one is given, else a private entry built by the same
 * constructor (a Session run alone, a vDNN_dyn trial, a test-built
 * Executor). The standalone check::verifyPlan() builds a private entry
 * too, so every program is compiled and verified by this one class.
 */

#ifndef VDNN_CORE_PROGRAM_CACHE_HH
#define VDNN_CORE_PROGRAM_CACHE_HH

#include "check/check.hh"
#include "core/executor.hh"
#include "core/iteration_program.hh"
#include "core/planner.hh"
#include "net/network.hh"

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

namespace vdnn::core
{

/** One plan compiled under one config: program, footprint, verdict. */
class CompiledPlan
{
  public:
    /** Compile @p plan for @p net under @p cfg and size its footprint. */
    CompiledPlan(const net::Network &net, const MemoryPlan &plan,
                 const ExecutorConfig &cfg);

    /** Is this the entry of (@p net, @p plan, @p cfg)? Compares every
     *  key field (file comment). */
    bool matches(const net::Network &net, const MemoryPlan &plan,
                 const ExecutorConfig &cfg) const;

    const IterationProgram &program() const { return prog; }
    const PersistentFootprint &footprint() const { return fp; }

    /** Has the verifier run on this entry? */
    bool verified() const { return checked.has_value(); }

    /**
     * The share-independent verdict: check::verifyCompiledPlan on this
     * entry's program and footprint, run on the first call and kept.
     */
    const check::CheckResult &verdict() const;

  private:
    const net::Network &net;
    /** The key's plan fields (provenance, trials, failReason empty). */
    MemoryPlan plan;
    ExecutorConfig cfg;
    IterationProgram prog;
    PersistentFootprint fp;
    mutable std::optional<check::CheckResult> checked;
};

/** One CompiledPlan per distinct key (file comment). */
class ProgramCache
{
  public:
    /** The entry of (@p net, @p plan, @p cfg), compiled on a miss. */
    std::shared_ptr<const CompiledPlan> get(const net::Network &net,
                                            const MemoryPlan &plan,
                                            const ExecutorConfig &cfg);

    /** Distinct entries compiled so far. */
    std::size_t size() const { return entries.size(); }

  private:
    std::vector<std::shared_ptr<const CompiledPlan>> entries;
};

/** The entry of (@p net, @p plan, @p cfg): @p cache's when it is set,
 *  else a private one. */
std::shared_ptr<const CompiledPlan>
compiledPlan(ProgramCache *cache, const net::Network &net,
             const MemoryPlan &plan, const ExecutorConfig &cfg);

} // namespace vdnn::core

#endif // VDNN_CORE_PROGRAM_CACHE_HH
