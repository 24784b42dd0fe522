#include "core/program_cache.hh"

#include "check/plan_verifier.hh"

namespace vdnn::core
{

namespace
{

/** The fields of @p plan the key reads. */
MemoryPlan
keyFields(const MemoryPlan &plan)
{
    MemoryPlan key;
    key.staticAllocation = plan.staticAllocation;
    key.buffers = plan.buffers;
    key.algos = plan.algos;
    return key;
}

} // namespace

CompiledPlan::CompiledPlan(const net::Network &net_, const MemoryPlan &plan_,
                           const ExecutorConfig &cfg_)
    : net(net_), plan(keyFields(plan_)), cfg(cfg_),
      prog(IterationProgram::compile(net_, plan_, cfg_)),
      fp(persistentFootprint(net_, plan_))
{}

bool
CompiledPlan::matches(const net::Network &n, const MemoryPlan &p,
                      const ExecutorConfig &c) const
{
    return &n == &net && p.staticAllocation == plan.staticAllocation &&
           c.syncAtLayerBoundary == cfg.syncAtLayerBoundary &&
           c.prefetchEnabled == cfg.prefetchEnabled &&
           c.prefetchWindowBounded == cfg.prefetchWindowBounded &&
           p.algos == plan.algos && p.buffers == plan.buffers;
}

const check::CheckResult &
CompiledPlan::verdict() const
{
    if (!checked)
        checked = check::verifyCompiledPlan(net, plan, cfg, prog, fp);
    return *checked;
}

std::shared_ptr<const CompiledPlan>
ProgramCache::get(const net::Network &net, const MemoryPlan &plan,
                  const ExecutorConfig &cfg)
{
    for (const auto &e : entries) {
        if (e->matches(net, plan, cfg))
            return e;
    }
    entries.push_back(std::make_shared<const CompiledPlan>(net, plan, cfg));
    return entries.back();
}

std::shared_ptr<const CompiledPlan>
compiledPlan(ProgramCache *cache, const net::Network &net,
             const MemoryPlan &plan, const ExecutorConfig &cfg)
{
    return cache ? cache->get(net, plan, cfg)
                 : std::make_shared<const CompiledPlan>(net, plan, cfg);
}

} // namespace vdnn::core
