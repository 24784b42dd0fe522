#include "core/dynamic_policy.hh"

#include "common/logging.hh"
#include "dnn/cudnn_sim.hh"
#include "gpu/cluster.hh"

#include <algorithm>

namespace vdnn::core
{

namespace
{

/**
 * One derivation run: the profiling state shared by the passes. Each
 * trial runs on a private one-device cluster whose capacity is the
 * context's available share — profiling must not disturb (or assume
 * more than) the real device.
 */
struct Derivation
{
    Derivation(const net::Network &net_, const PlannerContext &ctx,
               ExecutorConfig exec)
        : net(net_), gpu(ctx.gpu), execCfg(exec),
          contention(ctx.contention)
    {
        gpu.dramCapacity = ctx.capacity();
        cudnn = std::make_unique<dnn::CudnnSim>(gpu);
    }

    TrialRecord trial(const MemoryPlan &plan, const std::string &what,
                      IterationResult *detail = nullptr);
    MemoryPlan staticPlan(bool conv_only, AlgoPreference pref);
    MemoryPlan noOffloadPlan(AlgoPreference pref);
    bool greedy(bool conv_only, MemoryPlan &out);

    const net::Network &net;
    gpu::GpuSpec gpu;
    std::unique_ptr<dnn::CudnnSim> cudnn;
    ExecutorConfig execCfg;
    bool contention;
    std::vector<TrialRecord> trials;
};

TrialRecord
Derivation::trial(const MemoryPlan &plan, const std::string &what,
                  IterationResult *detail)
{
    TrialRecord rec;
    rec.description = what;

    gpu::Cluster cluster({{gpu}, contention});
    gpu::Device &rt = cluster.device(0);
    MemoryManager mm(rt, cluster.pool(0), cluster.host(0), /*client=*/0);
    Executor ex(net, *cudnn, rt, mm, plan, execCfg);
    if (!ex.setup()) {
        rec.passed = false;
        rec.failReason =
            strFormat("setup OOM ('%s', requested %lld bytes)",
                      mm.pool().lastOom().tag.c_str(),
                      (long long)mm.pool().lastOom().requested);
        return rec;
    }
    IterationResult res = ex.runIteration();
    rec.passed = res.ok;
    rec.makespan = res.makespan();
    rec.failReason = res.failReason;
    if (detail)
        *detail = res;
    ex.teardown();
    return rec;
}

MemoryPlan
Derivation::staticPlan(bool conv_only, AlgoPreference pref)
{
    PlannerContext ctx = PlannerContext::exclusive(gpu, contention);
    if (conv_only)
        return OffloadConvPlanner(pref).plan(net, ctx);
    return OffloadAllPlanner(pref).plan(net, ctx);
}

MemoryPlan
Derivation::noOffloadPlan(AlgoPreference pref)
{
    // Layer-wise vDNN execution with an empty offload set: feature maps
    // stay resident, but allocation is still per layer (workspace is
    // transient, dead buffers are released).
    MemoryPlan plan = staticPlan(/*conv_only=*/true, pref);
    plan.clearOffloads();
    plan.provenance = strFormat("dyn: no offload %s",
                                algoPreferenceName(pref));
    return plan;
}

bool
Derivation::greedy(bool conv_only, MemoryPlan &out)
{
    // Start from the fastest algorithm everywhere and locally downgrade
    // the overflowing layer until the configuration fits (or a
    // non-workspace allocation fails, which algorithms cannot fix).
    MemoryPlan plan =
        staticPlan(conv_only, AlgoPreference::PerformanceOptimal);
    const char *set_name = conv_only ? "vDNN_conv" : "vDNN_all";

    for (int round = 0; round < DynamicPlanner::kMaxGreedyTrials;
         ++round) {
        IterationResult detail;
        TrialRecord rec =
            trial(plan, strFormat("greedy %s round %d", set_name, round),
                  &detail);
        trials.push_back(rec);
        if (rec.passed) {
            plan.provenance = strFormat(
                "dyn: greedy %s (%d downgrade rounds)", set_name, round);
            out = std::move(plan);
            return true;
        }
        if (detail.failKind != FailKind::Workspace ||
            detail.failLayer == net::kInputLayer) {
            return false; // algorithms cannot fix this overflow
        }
        // Downgrade: next fastest algorithm with strictly smaller
        // workspace than the one that overflowed.
        const auto &spec = net.node(detail.failLayer).spec;
        dnn::ConvAlgo cur = plan.algos[std::size_t(detail.failLayer)];
        Bytes cur_ws = dnn::convWorkspaceBytes(cur, spec);
        if (cur_ws <= 0)
            return false; // already at the zero-workspace floor
        dnn::ConvAlgo next = dnn::kMemoryOptimalAlgo;
        for (const auto &perf : cudnn->findConvAlgorithms(spec)) {
            if (perf.workspace < cur_ws) {
                next = perf.algo;
                break;
            }
        }
        plan.algos[std::size_t(detail.failLayer)] = next;
    }
    return false;
}

} // namespace

DynamicPlanner::DynamicPlanner(ExecutorConfig exec) : execCfg(exec) {}

MemoryPlan
DynamicPlanner::admissionPlan(const net::Network &net,
                              const PlannerContext &ctx)
{
    MemoryPlan floor =
        OffloadAllPlanner(AlgoPreference::MemoryOptimal).plan(net, ctx);
    floor.provenance = "dyn: admission floor (vDNN_all (m))";
    return floor;
}

MemoryPlan
DynamicPlanner::plan(const net::Network &net, const PlannerContext &ctx)
{
    Derivation d(net, ctx, execCfg);
    auto finish = [&](MemoryPlan plan) {
        plan.trials = std::move(d.trials);
        return plan;
    };

    // Pass 1: the least-memory configuration decides trainability.
    MemoryPlan all_m =
        d.staticPlan(/*conv_only=*/false, AlgoPreference::MemoryOptimal);
    TrialRecord base = d.trial(all_m, "vDNN_all (m) trainability probe");
    d.trials.push_back(base);
    if (!base.passed) {
        all_m.feasible = false;
        all_m.failReason = base.failReason;
        all_m.provenance = "dyn: untrainable";
        return finish(std::move(all_m));
    }

    // Pass 2: fastest algorithms, no offload — the performance ideal.
    MemoryPlan fast = d.noOffloadPlan(AlgoPreference::PerformanceOptimal);
    TrialRecord fast_rec = d.trial(fast, "no offload (p)");
    d.trials.push_back(fast_rec);
    if (fast_rec.passed)
        return finish(std::move(fast));

    // Pass 3: fastest algorithms with static offload sets.
    for (bool conv_only : {true, false}) {
        MemoryPlan p =
            d.staticPlan(conv_only, AlgoPreference::PerformanceOptimal);
        const char *set_name = conv_only ? "vDNN_conv" : "vDNN_all";
        TrialRecord rec = d.trial(p, strFormat("%s (p)", set_name));
        d.trials.push_back(rec);
        if (rec.passed) {
            p.provenance = strFormat("dyn: %s (p)", set_name);
            return finish(std::move(p));
        }
    }

    // Pass 4: greedy per-layer downgrade under conv, then all.
    MemoryPlan greedy_plan;
    if (d.greedy(/*conv_only=*/true, greedy_plan))
        return finish(std::move(greedy_plan));
    if (d.greedy(/*conv_only=*/false, greedy_plan))
        return finish(std::move(greedy_plan));

    // Pass 5: fall back to the known-good least-memory configuration.
    all_m.provenance = "dyn: fallback vDNN_all (m)";
    return finish(std::move(all_m));
}

} // namespace vdnn::core
