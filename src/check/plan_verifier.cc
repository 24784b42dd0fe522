#include "check/plan_verifier.hh"

#include "check/program_verifier.hh"
#include "common/logging.hh"
#include "core/iteration_program.hh"
#include "dnn/cudnn_sim.hh"
#include "net/network_stats.hh"

#include <map>
#include <utility>

namespace vdnn::check
{

using core::BufferDirective;
using core::MemoryPlan;
using core::PlannerContext;

namespace
{

void
checkDirectives(const net::Network &net, const MemoryPlan &plan,
                CheckResult &out)
{
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        const BufferDirective &d = plan.directive(b);
        if (d.offloaded() && plan.staticAllocation) {
            out.add(DiagCode::StaticPlanTraffic, Severity::Error,
                    strFormat("static-allocation plan carries an "
                              "offload directive for buffer %d (it "
                              "would silently never execute)",
                              b),
                    -1, -1, b);
            continue;
        }
        if (d.offloaded() && !core::offloadEligible(net, b)) {
            out.add(DiagCode::IneligibleOffload, Severity::Error,
                    strFormat("offload directive on buffer %d which is "
                              "not offload-eligible (classifier "
                              "region, no backward reuse, or no last "
                              "forward reader to issue it)",
                              b),
                    -1, -1, b);
        }
        if (d.compressed && !d.offloaded()) {
            out.add(DiagCode::CompressedDense, Severity::Error,
                    strFormat("compressed directive on buffer %d which "
                              "is kept resident (nothing crosses PCIe)",
                              b),
                    -1, -1, b);
        }
        if (d.compressed && d.offloaded() &&
            !core::holdsReluOutput(net, b)) {
            out.add(DiagCode::CompressedDense, Severity::Error,
                    strFormat("compressed directive on buffer %d which "
                              "never holds post-ReLU data (dense maps "
                              "do not compress under ZVC)",
                              b),
                    -1, -1, b);
        }
        if (d.compressed && (d.dmaScale <= 0.0 || d.dmaScale > 1.0)) {
            out.add(DiagCode::BadDmaScale, Severity::Error,
                    strFormat("dmaScale %.3f of buffer %d outside "
                              "(0, 1]",
                              d.dmaScale, b),
                    -1, -1, b);
        }
        if (!d.compressed && d.dmaScale != 1.0) {
            out.add(DiagCode::BadDmaScale, Severity::Error,
                    strFormat("dmaScale %.3f on buffer %d without "
                              "compression (the engine would ignore "
                              "it — contradictory directive)",
                              d.dmaScale, b),
                    -1, -1, b);
        }
    }
}

/**
 * The Fig. 10 search prefetches a candidate layer's offloaded input
 * buffers together and breaks priority ties by buffer id — a silent,
 * accidental order. Two offloaded buffers the same layer's backward
 * will consume (a concat join) with the same positive priority make
 * the intended issue order ambiguous.
 */
void
checkPrefetchPriorities(const net::Network &net, const MemoryPlan &plan,
                        CheckResult &out)
{
    for (net::LayerId id : net.topoOrder()) {
        std::map<int, net::BufferId> seen;
        for (net::LayerId in_id : net.node(id).inputs) {
            net::BufferId b = net.producedBuffer(in_id);
            if (!plan.offloads(b))
                continue;
            const BufferDirective &d = plan.directive(b);
            if (d.prefetchPriority <= 0)
                continue; // 0 = default, negative = on-demand; fine
            auto [it, fresh] = seen.emplace(d.prefetchPriority, b);
            if (!fresh && it->second != b) {
                out.add(DiagCode::PriorityConflict, Severity::Warning,
                        strFormat("buffers %d and %d (both prefetch "
                                  "candidates at layer %d) share "
                                  "prefetch priority %d — issue order "
                                  "falls back to buffer id",
                                  it->second, b, id,
                                  d.prefetchPriority),
                        -1, id, b);
            }
        }
    }
}

} // namespace

CheckResult
verifyCompiledPlan(const net::Network &net, const MemoryPlan &plan,
                   const core::ExecutorConfig &cfg,
                   const core::IterationProgram &prog,
                   const net::NetworkStats &stats, Bytes share)
{
    CheckResult out;
    checkDirectives(net, plan, out);
    checkPrefetchPriorities(net, plan, out);
    out.merge(verifyProgram(net, plan, cfg, prog));

    out.persistentBytes =
        core::persistentFootprint(net, plan, stats).total();
    out.provablePeakBytes = out.persistentBytes + out.peakTransientBytes;
    if (out.provablePeakBytes > share) {
        out.add(DiagCode::ShareExceeded, Severity::Warning,
                strFormat("provable peak residency %lld B exceeds the "
                          "granted share %lld B (persistent %lld B + "
                          "transient peak %lld B)",
                          (long long)out.provablePeakBytes,
                          (long long)share,
                          (long long)out.persistentBytes,
                          (long long)out.peakTransientBytes));
    }
    return out;
}

CheckResult
verifyPlan(const net::Network &net, const MemoryPlan &plan,
           const PlannerContext &ctx, const core::ExecutorConfig &cfg,
           const CheckConfig & /*ccfg*/)
{
    CheckResult out;
    VDNN_ASSERT(net.finalized(), "network must be finalized");

    if (!plan.feasible) {
        out.add(DiagCode::Infeasible, Severity::Error,
                strFormat("infeasible plan reached verification: %s",
                          plan.failReason.empty()
                              ? "(no failReason recorded)"
                              : plan.failReason.c_str()));
        return out;
    }
    if (plan.buffers.size() != net.numBuffers() ||
        plan.algos.size() != net.numLayers()) {
        out.add(DiagCode::PlanShape, Severity::Error,
                strFormat("plan does not match the network (%zu "
                          "directives for %zu buffers, %zu algos for "
                          "%zu layers)",
                          plan.buffers.size(), net.numBuffers(),
                          plan.algos.size(), net.numLayers()));
        return out; // nothing below is well-defined
    }

    dnn::CudnnSim cudnn(ctx.gpu);
    return verifyCompiledPlan(
        net, plan, cfg, core::IterationProgram::compile(net, plan, cfg),
        net::NetworkStats(net, cudnn), ctx.capacity());
}

} // namespace vdnn::check
