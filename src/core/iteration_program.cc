#include "core/iteration_program.hh"

#include "common/logging.hh"
#include "core/executor.hh"
#include "core/planner.hh"
#include "dnn/conv_algo.hh"

#include <algorithm>

namespace vdnn::core
{

const char *
opKindName(OpKind k)
{
    switch (k) {
      case OpKind::BeginIteration:
        return "begin";
      case OpKind::Alloc:
        return "alloc";
      case OpKind::Kernel:
        return "kernel";
      case OpKind::Offload:
        return "offload";
      case OpKind::OnDemandFetch:
        return "fetch";
      case OpKind::Prefetch:
        return "prefetch";
      case OpKind::Sync:
        return "sync";
      case OpKind::Release:
        return "release";
      case OpKind::Barrier:
        return "barrier";
      case OpKind::EndIteration:
        return "end";
    }
    return "?";
}

IterationProgram
IterationProgram::compile(const net::Network &net, const MemoryPlan &plan,
                          const ExecutorConfig &cfg)
{
    VDNN_ASSERT(net.finalized(), "network must be finalized");
    VDNN_ASSERT(plan.buffers.size() == net.numBuffers(),
                "plan does not match the network");
    const bool layerwise = !plan.staticAllocation;

    // Fig. 8: a buffer is released by the last layer whose backward
    // pass reads it.
    std::vector<std::vector<net::BufferId>> bwd_release(net.numLayers());
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        net::LayerId last = net.lastBwdUser(b);
        if (last != net::kInputLayer)
            bwd_release[std::size_t(last)].push_back(b);
    }

    IterationProgram p;
    p.ops.reserve(11 * net.numLayers() + 3); // 5 fwd + 6 bwd ops a layer
    auto structural = [&p](OpKind kind, bool backward) {
        p.ops.push_back(IterOp{kind, net::kInputLayer, backward, {}});
    };
    auto emit = [&](OpKind kind, net::LayerId id, bool backward,
                    std::vector<net::BufferId> buffers = {}) -> IterOp & {
        const net::LayerNode &n = net.node(id);
        IterOp &op = p.ops.emplace_back(
            IterOp{kind, id, backward, std::move(buffers), n.yBuffer});
        op.allocY = !n.spec.inPlace();
        bool ws_op = kind == OpKind::Alloc || kind == OpKind::Kernel;
        if (ws_op && layerwise && n.spec.kind == dnn::LayerKind::Conv) {
            op.wsBytes = dnn::convWorkspaceBytes(
                plan.algos[std::size_t(id)], n.spec);
        }
        return op;
    };
    auto inputs = [&net](net::LayerId id) {
        std::vector<net::BufferId> out;
        for (net::LayerId in_id : net.node(id).inputs)
            out.push_back(net.producedBuffer(in_id));
        return out;
    };

    structural(OpKind::BeginIteration, false);

    // Forward phase: allocate, compute, overlap the offload of the
    // layer's retired inputs, join at the boundary, release.
    for (net::LayerId id : net.topoOrder()) {
        std::vector<net::BufferId> ins = inputs(id);
        // The refcount rule of Fig. 3: the last forward reader offloads
        // (concat joins repeat an input; it is offloaded once).
        std::vector<net::BufferId> offloaded;
        for (net::BufferId b : ins) {
            if (plan.offloads(b) && net.buffer(b).lastFwdReader == id &&
                std::find(offloaded.begin(), offloaded.end(), b) ==
                    offloaded.end()) {
                offloaded.push_back(b);
            }
        }
        emit(OpKind::Alloc, id, false, ins);
        emit(OpKind::Kernel, id, false, ins);
        if (!offloaded.empty())
            emit(OpKind::Offload, id, false, std::move(offloaded));
        emit(OpKind::Sync, id, false);
        emit(OpKind::Release, id, false, std::move(ins));
    }

    structural(OpKind::Barrier, true);

    // Backward phase, reverse order: residency + gradients, overlap
    // the Fig. 10 prefetch with the kernels, join, release.
    for (auto it = net.topoOrder().rbegin(); it != net.topoOrder().rend();
         ++it) {
        net::LayerId id = *it;
        const net::LayerNode &n = net.node(id);
        std::vector<net::BufferId> needs;
        if (n.spec.backwardNeedsX())
            needs = inputs(id);
        if (n.spec.backwardNeedsY())
            needs.push_back(n.yBuffer);
        // dX: the network input receives no gradient.
        std::vector<net::BufferId> dx;
        for (net::LayerId in_id : n.inputs) {
            if (in_id != net::kInputLayer)
                dx.push_back(net.producedBuffer(in_id));
        }
        if (layerwise && !needs.empty())
            emit(OpKind::OnDemandFetch, id, true, needs);
        if (layerwise)
            emit(OpKind::Alloc, id, true, std::move(dx));
        if (layerwise && cfg.prefetchEnabled)
            emit(OpKind::Prefetch, id, true);
        emit(OpKind::Kernel, id, true, std::move(needs));
        emit(OpKind::Sync, id, true);
        IterOp &rel = emit(OpKind::Release, id, true,
                           std::move(bwd_release[std::size_t(id)]));
        rel.releaseDY = net.buffer(n.yBuffer).producer == id;
    }

    structural(OpKind::EndIteration, true);
    return p;
}

std::string
IterationProgram::dump(const net::Network &net) const
{
    std::string out;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const IterOp &op = ops[i];
        std::string where;
        if (op.layer != net::kInputLayer) {
            where = strFormat("%s %s", op.backward ? "bwd" : "fwd",
                              net.node(op.layer).spec.name.c_str());
        }
        out += strFormat("%4zu  %-8s %s\n", i, opKindName(op.kind),
                         where.c_str());
    }
    return out;
}

} // namespace vdnn::core
