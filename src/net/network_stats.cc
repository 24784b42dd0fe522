#include "net/network_stats.hh"

#include "common/logging.hh"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace vdnn::net
{

using dnn::ConvAlgo;
using dnn::LayerKind;

AlgoAssignment
memoryOptimalAlgos(const Network &net)
{
    return AlgoAssignment(net.numLayers(), dnn::kMemoryOptimalAlgo);
}

AlgoAssignment
performanceOptimalAlgos(const Network &net, const dnn::CudnnSim &cudnn)
{
    AlgoAssignment algos(net.numLayers(), dnn::kMemoryOptimalAlgo);
    for (LayerId id : net.topoOrder()) {
        const auto &spec = net.node(id).spec;
        if (spec.kind == LayerKind::Conv)
            algos[std::size_t(id)] = cudnn.fastestAlgo(spec);
    }
    return algos;
}

NetworkStats::NetworkStats(const Network &net_, const dnn::CudnnSim &cudnn_)
    : net(net_), cudnn(cudnn_)
{
    VDNN_ASSERT(net.finalized(), "network must be finalized");
}

Bytes
NetworkStats::layerWorkspace(LayerId id, const AlgoAssignment &algos) const
{
    const auto &spec = net.node(id).spec;
    if (spec.kind != LayerKind::Conv)
        return 0;
    VDNN_ASSERT(algos.size() == net.numLayers(),
                "algo assignment size mismatch");
    return dnn::convWorkspaceBytes(algos[std::size_t(id)], spec);
}

Bytes
NetworkStats::maxWorkspaceBytes(const AlgoAssignment &algos,
                                bool managed_only) const
{
    Bytes max_ws = 0;
    for (LayerId id : net.topoOrder()) {
        if (managed_only && net.node(id).classifier)
            continue;
        max_ws = std::max(max_ws, layerWorkspace(id, algos));
    }
    return max_ws;
}

Bytes
NetworkStats::peakGradientBytes(GradScope scope) const
{
    // Replay backward propagation in reverse topological order with
    // on-demand gradient buffers: g(b) is allocated by the last consumer
    // of buffer b (which writes its dX into it) and freed once b's
    // producer has consumed it as its dY. The input buffer never gets a
    // gradient: frameworks skip dX of the first layer.
    std::unordered_map<BufferId, Bytes> live; // gradient buffers
    Bytes current = 0;
    Bytes peak = 0;

    auto counted = [&](BufferId b) {
        switch (scope) {
          case GradScope::All:
            return true;
          case GradScope::Managed:
            return !net.buffer(b).classifier;
          case GradScope::Classifier:
            return net.buffer(b).classifier;
        }
        return true;
    };
    auto allocGrad = [&](BufferId b) {
        if (b == net.inputBuffer())
            return; // no input gradient
        if (live.count(b))
            return;
        Bytes sz = net.buffer(b).bytes();
        live.emplace(b, sz);
        if (counted(b)) {
            current += sz;
            peak = std::max(peak, current);
        }
    };
    auto freeGrad = [&](BufferId b) {
        auto it = live.find(b);
        if (it == live.end())
            return;
        if (counted(b))
            current -= it->second;
        live.erase(it);
    };

    const auto &order = net.topoOrder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        LayerId id = *it;
        const LayerNode &n = net.node(id);
        // The layer consumes its dY (gradient of its output buffer) and
        // produces dX into the gradient of each input buffer.
        allocGrad(n.yBuffer);
        for (LayerId in_id : n.inputs)
            allocGrad(net.producedBuffer(in_id));
        peak = std::max(peak, current);
        // Once the producer of a buffer has run its backward pass, the
        // buffer's gradient has been fully consumed.
        if (net.buffer(n.yBuffer).producer == id)
            freeGrad(n.yBuffer);
    }
    return peak;
}

MemoryBreakdown
NetworkStats::baselineBreakdown(const AlgoAssignment &algos) const
{
    MemoryBreakdown b;
    // W persistently, plus a single shared max-size dW buffer: weight
    // gradients are applied in place per layer during backward (part of
    // the improved baseline discipline of Section IV-A, [38, 39]).
    Bytes max_dw = 0;
    for (LayerId id : net.topoOrder()) {
        Bytes w = net.node(id).spec.weightBytes();
        b.weights += w;
        max_dw = std::max(max_dw, w);
    }
    b.weights += max_dw;
    for (BufferId i = 0; i < BufferId(net.numBuffers()); ++i)
        b.featureMaps += net.buffer(i).bytes();
    b.gradientMaps = peakGradientBytes(GradScope::All);
    b.workspace = maxWorkspaceBytes(algos, false);
    return b;
}

Bytes
NetworkStats::classifierBytes() const
{
    Bytes total = 0;
    Bytes max_dw = 0;
    for (LayerId id : net.topoOrder()) {
        if (net.node(id).classifier) {
            Bytes w = net.node(id).spec.weightBytes();
            total += w;
            max_dw = std::max(max_dw, w);
        }
    }
    total += max_dw;
    for (BufferId i = 0; i < BufferId(net.numBuffers()); ++i) {
        if (net.buffer(i).classifier)
            total += net.buffer(i).bytes();
    }
    // Classifier gradient maps: difference between full and managed
    // gradient peaks approximates the classifier-resident share.
    total += peakGradientBytes(GradScope::All) -
             peakGradientBytes(GradScope::Managed);
    return total;
}

MemoryBreakdown
NetworkStats::managedBreakdown(const AlgoAssignment &algos) const
{
    MemoryBreakdown b;
    Bytes max_dw = 0;
    for (LayerId id : net.topoOrder()) {
        if (!net.node(id).classifier) {
            Bytes w = net.node(id).spec.weightBytes();
            b.weights += w;
            max_dw = std::max(max_dw, w);
        }
    }
    b.weights += max_dw;
    for (BufferId i = 0; i < BufferId(net.numBuffers()); ++i) {
        if (!net.buffer(i).classifier)
            b.featureMaps += net.buffer(i).bytes();
    }
    b.gradientMaps = peakGradientBytes(GradScope::Managed);
    b.workspace = maxWorkspaceBytes(algos, true);
    return b;
}

std::vector<LayerMemoryRow>
NetworkStats::perLayerForward(const AlgoAssignment &algos) const
{
    std::vector<LayerMemoryRow> rows;
    for (LayerId id : net.topoOrder()) {
        const LayerNode &n = net.node(id);
        if (n.spec.kind != LayerKind::Conv &&
            n.spec.kind != LayerKind::Fc) {
            continue;
        }
        LayerMemoryRow row;
        row.id = id;
        row.name = n.spec.name;
        row.kind = n.spec.kind;
        row.x = n.spec.in.bytes();
        row.y = n.spec.inPlace() ? 0 : n.spec.out.bytes();
        row.workspace = layerWorkspace(id, algos);
        row.weights = n.spec.weightBytes();
        rows.push_back(std::move(row));
    }
    return rows;
}

Bytes
NetworkStats::maxLayerWiseUsage(const AlgoAssignment &algos) const
{
    Bytes max_usage = 0;
    for (LayerId id : net.topoOrder()) {
        const LayerNode &n = net.node(id);
        const auto &spec = n.spec;
        Bytes x = spec.in.bytes();
        Bytes y = spec.inPlace() ? 0 : spec.out.bytes();
        Bytes w = spec.weightBytes();
        Bytes ws = layerWorkspace(id, algos);

        // Forward: X + Y + W + WS.
        Bytes fwd = x + y + w + ws;

        // Backward: dY + dX (+ X and/or Y as the kind requires)
        // + W + dW + WS.
        Bytes bwd = spec.out.bytes() + spec.in.bytes() + 2 * w + ws;
        if (spec.backwardNeedsX())
            bwd += x;
        if (spec.backwardNeedsY())
            bwd += spec.out.bytes();

        max_usage = std::max({max_usage, fwd, bwd});
    }
    return max_usage;
}

} // namespace vdnn::net
