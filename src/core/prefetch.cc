#include "core/prefetch.hh"

#include "common/logging.hh"

#include <algorithm>

namespace vdnn::core
{

PrefetchCandidate
findPrefetchLayer(const net::Network &net, net::LayerId curr_layer,
                  PrefetchState &state, bool bounded,
                  const MemoryPlan *plan)
{
    VDNN_ASSERT(state.offloaded.size() == net.numBuffers() &&
                    state.prefetched.size() == net.numBuffers(),
                "prefetch state size mismatch");

    const auto &topo = net.topoOrder();
    int curr_idx = net.node(curr_layer).topoIndex;

    // Search all preceding layers, nearest first (Fig. 10 line 06).
    for (int idx = curr_idx - 1; idx >= 0; --idx) {
        net::LayerId id = topo[std::size_t(idx)];
        const net::LayerNode &n = net.node(id);

        // Gather this layer's input buffers that were offloaded and not
        // yet prefetched (Fig. 10 line 08).
        PrefetchCandidate cand;
        for (net::LayerId in_id : n.inputs) {
            net::BufferId b = net.producedBuffer(in_id);
            if (plan && plan->directive(b).prefetchPriority < 0)
                continue; // hinted out of overlapped prefetching
            if (state.offloaded[std::size_t(b)] &&
                !state.prefetched[std::size_t(b)]) {
                if (std::find(cand.buffers.begin(), cand.buffers.end(),
                              b) == cand.buffers.end()) {
                    cand.buffers.push_back(b);
                }
            }
        }
        if (!cand.buffers.empty()) {
            // Issue order within the hit layer: descending priority
            // hint (stable, so equal priorities keep input order).
            if (plan) {
                std::stable_sort(
                    cand.buffers.begin(), cand.buffers.end(),
                    [&](net::BufferId a, net::BufferId b) {
                        return plan->directive(a).prefetchPriority >
                               plan->directive(b).prefetchPriority;
                    });
            }
            // Flag as being prefetched by the current layer (line 10).
            for (net::BufferId b : cand.buffers)
                state.prefetched[std::size_t(b)] = true;
            cand.layer = id;
            return cand;
        }

        // Reached the end of the search window without a candidate
        // (Fig. 10 line 14).
        if (bounded && n.spec.kind == dnn::LayerKind::Conv)
            return {};
    }
    return {};
}

} // namespace vdnn::core
