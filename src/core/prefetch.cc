#include "core/prefetch.hh"

#include "common/logging.hh"

#include <algorithm>

namespace vdnn::core
{

void
findPrefetchLayer(const net::Network &net, net::LayerId curr_layer,
                  PrefetchState &state, PrefetchCandidate &out,
                  bool bounded, const MemoryPlan *plan)
{
    VDNN_ASSERT(state.offloaded.size() == net.numBuffers() &&
                    state.prefetched.size() == net.numBuffers(),
                "prefetch state size mismatch");

    const auto &topo = net.topoOrder();
    int curr_idx = net.node(curr_layer).topoIndex;
    std::vector<net::BufferId> &cand = out.buffers;
    out.layer = net::kInputLayer;
    cand.clear();

    // Search all preceding layers, nearest first (Fig. 10 line 06).
    for (int idx = curr_idx - 1; idx >= 0; --idx) {
        net::LayerId id = topo[std::size_t(idx)];
        const net::LayerNode &n = net.node(id);

        // Gather this layer's input buffers that were offloaded and not
        // yet prefetched (Fig. 10 line 08).
        for (net::LayerId in_id : n.inputs) {
            net::BufferId b = net.producedBuffer(in_id);
            if (plan && plan->directive(b).prefetchPriority < 0)
                continue; // hinted out of overlapped prefetching
            if (state.offloaded[std::size_t(b)] &&
                !state.prefetched[std::size_t(b)]) {
                if (std::find(cand.begin(), cand.end(), b) == cand.end())
                    cand.push_back(b);
            }
        }
        if (!cand.empty()) {
            // Issue order within the hit layer: descending priority
            // hint. An in-place insertion sort (a layer has a handful
            // of inputs) that moves an element only past strictly
            // lower priorities, so equal priorities keep input order.
            if (plan) {
                for (std::size_t i = 1; i < cand.size(); ++i) {
                    net::BufferId b = cand[i];
                    int prio = plan->directive(b).prefetchPriority;
                    std::size_t j = i;
                    for (; j > 0 &&
                           plan->directive(cand[j - 1]).prefetchPriority <
                               prio;
                         --j) {
                        cand[j] = cand[j - 1];
                    }
                    cand[j] = b;
                }
            }
            // Flag as being prefetched by the current layer (line 10).
            for (net::BufferId b : cand)
                state.prefetched[std::size_t(b)] = true;
            out.layer = id;
            return;
        }

        // Reached the end of the search window without a candidate
        // (Fig. 10 line 14).
        if (bounded && n.spec.kind == dnn::LayerKind::Conv)
            return;
    }
}

} // namespace vdnn::core
