/**
 * @file
 * The vDNN prefetch layer-selection algorithm (Figure 10).
 *
 * Before a layer's backward computation starts, vDNN searches the
 * preceding layers (lower topological index) for the *closest* layer
 * whose input feature maps were offloaded and are not yet prefetched.
 * The search window is bounded by the next CONV layer: if a CONV layer
 * is reached without finding a candidate, the search fails (-1). This
 * bounding keeps prefetched data from arriving too far ahead of its
 * reuse, which would re-inflate GPU memory usage (Section III-B).
 *
 * This generalizes the paper's pseudo code to non-linear graphs: a
 * layer may own several input buffers (CONCAT), so offloaded/prefetched
 * state is tracked per buffer and a hit prefetches all of that layer's
 * offloaded-but-not-prefetched buffers.
 */

#ifndef VDNN_CORE_PREFETCH_HH
#define VDNN_CORE_PREFETCH_HH

#include "core/planner.hh"
#include "net/network.hh"

#include <vector>

namespace vdnn::core
{

/** Per-buffer transfer state consulted by the search. */
struct PrefetchState
{
    /** Buffer was offloaded to host during forward propagation. */
    std::vector<bool> offloaded;
    /** Buffer has been prefetched (or fetched on demand) already. */
    std::vector<bool> prefetched;

    explicit PrefetchState(std::size_t num_buffers)
        : offloaded(num_buffers, false), prefetched(num_buffers, false)
    {}

    /** Clear every flag (a new iteration); keeps the storage. */
    void
    reset()
    {
        offloaded.assign(offloaded.size(), false);
        prefetched.assign(prefetched.size(), false);
    }
};

/** Result of one search; callers keep one and reuse its storage. */
struct PrefetchCandidate
{
    net::LayerId layer = net::kInputLayer; ///< -1: nothing to prefetch
    /** The layer's input buffers that need prefetching. */
    std::vector<net::BufferId> buffers;

    bool found() const { return layer != net::kInputLayer; }
};

/**
 * Figure 10's findPrefetchLayer. Allocates nothing once @p out's
 * buffer vector has grown to the widest hit layer.
 *
 * @param net        the network
 * @param curr_layer the layer whose backward pass is about to start
 * @param state      per-buffer offload/prefetch flags; hit buffers are
 *                   marked prefetched
 * @param out        receives the hit layer and its buffers (found()
 *                   is false when the search fails)
 * @param bounded    search window bounded by the next CONV layer
 *                   (false = unbounded search, for the ablation study)
 * @param plan       optional plan whose per-buffer prefetch-priority
 *                   hints are honoured: a hit layer's buffers are
 *                   issued in descending priority, and buffers with a
 *                   negative priority are never prefetched (they fall
 *                   back to an on-demand fetch)
 */
void findPrefetchLayer(const net::Network &net, net::LayerId curr_layer,
                       PrefetchState &state, PrefetchCandidate &out,
                       bool bounded = true,
                       const MemoryPlan *plan = nullptr);

} // namespace vdnn::core

#endif // VDNN_CORE_PREFETCH_HH
