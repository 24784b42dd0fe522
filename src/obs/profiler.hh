/**
 * @file
 * First-iteration profile of a tenant: measured footprint, timings,
 * PCIe traffic, and activation sparsity.
 *
 * The Session fills a ProfiledFootprint when a tenant's first
 * iteration completes. It is an observation: admission reserves the
 * statically proven footprint (serve/admission.hh) and never revises
 * it, while re-plans feed the measured sparsity to the compressed-DMA
 * planner through PlannerContext::profile. Ids are plain ints
 * (BufferId / layer topo index) so this module depends on nothing
 * above common+stats.
 */

#ifndef VDNN_OBS_PROFILER_HH
#define VDNN_OBS_PROFILER_HH

#include "common/types.hh"

#include <vector>

namespace vdnn::obs
{

/** Measured timings of one layer (topo index) over one iteration. */
struct ProfiledLayer
{
    int id = -1;
    TimeNs fwd = 0;
    TimeNs bwd = 0;
};

/** Everything measured during a tenant's first iteration. */
struct ProfiledFootprint
{
    bool valid = false;
    /** Measured resident weights/workspace (survives iterations). */
    Bytes persistent = 0;
    /** Measured peak transient (activations) above the persistent set. */
    Bytes transientPeak = 0;
    TimeNs iterationTime = 0;
    /** Offload + prefetch + on-demand bytes moved over PCIe. */
    Bytes pcieBytes = 0;
    std::vector<ProfiledLayer> layers;
    /**
     * Measured activation sparsity per buffer, indexed by BufferId;
     * entries < 0 mean "not a ReLU output / not measured".
     */
    std::vector<double> bufferSparsity;

    /** Sparsity of buffer @p b, or -1 when unmeasured. */
    double sparsityFor(int b) const
    {
        if (b < 0 || std::size_t(b) >= bufferSparsity.size())
            return -1.0;
        return bufferSparsity[std::size_t(b)];
    }
};

/**
 * The simulated "ground truth" sparsity of a ReLU output at relative
 * network depth @p depthFrac in [0,1]. Deeper activations are sparser
 * (matching the cDMA paper's observation), with a small deterministic
 * per-buffer jitter so measured values differ from any analytic model.
 */
double groundTruthReluSparsity(int bufferId, double depthFrac);

} // namespace vdnn::obs

#endif // VDNN_OBS_PROFILER_HH
