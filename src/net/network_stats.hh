/**
 * @file
 * Analytic network-level memory accounting.
 *
 * Computes, without running the simulator, the quantities behind the
 * paper's motivation figures:
 *
 *  - Fig. 1: baseline network-wide allocation size and the maximum
 *    fraction of it any single layer's computation actually touches;
 *  - Fig. 4: breakdown into weights / feature maps / gradient maps /
 *    workspace;
 *  - Fig. 5: per-layer forward memory usage.
 *
 * The baseline model reproduces the improved Torch-style policy of
 * Section IV-A: network-wide allocation of all feature maps and
 * weights, the minimal number of gradient-map buffers (reused across
 * layers as backward proceeds), and a single workspace buffer sized to
 * the maximum requirement of any layer.
 */

#ifndef VDNN_NET_NETWORK_STATS_HH
#define VDNN_NET_NETWORK_STATS_HH

#include "common/types.hh"
#include "dnn/cudnn_sim.hh"
#include "net/network.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace vdnn::net
{

/** Per-layer convolution algorithm assignment (indexed by LayerId;
 *  entries for non-CONV layers are ignored). */
using AlgoAssignment = std::vector<dnn::ConvAlgo>;

/** Every layer uses the memory-optimal IMPLICIT_GEMM ("(m)"). */
AlgoAssignment memoryOptimalAlgos(const Network &net);

/** Every CONV layer uses its fastest applicable algorithm ("(p)"). */
AlgoAssignment performanceOptimalAlgos(const Network &net,
                                       const dnn::CudnnSim &cudnn);

/** Functional breakdown of a network-wide (baseline) allocation. */
struct MemoryBreakdown
{
    Bytes weights = 0;      ///< W + dW of all layers
    Bytes featureMaps = 0;  ///< input batch + every buffer's Y
    Bytes gradientMaps = 0; ///< reused dX/dY buffers (peak concurrent)
    Bytes workspace = 0;    ///< single shared WS (max over layers)

    Bytes
    total() const
    {
        return weights + featureMaps + gradientMaps + workspace;
    }

    double
    featureMapFraction() const
    {
        return total() > 0 ? double(featureMaps) / double(total()) : 0.0;
    }
};

/** One row of the Fig. 5 style per-layer usage chart. */
struct LayerMemoryRow
{
    LayerId id = -1;
    std::string name;
    dnn::LayerKind kind = dnn::LayerKind::Conv;
    Bytes x = 0;       ///< input feature maps read
    Bytes y = 0;       ///< output feature maps written (0 if in-place)
    Bytes workspace = 0;
    Bytes weights = 0; ///< W (excluding dW)
};

class NetworkStats
{
  public:
    NetworkStats(const Network &net, const dnn::CudnnSim &cudnn);

    /** Full-network baseline breakdown under @p algos. */
    MemoryBreakdown baselineBreakdown(const AlgoAssignment &algos) const;

    /** Baseline breakdown restricted to the vDNN-managed region
     *  (feature-extraction layers + input + their gradients + WS). */
    MemoryBreakdown managedBreakdown(const AlgoAssignment &algos) const;

    /** Constant classifier footprint (weights+grads+activations). */
    Bytes classifierBytes() const;

    /** Scope selector for gradient accounting. */
    enum class GradScope : std::uint8_t { All, Managed, Classifier };

    /**
     * Peak concurrent gradient-map bytes when gradient buffers are
     * allocated on demand and released as soon as their consumer
     * finishes (the "minimally required number ... reused" policy),
     * counting only the gradients @p scope selects.
     */
    Bytes peakGradientBytes(GradScope scope) const;

    /** Largest per-layer workspace requirement under @p algos. */
    Bytes maxWorkspaceBytes(const AlgoAssignment &algos,
                            bool managed_only = false) const;

    /** Fig. 5 rows (CONV and FC layers, forward direction). */
    std::vector<LayerMemoryRow>
    perLayerForward(const AlgoAssignment &algos) const;

    /**
     * The largest memory any single layer's forward or backward
     * computation touches (its X, Y, gradients, weights, workspace) —
     * the numerator of Fig. 1's "maximum usage (%)".
     */
    Bytes maxLayerWiseUsage(const AlgoAssignment &algos) const;

    const Network &network() const { return net; }

  private:
    Bytes layerWorkspace(LayerId id, const AlgoAssignment &algos) const;

    const Network &net;
    const dnn::CudnnSim &cudnn;
};

} // namespace vdnn::net

#endif // VDNN_NET_NETWORK_STATS_HH
