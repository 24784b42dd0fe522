/**
 * @file
 * DNN computation graph.
 *
 * A Network is a DAG of layers. Linear chains cover AlexNet/OverFeat/
 * VGG; GoogLeNet's inception modules exercise the one-to-many (fork)
 * and many-to-one (join) dependencies of Figure 3, which drive vDNN's
 * reference-count rule: a layer's input feature map may only be
 * offloaded/released by its *last* consumer.
 *
 * Besides the layer DAG, finalize() derives the *buffer* view of the
 * graph: each non-in-place layer's output Y creates a buffer; in-place
 * layers (ACTV/DROPOUT, footnote 1 of the paper) alias and overwrite
 * their input buffer. All memory-management decisions (offload,
 * release, prefetch) operate on buffers.
 */

#ifndef VDNN_NET_NETWORK_HH
#define VDNN_NET_NETWORK_HH

#include "common/types.hh"
#include "dnn/layer.hh"

#include <string>
#include <vector>

namespace vdnn::net
{

using LayerId = int;
using BufferId = int;

/** Pseudo layer-id denoting the network input batch. */
inline constexpr LayerId kInputLayer = -1;

struct LayerNode
{
    dnn::LayerSpec spec;
    /** Producer layers (kInputLayer marks the network input). */
    std::vector<LayerId> inputs;
    /** Layers consuming this layer's output. */
    std::vector<LayerId> consumers;
    /** Position in the topological execution order. */
    int topoIndex = -1;
    /** Buffer this layer reads as X (first input's buffer). */
    BufferId xBuffer = -1;
    /** Buffer this layer writes as Y (== xBuffer for in-place layers). */
    BufferId yBuffer = -1;
    /** Part of the classifier tail (first FC layer onward)? */
    bool classifier = false;
};

/**
 * A feature-map buffer: the unit of vDNN offload/release decisions.
 */
struct Buffer
{
    BufferId id = -1;
    /** Creating layer; kInputLayer for the input image batch. */
    LayerId producer = kInputLayer;
    dnn::TensorShape shape;
    /** Layers that read this buffer as their X, in topo order. */
    std::vector<LayerId> readers;
    /**
     * Reference count of pending consumers during forward propagation
     * (the Refcnt of Figure 3). Static value; the executor decrements a
     * copy at run time.
     */
    int refCount = 0;
    /** Last forward reader (topo order); -1 when never read. */
    LayerId lastFwdReader = kInputLayer;
    /** Layers whose *backward* pass reads this buffer (X or Y role). */
    std::vector<LayerId> bwdUsers;
    /** Belongs to the classifier region (not vDNN-managed). */
    bool classifier = false;

    Bytes bytes() const { return shape.bytes(); }
};

class Network
{
  public:
    /**
     * @param name  display name, e.g. "VGG-16 (256)"
     * @param input the input image batch shape (N x C x H x W)
     */
    Network(std::string name, dnn::TensorShape input);

    /**
     * Append a layer fed by @p inputs (layer ids or kInputLayer).
     * The spec's input shape must match the producer's output shape
     * (channel-concatenation for CONCAT layers).
     * @return the new layer's id
     */
    LayerId addLayer(dnn::LayerSpec spec, std::vector<LayerId> inputs);

    /** Convenience for linear chains: feed from the last added layer. */
    LayerId append(dnn::LayerSpec spec);

    /**
     * Validate the DAG, compute the topological execution order,
     * consumer lists, buffer table and reference counts. Must be called
     * once after construction; the network is immutable afterwards.
     */
    void finalize();

    bool finalized() const { return isFinalized; }

    // --- topology access -------------------------------------------------
    const std::string &name() const { return netName; }
    const dnn::TensorShape &inputShape() const { return input; }
    std::int64_t batch() const { return input.n; }

    std::size_t numLayers() const { return nodes.size(); }
    const LayerNode &node(LayerId id) const;
    const std::vector<LayerId> &topoOrder() const;

    std::size_t numBuffers() const { return buffers.size(); }
    const Buffer &buffer(BufferId id) const;
    /** The buffer holding the network input batch. */
    BufferId inputBuffer() const { return 0; }
    /** The buffer @p producer writes: its Y, or the input batch for
     *  kInputLayer. */
    BufferId producedBuffer(LayerId producer) const
    {
        return producer == kInputLayer ? inputBuffer()
                                       : node(producer).yBuffer;
    }

    /** Id of the last layer a given buffer must stay alive for during
     *  backward propagation; kInputLayer if unused in backward. */
    LayerId lastBwdUser(BufferId id) const;

    // --- aggregate queries -------------------------------------------------
    /** Total weight bytes (all CONV + FC layers). */
    Bytes totalWeightBytes() const;
    /** Number of layers of a given kind. */
    int countKind(dnn::LayerKind kind) const;
    /** Total forward direct-conv FLOPs (CONV layers only). */
    Flops totalConvFlops() const;

  private:
    void computeTopoOrder();
    void buildBuffers();
    void markClassifier();

    std::string netName;
    dnn::TensorShape input;
    std::vector<LayerNode> nodes;
    std::vector<Buffer> buffers;
    std::vector<LayerId> topo;
    bool isFinalized = false;
};

} // namespace vdnn::net

#endif // VDNN_NET_NETWORK_HH
