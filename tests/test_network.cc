/**
 * @file
 * Unit tests for the network graph: topology, buffer derivation,
 * reference counts (Fig. 3), backward-use analysis and the classifier
 * boundary.
 */

#include "net/network.hh"

#include "common/logging.hh"
#include "dnn/layer.hh"

#include <gtest/gtest.h>

using namespace vdnn;
using namespace vdnn::dnn;
using namespace vdnn::net;

namespace
{

/** conv -> relu -> pool -> fc -> loss on a small input. */
std::unique_ptr<Network>
linearNet()
{
    TensorShape in{4, 3, 32, 32};
    auto net = std::make_unique<Network>("linear", in);
    ConvParams cp;
    cp.outChannels = 8;
    cp.padH = cp.padW = 1;
    net->append(makeConv("conv1", in, cp));
    net->append(makeActivation("relu1", net->node(0).spec.out));
    net->append(makePool("pool1", net->node(1).spec.out, PoolParams{}));
    net->append(makeFc("fc1", net->node(2).spec.out, FcParams{10}));
    net->append(makeSoftmaxLoss("loss", net->node(3).spec.out));
    net->finalize();
    return net;
}

/**
 * The Figure 3 fork/join graph: layer1 forks into layer2 and layer3
 * (both read its output), whose outputs join at layer5 (concat);
 * layer4 sits between layer3 and the join.
 */
std::unique_ptr<Network>
forkJoinNet()
{
    TensorShape in{2, 8, 16, 16};
    auto net = std::make_unique<Network>("forkjoin", in);
    ConvParams cp;
    cp.outChannels = 8;
    cp.kernelH = cp.kernelW = 1;
    LayerId l1 = net->addLayer(makeConv("layer1", in, cp),
                               {kInputLayer});
    TensorShape mid = net->node(l1).spec.out;
    LayerId l2 = net->addLayer(makeConv("layer2", mid, cp), {l1});
    LayerId l3 = net->addLayer(makeConv("layer3", mid, cp), {l1});
    LayerId l4 = net->addLayer(makeConv("layer4", mid, cp), {l3});
    std::vector<TensorShape> shapes = {net->node(l2).spec.out,
                                       net->node(l4).spec.out};
    net->addLayer(makeConcat("layer5", shapes), {l2, l4});
    net->finalize();
    return net;
}

} // namespace

TEST(Network, LinearTopologyOrder)
{
    auto net = linearNet();
    ASSERT_EQ(net->numLayers(), 5u);
    const auto &topo = net->topoOrder();
    for (std::size_t i = 0; i < topo.size(); ++i)
        EXPECT_EQ(net->node(topo[i]).topoIndex, int(i));
    // A linear chain's topo order is the insertion order.
    for (std::size_t i = 0; i < topo.size(); ++i)
        EXPECT_EQ(topo[i], LayerId(i));
}

TEST(Network, ConsumersDerivedFromInputs)
{
    auto net = linearNet();
    EXPECT_EQ(net->node(0).consumers, (std::vector<LayerId>{1}));
    EXPECT_EQ(net->node(3).consumers, (std::vector<LayerId>{4}));
    EXPECT_TRUE(net->node(4).consumers.empty());
}

TEST(Network, InPlaceLayersShareBuffers)
{
    auto net = linearNet();
    // relu1 is in-place: its X and Y buffers are conv1's output buffer.
    const LayerNode &conv1 = net->node(0);
    const LayerNode &relu1 = net->node(1);
    EXPECT_EQ(relu1.xBuffer, conv1.yBuffer);
    EXPECT_EQ(relu1.yBuffer, conv1.yBuffer);
    // pool1 reads the same buffer but writes a fresh one.
    const LayerNode &pool1 = net->node(2);
    EXPECT_EQ(pool1.xBuffer, conv1.yBuffer);
    EXPECT_NE(pool1.yBuffer, conv1.yBuffer);
}

TEST(Network, BufferCountExcludesInPlaceLayers)
{
    auto net = linearNet();
    // input + conv1.Y + pool1.Y + fc1.Y + loss.Y (relu is in-place).
    EXPECT_EQ(net->numBuffers(), 5u);
}

TEST(Network, InputBufferPropertiesAndReaders)
{
    auto net = linearNet();
    const Buffer &in = net->buffer(net->inputBuffer());
    EXPECT_EQ(in.producer, kInputLayer);
    ASSERT_EQ(in.readers.size(), 1u);
    EXPECT_EQ(in.readers[0], 0); // conv1
    EXPECT_EQ(in.refCount, 1);
    EXPECT_EQ(net->producedBuffer(kInputLayer), net->inputBuffer());
    // relu1 is in place: it "produces" conv1's buffer.
    EXPECT_EQ(net->producedBuffer(1), net->node(0).yBuffer);
}

TEST(Network, RefcountMatchesFigure3)
{
    auto net = forkJoinNet();
    // layer1's output is consumed by layer2 and layer3: Refcnt = 2.
    const Buffer &b = net->buffer(net->node(0).yBuffer);
    EXPECT_EQ(b.refCount, 2);
    EXPECT_EQ(b.readers.size(), 2u);
    // The branch outputs have Refcnt = 1 (the concat).
    EXPECT_EQ(net->buffer(net->node(1).yBuffer).refCount, 1);
    EXPECT_EQ(net->buffer(net->node(3).yBuffer).refCount, 1);
}

TEST(Network, LastFwdReaderIsTopoLast)
{
    auto net = forkJoinNet();
    const Buffer &b = net->buffer(net->node(0).yBuffer);
    // layer3 is added after layer2, so it reads layer1's output last.
    EXPECT_EQ(b.lastFwdReader, 2);
}

TEST(Network, BwdUsersFollowLayerKinds)
{
    auto net = linearNet();
    // conv1's Y buffer: needed by relu1 (Y, in-place) and pool1 (X).
    const Buffer &conv_out = net->buffer(net->node(0).yBuffer);
    EXPECT_EQ(conv_out.bwdUsers, (std::vector<LayerId>{1, 2}));
    // Backward runs in reverse order, so the *lowest*-topo user is the
    // release point.
    EXPECT_EQ(net->lastBwdUser(net->node(0).yBuffer), 1);
    // The input buffer is needed by conv1's weight-gradient pass.
    EXPECT_EQ(net->lastBwdUser(net->inputBuffer()), 0);
}

TEST(Network, ClassifierBoundaryAtFirstFc)
{
    auto net = linearNet();
    EXPECT_FALSE(net->node(0).classifier);
    EXPECT_FALSE(net->node(2).classifier);
    EXPECT_TRUE(net->node(3).classifier); // fc1
    EXPECT_TRUE(net->node(4).classifier); // loss
    EXPECT_FALSE(net->buffer(net->node(2).yBuffer).classifier);
    EXPECT_TRUE(net->buffer(net->node(3).yBuffer).classifier);
}

TEST(Network, TotalWeightBytes)
{
    auto net = linearNet();
    Bytes expected = 0;
    for (std::size_t i = 0; i < net->numLayers(); ++i)
        expected += net->node(LayerId(i)).spec.weightBytes();
    EXPECT_EQ(net->totalWeightBytes(), expected);
    EXPECT_GT(expected, 0);
}

TEST(Network, CountKind)
{
    auto net = linearNet();
    EXPECT_EQ(net->countKind(LayerKind::Conv), 1);
    EXPECT_EQ(net->countKind(LayerKind::Fc), 1);
    EXPECT_EQ(net->countKind(LayerKind::Lrn), 0);
}

TEST(Network, ConcatReadsAllBranchBuffers)
{
    auto net = forkJoinNet();
    const LayerNode &concat = net->node(4);
    ASSERT_EQ(concat.inputs.size(), 2u);
    // Both branch buffers list the concat as a reader.
    for (LayerId in_id : concat.inputs) {
        const Buffer &b = net->buffer(net->node(in_id).yBuffer);
        EXPECT_EQ(b.readers.back(), 4);
    }
}

TEST(NetworkDeath, MismatchedShapesRejected)
{
    TensorShape in{2, 3, 8, 8};
    Network net("bad", in);
    ConvParams cp;
    cp.outChannels = 4;
    cp.padH = cp.padW = 1;
    net.addLayer(makeConv("c1", in, cp), {kInputLayer});
    // Declares an input shape that does not match c1's output.
    LayerSpec wrong = makeConv("c2", TensorShape{2, 8, 8, 8}, cp);
    EXPECT_DEATH(net.addLayer(wrong, {0}), "producer yields");
}

TEST(NetworkDeath, FinalizeTwicePanics)
{
    auto net = linearNet();
    EXPECT_DEATH(net->finalize(), "finalize");
}

TEST(NetworkDeath, ForwardReferenceRejected)
{
    TensorShape in{2, 3, 8, 8};
    Network net("bad", in);
    ConvParams cp;
    cp.outChannels = 4;
    cp.padH = cp.padW = 1;
    net.addLayer(makeConv("c1", in, cp), {kInputLayer});
    LayerSpec next = makeConv("c2", net.node(0).spec.out, cp);
    EXPECT_DEATH(net.addLayer(next, {5}), "");
}
