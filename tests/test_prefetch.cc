/**
 * @file
 * Tests for the findPrefetchLayer algorithm (Figure 10) against the
 * paper's pseudo code semantics: nearest-first search, the
 * offloaded-and-not-prefetched predicate, the CONV-bounded window, and
 * the generalization to fork/join graphs.
 */

#include "core/prefetch.hh"

#include "dnn/layer.hh"
#include "net/builders.hh"
#include "net/network.hh"

#include <gtest/gtest.h>

using namespace vdnn;
using namespace vdnn::core;
using namespace vdnn::dnn;
using namespace vdnn::net;

namespace
{

/** conv1 relu1 conv2 relu2 pool1 conv3 relu3 loss — VGG-flavoured. */
std::unique_ptr<Network>
chainNet()
{
    TensorShape in{2, 8, 16, 16};
    auto net = std::make_unique<Network>("chain", in);
    ConvParams cp;
    cp.outChannels = 8;
    cp.padH = cp.padW = 1;
    auto shape = [&]() {
        return net->node(LayerId(net->numLayers() - 1)).spec.out;
    };
    net->append(makeConv("conv1", in, cp));            // 0
    net->append(makeActivation("relu1", shape()));     // 1
    net->append(makeConv("conv2", shape(), cp));       // 2
    net->append(makeActivation("relu2", shape()));     // 3
    net->append(makePool("pool1", shape(), PoolParams{})); // 4
    net->append(makeConv("conv3", shape(), cp));       // 5
    net->append(makeActivation("relu3", shape()));     // 6
    net->append(makeSoftmaxLoss("loss", shape()));     // 7
    net->finalize();
    return net;
}

/** Mark layer @p id's X buffer offloaded. */
void
offloadXOf(const Network &net, PrefetchState &state, LayerId id)
{
    state.offloaded[std::size_t(net.node(id).xBuffer)] = true;
}

/** One search into a fresh candidate. */
PrefetchCandidate
search(const Network &net, LayerId curr, PrefetchState &state,
       bool bounded = true)
{
    PrefetchCandidate cand;
    findPrefetchLayer(net, curr, state, cand, bounded);
    return cand;
}

} // namespace

TEST(FindPrefetchLayer, FindsNearestOffloadedLayer)
{
    auto net = chainNet();
    PrefetchState state(net->numBuffers());
    offloadXOf(*net, state, 0); // conv1's X (the input)
    offloadXOf(*net, state, 2); // conv2's X
    offloadXOf(*net, state, 5); // conv3's X

    // Searching from the loss layer: conv3 (nearest) wins.
    auto cand = search(*net, 7, state);
    ASSERT_TRUE(cand.found());
    EXPECT_EQ(cand.layer, 5);
    ASSERT_EQ(cand.buffers.size(), 1u);
    EXPECT_EQ(cand.buffers[0], net->node(5).xBuffer);
}

TEST(FindPrefetchLayer, MarksBuffersPrefetched)
{
    auto net = chainNet();
    PrefetchState state(net->numBuffers());
    offloadXOf(*net, state, 5);
    auto cand = search(*net, 7, state);
    ASSERT_TRUE(cand.found());
    EXPECT_TRUE(state.prefetched[std::size_t(net->node(5).xBuffer)]);
    // A second search does not return the same buffer.
    auto again = search(*net, 7, state);
    EXPECT_NE(again.layer, 5);
}

TEST(FindPrefetchLayer, WindowStopsAtConvLayer)
{
    auto net = chainNet();
    PrefetchState state(net->numBuffers());
    offloadXOf(*net, state, 0); // only conv1's X offloaded

    // Search from pool1 (4): relu2(3) no, conv2(2) has no offloaded
    // X and is CONV -> window closes without a candidate.
    auto cand = search(*net, 4, state);
    EXPECT_FALSE(cand.found());
    // Unbounded search does find conv1.
    auto unbounded = search(*net, 4, state, false);
    ASSERT_TRUE(unbounded.found());
    EXPECT_EQ(unbounded.layer, 0);
}

TEST(FindPrefetchLayer, OffloadedConvInWindowIsReturnedNotSkipped)
{
    // Fig. 10 checks offloaded/prefetched *before* the CONV bound, so
    // an offloaded CONV layer terminates the search by being returned.
    auto net = chainNet();
    PrefetchState state(net->numBuffers());
    offloadXOf(*net, state, 2);
    auto cand = search(*net, 4, state);
    ASSERT_TRUE(cand.found());
    EXPECT_EQ(cand.layer, 2);
}

TEST(FindPrefetchLayer, NothingOffloadedFindsNothing)
{
    auto net = chainNet();
    PrefetchState state(net->numBuffers());
    for (std::size_t i = 0; i < net->numLayers(); ++i) {
        auto cand = search(*net, LayerId(i), state);
        EXPECT_FALSE(cand.found());
    }
}

TEST(FindPrefetchLayer, FirstLayerHasNoPredecessors)
{
    auto net = chainNet();
    PrefetchState state(net->numBuffers());
    offloadXOf(*net, state, 5);
    EXPECT_FALSE(search(*net, 0, state).found());
}

TEST(FindPrefetchLayer, SearchStartsBelowCurrentLayer)
{
    // The searching layer's own X is not a candidate (search begins at
    // currLayerId - 1, Fig. 10 line 06).
    auto net = chainNet();
    PrefetchState state(net->numBuffers());
    offloadXOf(*net, state, 5);
    auto cand = search(*net, 5, state);
    EXPECT_FALSE(cand.found());
}

TEST(FindPrefetchLayer, GoogLeNetForkJoinReturnsAllLayerBuffers)
{
    auto net = buildGoogLeNet(4);
    PrefetchState state(net->numBuffers());
    // Find a concat layer and offload two of its branch buffers.
    LayerId concat = -1;
    for (LayerId id : net->topoOrder()) {
        if (net->node(id).spec.kind == LayerKind::Concat) {
            concat = id;
            break;
        }
    }
    ASSERT_NE(concat, -1);
    const auto &inputs = net->node(concat).inputs;
    ASSERT_GE(inputs.size(), 2u);
    BufferId b0 = net->node(inputs[0]).yBuffer;
    BufferId b1 = net->node(inputs[1]).yBuffer;
    state.offloaded[std::size_t(b0)] = true;
    state.offloaded[std::size_t(b1)] = true;

    // Search from the layer after the concat.
    LayerId after = net->topoOrder()[std::size_t(
        net->node(concat).topoIndex + 1)];
    auto cand = search(*net, after, state, false);
    ASSERT_TRUE(cand.found());
    EXPECT_EQ(cand.layer, concat);
    EXPECT_EQ(cand.buffers.size(), 2u);
}

TEST(FindPrefetchLayer, ReusedCandidateIsOverwritten)
{
    // Callers keep one candidate across searches: a hit followed by a
    // miss must leave no trace of the hit.
    auto net = chainNet();
    PrefetchState state(net->numBuffers());
    offloadXOf(*net, state, 5);
    PrefetchCandidate cand;
    findPrefetchLayer(*net, 7, state, cand);
    ASSERT_TRUE(cand.found());
    EXPECT_EQ(cand.buffers.size(), 1u);
    findPrefetchLayer(*net, 7, state, cand);
    EXPECT_FALSE(cand.found());
    EXPECT_TRUE(cand.buffers.empty());
}

TEST(FindPrefetchLayer, StateSizeMismatchPanics)
{
    auto net = chainNet();
    PrefetchState bad(3);
    EXPECT_DEATH(search(*net, 4, bad), "mismatch");
}
