/**
 * @file
 * Figure 5: per-layer memory usage of VGG-16 (256) during forward
 * propagation — feature maps + workspace (left axis) against weights
 * (right axis), for all CONV and FC layers.
 *
 * Paper anchors: (1) intermediate feature maps and workspace are an
 * order of magnitude larger than weights in the feature extraction
 * layers; (2) the intermediate data is concentrated in the feature
 * extraction layers; (3) weights are concentrated in the classifier;
 * (4) per-layer usage is far below the 28 GB network-wide allocation.
 */

#include "bench_common.hh"

#include "common/units.hh"
#include "dnn/cudnn_sim.hh"
#include "gpu/gpu_spec.hh"

using namespace vdnn;
using namespace vdnn::bench;

namespace
{

void
report()
{
    dnn::CudnnSim cudnn(gpu::titanXMaxwell());
    auto network = net::buildVgg16(256);
    net::NetworkStats ns(*network);
    auto algos = net::performanceOptimalAlgos(*network, cudnn);

    stats::Table table(
        "Figure 5: VGG-16 (256) per-layer forward memory usage");
    table.setColumns({"layer", "X (MB)", "Y (MB)", "workspace (MB)",
                      "fmaps+WS (MB)", "weights (MB)"});

    Bytes max_fe_intermediate = 0;    // feature extraction fmaps+WS
    Bytes max_fe_weights = 0;         // feature extraction weights
    Bytes classifier_weights = 0;     // summed classifier weights
    Bytes fe_weights_total = 0;
    Bytes max_layer_total = 0;

    for (const auto &row : ns.perLayerForward(algos)) {
        Bytes intermediates = row.x + row.y + row.workspace;
        table.addRow({row.name, stats::Table::cell(toMiB(row.x), 0),
                      stats::Table::cell(toMiB(row.y), 0),
                      stats::Table::cell(toMiB(row.workspace), 0),
                      stats::Table::cell(toMiB(intermediates), 0),
                      stats::Table::cell(toMiB(row.weights), 1)});
        bool classifier = network->node(row.id).classifier;
        if (!classifier) {
            max_fe_intermediate =
                std::max(max_fe_intermediate, intermediates);
            max_fe_weights = std::max(max_fe_weights, row.weights);
            fe_weights_total += row.weights;
        } else {
            classifier_weights += row.weights;
        }
        max_layer_total =
            std::max(max_layer_total, intermediates + row.weights);
    }
    table.print();

    Bytes baseline_total = ns.baselineBreakdown(algos).total();

    stats::Comparison cmp("Figure 5");
    cmp.addBool("feature maps+WS >= 10x weights in extraction layers",
                true, max_fe_intermediate >= 10 * max_fe_weights);
    cmp.addBool("weights concentrated in the classifier", true,
                classifier_weights > 4 * fe_weights_total);
    cmp.addBool("max per-layer usage far below the 28 GB allocation",
                true, max_layer_total * 2 < baseline_total);
    cmp.addInfo("largest per-layer footprint", "(well under total)",
                strFormat("%.0f MB of %.0f MB total",
                          toMiB(max_layer_total),
                          toMiB(baseline_total)));
    cmp.print();
}

} // namespace

int
main(int argc, char **argv)
{
    registerSim("fig05/per_layer_analysis_vgg16_256", [] {
        dnn::CudnnSim cudnn(gpu::titanXMaxwell());
        auto network = net::buildVgg16(256);
        net::NetworkStats ns(*network);
        auto algos = net::performanceOptimalAlgos(*network, cudnn);
        benchmark::DoNotOptimize(ns.perLayerForward(algos).size());
    });
    return benchMain(argc, argv, report);
}
