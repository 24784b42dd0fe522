/**
 * @file
 * Figure 4: breakdown of baseline GPU memory usage by function —
 * weights, feature maps, gradient maps, workspace — and the fraction
 * consumed by feature maps.
 *
 * Paper anchors: the feature-map fraction grows monotonically with
 * network depth; feature extraction accounts for 81% of memory usage
 * on AlexNet and 96% on VGG-16 (256) (Section III).
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

    stats::Table table("Figure 4: baseline memory usage breakdown");
    table.setColumns({"network", "weights (MB)", "feature maps (MB)",
                      "gradient maps (MB)", "workspace (MB)",
                      "feature maps (%)", "feature extraction (%)"});

    double alexnet_fe_pct = 0.0;
    double vgg256_fe_pct = 0.0;
    std::vector<double> fm_fractions;

    for (const auto &entry : net::fullSuite()) {
        auto network = entry.build();
        net::NetworkStats ns(*network);
        auto algos = net::performanceOptimalAlgos(*network, cudnn);
        auto full = ns.baselineBreakdown(algos);
        auto managed = ns.managedBreakdown(algos);
        double fm_pct = 100.0 * full.featureMapFraction();
        double fe_pct =
            100.0 * double(managed.total()) / double(full.total());
        fm_fractions.push_back(fm_pct);
        if (entry.name == "AlexNet (128)")
            alexnet_fe_pct = fe_pct;
        if (entry.name == "VGG-16 (256)")
            vgg256_fe_pct = fe_pct;

        table.addRow({entry.name,
                      stats::Table::cell(toMiB(full.weights), 0),
                      stats::Table::cell(toMiB(full.featureMaps), 0),
                      stats::Table::cell(toMiB(full.gradientMaps), 0),
                      stats::Table::cell(toMiB(full.workspace), 0),
                      stats::Table::cell(fm_pct, 1),
                      stats::Table::cell(fe_pct, 1)});
    }
    table.print();

    // Monotonic growth of the feature-map share along the VGG depth
    // sweep occupies the last four rows (VGG-116..416).
    bool monotonic_deep = true;
    for (std::size_t i = fm_fractions.size() - 3;
         i < fm_fractions.size(); ++i) {
        monotonic_deep =
            monotonic_deep && fm_fractions[i] >= fm_fractions[i - 1];
    }

    stats::Comparison cmp("Figure 4");
    cmp.addNumeric("AlexNet (128): feature extraction share (%)", 81.0,
                   alexnet_fe_pct, 0.3);
    cmp.addNumeric("VGG-16 (256): feature extraction share (%)", 96.0,
                   vgg256_fe_pct, 0.15);
    cmp.addBool("feature-map fraction grows with depth (VGG sweep)",
                true, monotonic_deep);
    cmp.print();
}

} // namespace

int
main(int argc, char **argv)
{
    registerSim("fig04/breakdown_full_suite", [] {
        dnn::CudnnSim cudnn(gpu::titanXMaxwell());
        for (const auto &entry : net::fullSuite()) {
            auto network = entry.build();
            net::NetworkStats ns(*network);
            auto algos = net::performanceOptimalAlgos(*network, cudnn);
            benchmark::DoNotOptimize(ns.baselineBreakdown(algos).total());
        }
    });
    return benchMain(argc, argv, report);
}
