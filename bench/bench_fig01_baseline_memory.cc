/**
 * @file
 * Figure 1: GPU memory usage of the baseline network-wide allocation
 * policy, and the maximum fraction of that allocation any single
 * layer's computation actually uses.
 *
 * Paper anchors: AlexNet needs a "mere" 1.1 GB while VGG-16 (256)
 * needs 28 GB; 53%-79% of the allocated memory is not used at all at
 * any given time (i.e. the maximum layer-wise usage is 21%-47%).
 */

#include "bench_common.hh"

#include "common/units.hh"
#include "dnn/cudnn_sim.hh"
#include "gpu/gpu_spec.hh"

#include <algorithm>

using namespace vdnn;
using namespace vdnn::bench;

namespace
{

void
report()
{
    stats::Table table("Figure 1: baseline (network-wide) memory "
                       "allocation and max layer-wise usage");
    table.setColumns({"network", "allocation (MB)", "max layer-wise (MB)",
                      "max usage (%)", "unused (%)"});

    double min_unused = 100.0;
    double max_unused = 0.0;
    double alexnet_gb = 0.0;
    double vgg256_gb = 0.0;

    std::size_t row = 0;
    const std::size_t conventional = net::conventionalSuite().size();
    for (const auto &entry : net::fullSuite()) {
        auto network = entry.build();
        net::NetworkStats ns(*network);
        // The paper's allocation anchors (1.1 GB AlexNet) correspond to
        // the memory-optimal algorithm choice (no workspace).
        auto algos = net::memoryOptimalAlgos(*network);
        Bytes total = ns.baselineBreakdown(algos).total();
        Bytes layerwise = ns.maxLayerWiseUsage(algos);
        double used_pct = 100.0 * double(layerwise) / double(total);
        double unused_pct = 100.0 - used_pct;
        // The 53-79% unused band refers to the conventional networks;
        // the very deep ones leave even more unused.
        if (row < conventional) {
            min_unused = std::min(min_unused, unused_pct);
            max_unused = std::max(max_unused, unused_pct);
        }
        ++row;
        if (entry.name == "AlexNet (128)")
            alexnet_gb = double(total) / 1e9;
        if (entry.name == "VGG-16 (256)")
            vgg256_gb = double(total) / 1e9;

        table.addRow({entry.name, stats::Table::cell(toMiB(total), 0),
                      stats::Table::cell(toMiB(layerwise), 0),
                      stats::Table::cell(used_pct, 1),
                      stats::Table::cell(unused_pct, 1)});
    }
    table.print();

    stats::Comparison cmp("Figure 1");
    cmp.addNumeric("AlexNet (128) baseline allocation (GB)", 1.1,
                   alexnet_gb, 0.35);
    cmp.addNumeric("VGG-16 (256) baseline allocation (GB)", 28.0,
                   vgg256_gb, 0.35);
    cmp.addNumeric("min unused memory, conventional networks (%)", 53.0,
                   min_unused, 0.2);
    cmp.addNumeric("max unused memory, conventional networks (%)", 79.0,
                   max_unused, 0.25);
    cmp.addInfo("measured unused-memory band (conventional)",
                "53% - 79%",
                strFormat("%.0f%% - %.0f%%", min_unused, max_unused));
    cmp.print();
}

} // namespace

int
main(int argc, char **argv)
{
    registerSim("fig01/footprint_analysis_full_suite", [] {
        dnn::CudnnSim cudnn(gpu::titanXMaxwell());
        for (const auto &entry : net::fullSuite()) {
            auto network = entry.build();
            net::NetworkStats ns(*network);
            auto algos = net::performanceOptimalAlgos(*network, cudnn);
            benchmark::DoNotOptimize(
                ns.baselineBreakdown(algos).total());
            benchmark::DoNotOptimize(ns.maxLayerWiseUsage(algos));
        }
    });
    return benchMain(argc, argv, report);
}
