/**
 * @file
 * Figure 15: scalability to very deep networks. CPU-side vs GPU-side
 * memory allocations of vDNN_dyn against the baseline's network-wide
 * requirement for VGG-116/216/316/416 (batch 32).
 *
 * Paper anchors: the baseline requirement grows ~14x (4.9 GB for
 * VGG-16 to 67.1 GB for VGG-416) and fails beyond the 12 GB card;
 * vDNN_dyn trains all of them within ~4.2 GB of GPU memory, leaving
 * 81%-92% of the total allocations in host memory, with no noticeable
 * performance loss versus an oracular baseline.
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

    stats::Table table("Figure 15: very deep networks (batch 32), "
                       "vDNN_dyn GPU/CPU split vs baseline");
    table.setColumns({"network", "baseline alloc (GB)", "base trains?",
                      "dyn GPU max (GB)", "dyn CPU side (GB)",
                      "CPU share (%)", "dyn vs oracle perf"});

    std::vector<net::BenchmarkNet> nets = {
        {"VGG-16 (32)", [] { return net::buildVgg16(32); }}};
    for (auto &n : net::veryDeepSuite())
        nets.push_back(n);

    double base_first = 0.0, base_last = 0.0;
    double dyn_gpu_max = 0.0;
    double cpu_share_min = 100.0, cpu_share_max = 0.0;
    double dyn_perf_worst = 1.0;
    bool dyn_all_train = true;
    bool base_deep_all_fail = true;

    for (std::size_t i = 0; i < nets.size(); ++i) {
        auto network = nets[i].build();
        net::NetworkStats ns(*network);
        auto algos = net::performanceOptimalAlgos(*network, cudnn);
        double base_gb =
            double(ns.baselineBreakdown(algos).total()) / 1e9;
        if (i == 0)
            base_first = base_gb;
        base_last = base_gb;

        auto base = runPlanner(*network, baselinePlanner(core::AlgoPreference::PerformanceOptimal));
        auto dyn = runPlanner(*network, dynamicPlanner());
        auto oracle = runPlanner(*network, baselinePlanner(core::AlgoPreference::PerformanceOptimal), /*oracle=*/true);
        dyn_all_train = dyn_all_train && dyn.trainable;
        if (i > 0)
            base_deep_all_fail = base_deep_all_fail && !base.trainable;

        double gpu_gb = double(dyn.maxTotalUsage) / 1e9;
        double cpu_gb = double(dyn.hostPeakBytes) / 1e9;
        double share = 100.0 * cpu_gb / (cpu_gb + gpu_gb);
        double perf = double(oracle.featureExtractionTime) /
                      double(dyn.featureExtractionTime);
        if (i > 0) {
            dyn_gpu_max = std::max(dyn_gpu_max, gpu_gb);
            cpu_share_min = std::min(cpu_share_min, share);
            cpu_share_max = std::max(cpu_share_max, share);
            dyn_perf_worst = std::min(dyn_perf_worst, perf);
        }

        table.addRow({nets[i].name, stats::Table::cell(base_gb, 1),
                      base.trainable ? "yes" : "no *",
                      stats::Table::cell(gpu_gb, 2),
                      stats::Table::cell(cpu_gb, 1),
                      stats::Table::cell(share, 1),
                      stats::Table::cell(perf, 2)});
    }
    table.print();

    stats::Comparison cmp("Figure 15");
    cmp.addNumeric("VGG-16 (32) baseline allocation (GB)", 4.9,
                   base_first, 0.35);
    cmp.addNumeric("VGG-416 (32) baseline allocation (GB)", 67.1,
                   base_last, 0.15);
    cmp.addNumeric("baseline growth factor 16 -> 416 conv layers", 14.0,
                   base_last / base_first, 0.25);
    cmp.addBool("baseline fails all very deep networks", true,
                base_deep_all_fail);
    cmp.addBool("vDNN_dyn trains all very deep networks", true,
                dyn_all_train);
    cmp.addNumeric("vDNN_dyn max GPU usage across deep nets (GB)", 4.2,
                   dyn_gpu_max, 0.6);
    cmp.addBool("CPU-side share in the 81-92% band (+/-6pp)", true,
                cpu_share_min >= 75.0 && cpu_share_max <= 98.0);
    cmp.addNumeric("vDNN_dyn vs oracle performance (worst, %)", 100.0,
                   100.0 * dyn_perf_worst, 0.2);
    cmp.addInfo("measured CPU-side share band", "81% - 92%",
                strFormat("%.0f%% - %.0f%%", cpu_share_min,
                          cpu_share_max));
    cmp.print();
}

} // namespace

int
main(int argc, char **argv)
{
    registerSim("fig15/dyn_vgg116_32", [] {
        auto network = net::buildVggDeep(116, 32);
        benchmark::DoNotOptimize(
            runPlanner(*network, dynamicPlanner())
                .maxTotalUsage);
    });
    return benchMain(argc, argv, report);
}
