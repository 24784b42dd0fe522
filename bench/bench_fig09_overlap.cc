/**
 * @file
 * Figure 9 (mechanism study): how offload transfers overlap with, or
 * stall, the forward computation.
 *
 * The paper's timeline shows OFF(n) overlapped with FWD(n); when the
 * offload outlives the computation, the next layer's computation is
 * delayed by the residual ("wasted time"). This bench reconstructs the
 * timeline on the raw simulated runtime for a sweep of
 * compute/transfer ratios and verifies the stall arithmetic.
 */

#include "bench_common.hh"

#include "common/units.hh"
#include "gpu/cluster.hh"

using namespace vdnn;
using namespace vdnn::bench;
using namespace vdnn::literals;

namespace
{

struct OverlapResult
{
    TimeNs makespan = 0;
    TimeNs stall = 0;
};

/**
 * Run N layers of @p compute_us each, offloading a buffer that takes
 * @p offload_us to copy, with the paper's sync-at-layer-boundary rule.
 */
OverlapResult
runTimeline(int layers, TimeNs compute_us, TimeNs offload_us)
{
    gpu::GpuSpec spec = gpu::titanXMaxwell();
    gpu::Cluster cluster({{spec}, /*contention=*/false});
    gpu::Device &rt = cluster.device(0);
    auto sc = rt.createStream("compute");
    auto sm = rt.createStream("memory");
    Bytes bytes = Bytes(spec.pcie.dmaBandwidth *
                        toSeconds(offload_us * kNsPerUs)) -
                  Bytes(spec.pcie.dmaBandwidth *
                        toSeconds(spec.pcie.setupLatency));
    OverlapResult res;
    for (int i = 0; i < layers; ++i) {
        gpu::KernelDesc k;
        k.name = "fwd";
        k.duration = compute_us * kNsPerUs;
        rt.launchKernel(sc, k);
        rt.memcpyAsync(sm, bytes, gpu::CopyDir::DeviceToHost, "off");
        rt.synchronize(sc);
        TimeNs compute_done = rt.now();
        rt.synchronize(sm);
        res.stall += rt.now() - compute_done;
    }
    res.makespan = rt.now();
    return res;
}

void
report()
{
    stats::Table table("Figure 9: offload/compute overlap sweep "
                       "(8 layers, 100 us compute each)");
    table.setColumns({"offload latency (us)", "makespan (us)",
                      "stall (us)", "offload hidden?"});

    const int layers = 8;
    const TimeNs compute_us = 100;
    struct Point
    {
        TimeNs offload_us;
        bool expect_hidden;
    };
    bool all_ok = true;
    for (Point p : {Point{40, true}, Point{80, true}, Point{100, true},
                    Point{130, false}, Point{200, false}}) {
        OverlapResult r = runTimeline(layers, compute_us, p.offload_us);
        bool hidden = r.stall == 0;
        all_ok = all_ok && hidden == p.expect_hidden;
        table.addRow({stats::Table::cellInt(p.offload_us),
                      stats::Table::cell(toUs(r.makespan), 0),
                      stats::Table::cell(toUs(r.stall), 0),
                      hidden ? "yes" : "no"});
    }
    table.print();

    OverlapResult hidden = runTimeline(layers, compute_us, 100);
    OverlapResult exposed = runTimeline(layers, compute_us, 200);

    stats::Comparison cmp("Figure 9");
    cmp.addBool("offload <= compute: fully hidden (no wasted time)",
                true, hidden.stall == 0);
    cmp.addNumeric("offload 2x compute: makespan stretches ~2x",
                   2.0 * double(hidden.makespan),
                   double(exposed.makespan), 0.1);
    cmp.addBool("hidden/exposed transition at compute == offload", true,
                all_ok);
    cmp.print();
}

} // namespace

int
main(int argc, char **argv)
{
    registerSim("fig09/overlap_sweep",
                [] { benchmark::DoNotOptimize(runTimeline(64, 100, 90)); });
    return benchMain(argc, argv, report);
}
