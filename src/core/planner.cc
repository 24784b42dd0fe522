#include "core/planner.hh"

#include "common/logging.hh"
#include "dnn/cudnn_sim.hh"

#include <algorithm>

namespace vdnn::core
{

const char *
algoPreferenceName(AlgoPreference pref)
{
    switch (pref) {
      case AlgoPreference::MemoryOptimal:
        return "(m)";
      case AlgoPreference::PerformanceOptimal:
        return "(p)";
    }
    panic("unknown algo preference %d", int(pref));
}

const char *
replanHintName(ReplanHint h)
{
    switch (h) {
      case ReplanHint::Evict:
        return "evict";
      case ReplanHint::InPlace:
        return "in-place";
    }
    panic("unknown replan hint %d", int(h));
}

// --- MemoryPlan --------------------------------------------------------------

int
MemoryPlan::offloadCount() const
{
    int n = 0;
    for (const BufferDirective &d : buffers)
        n += d.offloaded() ? 1 : 0;
    return staticAllocation ? 0 : n;
}

Bytes
MemoryPlan::offloadedBytes(const net::Network &net) const
{
    Bytes total = 0;
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (offloads(b))
            total += net.buffer(b).bytes();
    }
    return total;
}

Bytes
MemoryPlan::offloadedDmaBytes(const net::Network &net) const
{
    Bytes total = 0;
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (offloads(b))
            total += dmaBytes(b, net.buffer(b).bytes());
    }
    return total;
}

void
MemoryPlan::clearOffloads()
{
    for (BufferDirective &d : buffers)
        d = BufferDirective{};
}

// --- PlannerContext ----------------------------------------------------------

PlannerContext
PlannerContext::exclusive(gpu::GpuSpec spec, bool contention)
{
    PlannerContext ctx;
    ctx.gpu = std::move(spec);
    ctx.availableBytes = 0;
    ctx.contention = contention;
    return ctx;
}

PlannerContext
PlannerContext::shared(gpu::GpuSpec spec, Bytes free_share,
                       bool contention, int device_id)
{
    VDNN_ASSERT(free_share >= 0, "negative free share");
    VDNN_ASSERT(device_id >= 0, "negative device id");
    PlannerContext ctx;
    ctx.gpu = std::move(spec);
    // availableBytes == 0 means "the whole device"; a momentarily
    // exhausted pool must instead plan against (effectively) nothing,
    // so trial-running planners derive their most conservative plan
    // rather than the unconstrained one.
    ctx.availableBytes = std::max<Bytes>(free_share, 1);
    ctx.contention = contention;
    ctx.deviceId = device_id;
    return ctx;
}

// --- shared planner plumbing -------------------------------------------------

bool
offloadEligible(const net::Network &net, net::BufferId buffer)
{
    const net::Buffer &b = net.buffer(buffer);
    // Classifier buffers are outside the managed pool; buffers with no
    // backward reuse are simply released, not offloaded; buffers nobody
    // reads (terminal outputs) have no last consumer to offload them.
    return !b.classifier && !b.bwdUsers.empty() && !b.readers.empty();
}

PersistentFootprint
persistentFootprint(const net::Network &net, const MemoryPlan &plan)
{
    using Scope = net::NetworkStats::GradScope;
    const net::NetworkStats stats(net);
    PersistentFootprint fp;
    Bytes dw_managed = 0;
    Bytes dw_classifier = 0;
    for (net::LayerId id : net.topoOrder()) {
        const net::LayerNode &n = net.node(id);
        Bytes w = n.spec.weightBytes();
        fp.weights += w;
        Bytes &dw = n.classifier ? dw_classifier : dw_managed;
        dw = std::max(dw, w);
    }
    fp.dw = {{{"dW:shared", dw_managed, true},
              {"dW:classifier", dw_classifier, false}}};
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (plan.staticAllocation || net.buffer(b).classifier)
            fp.staticMaps += net.buffer(b).bytes();
    }
    Bytes grad_managed = 0;
    Bytes workspace = 0;
    if (plan.staticAllocation) {
        grad_managed = stats.peakGradientBytes(Scope::Managed);
        workspace = stats.maxWorkspaceBytes(plan.algos, false);
    }
    Bytes grad_classifier = stats.peakGradientBytes(Scope::Classifier);
    fp.scratch = {{{"grad:shared", grad_managed, true},
                   {"grad:classifier", grad_classifier, false},
                   {"ws:shared", workspace, true}}};
    return fp;
}

namespace
{

/** All-KeepResident plan with the preferred algorithm assignment. */
MemoryPlan
residentPlan(const net::Network &net, const PlannerContext &ctx,
             AlgoPreference pref)
{
    VDNN_ASSERT(net.finalized(), "network must be finalized");
    dnn::CudnnSim cudnn(ctx.gpu);
    MemoryPlan plan;
    plan.buffers.assign(net.numBuffers(), BufferDirective{});
    plan.algos = pref == AlgoPreference::MemoryOptimal
                     ? net::memoryOptimalAlgos(net)
                     : net::performanceOptimalAlgos(net, cudnn);
    return plan;
}

/** Buffers whose last forward consumer is a CONV layer. */
bool
lastReaderIsConv(const net::Network &net, net::BufferId b)
{
    net::LayerId last = net.buffer(b).lastFwdReader;
    return last != net::kInputLayer &&
           net.node(last).spec.kind == dnn::LayerKind::Conv;
}

std::string
staticProvenance(const std::string &name, const net::Network &net,
                 const MemoryPlan &plan)
{
    return strFormat("static %s: %d/%zu buffers offloaded",
                     name.c_str(), plan.offloadCount(),
                     net.numBuffers());
}

} // namespace

bool
holdsReluOutput(const net::Network &net, net::BufferId b)
{
    auto is_relu = [&](net::LayerId id) {
        if (id == net::kInputLayer)
            return false;
        const dnn::LayerSpec &spec = net.node(id).spec;
        return spec.kind == dnn::LayerKind::Activation &&
               spec.actv.fn == dnn::ActivationParams::Fn::ReLU;
    };
    if (is_relu(net.buffer(b).producer))
        return true;
    for (net::LayerId r : net.buffer(b).readers) {
        if (is_relu(r))
            return true;
    }
    return false;
}

// --- BaselinePlanner ---------------------------------------------------------

BaselinePlanner::BaselinePlanner(AlgoPreference pref_) : pref(pref_) {}

std::string
BaselinePlanner::name() const
{
    return strFormat("base %s", algoPreferenceName(pref));
}

MemoryPlan
BaselinePlanner::plan(const net::Network &net, const PlannerContext &ctx)
{
    MemoryPlan p = residentPlan(net, ctx, pref);
    p.staticAllocation = true;
    p.provenance = strFormat("static %s: network-wide allocation",
                             name().c_str());
    return p;
}

// --- OffloadAllPlanner -------------------------------------------------------

OffloadAllPlanner::OffloadAllPlanner(AlgoPreference pref_) : pref(pref_)
{}

std::string
OffloadAllPlanner::name() const
{
    return strFormat("vDNN_all %s", algoPreferenceName(pref));
}

MemoryPlan
OffloadAllPlanner::plan(const net::Network &net, const PlannerContext &ctx)
{
    MemoryPlan p = residentPlan(net, ctx, pref);
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (offloadEligible(net, b))
            p.directive(b).action = BufferDirective::Action::Offload;
    }
    p.provenance = staticProvenance(name(), net, p);
    return p;
}

// --- OffloadConvPlanner ------------------------------------------------------

OffloadConvPlanner::OffloadConvPlanner(AlgoPreference pref_) : pref(pref_)
{}

std::string
OffloadConvPlanner::name() const
{
    return strFormat("vDNN_conv %s", algoPreferenceName(pref));
}

MemoryPlan
OffloadConvPlanner::plan(const net::Network &net,
                         const PlannerContext &ctx)
{
    MemoryPlan p = residentPlan(net, ctx, pref);
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        // vDNN_conv: offload only the Xs of CONV layers, i.e. buffers
        // whose last forward consumer is a CONV layer (only that
        // consumer may issue the offload, and only CONV kernels are
        // long enough to hide it).
        if (offloadEligible(net, b) && lastReaderIsConv(net, b))
            p.directive(b).action = BufferDirective::Action::Offload;
    }
    p.provenance = staticProvenance(name(), net, p);
    return p;
}

// --- CompressedOffloadPlanner ------------------------------------------------

CompressedOffloadPlanner::CompressedOffloadPlanner(AlgoPreference pref_)
    : CompressedOffloadPlanner(pref_, SparsityModel{})
{}

CompressedOffloadPlanner::CompressedOffloadPlanner(AlgoPreference pref_,
                                                   SparsityModel model_)
    : pref(pref_), model(model_)
{
    VDNN_ASSERT(model.shallowSparsity >= 0.0 &&
                    model.deepSparsity <= 1.0 &&
                    model.shallowSparsity <= model.deepSparsity,
                "sparsity model must be a fraction growing with depth");
}

std::string
CompressedOffloadPlanner::name() const
{
    return strFormat("vDNN_all+cDMA %s", algoPreferenceName(pref));
}

double
CompressedOffloadPlanner::dmaScaleAtDepth(double depth_frac) const
{
    double sparsity =
        model.shallowSparsity +
        (model.deepSparsity - model.shallowSparsity) *
            std::clamp(depth_frac, 0.0, 1.0);
    double scale = (1.0 - sparsity) * (1.0 + model.metadataOverhead);
    return std::clamp(scale, 0.01, 1.0);
}

MemoryPlan
CompressedOffloadPlanner::plan(const net::Network &net,
                               const PlannerContext &ctx)
{
    MemoryPlan p = residentPlan(net, ctx, pref);

    // Depth normalization over the managed (feature extraction) region.
    int max_topo = 1;
    for (net::LayerId id : net.topoOrder()) {
        if (!net.node(id).classifier)
            max_topo = std::max(max_topo, net.node(id).topoIndex);
    }

    int compressed = 0;
    int measured = 0;
    for (net::BufferId b = 0; b < net::BufferId(net.numBuffers()); ++b) {
        if (!offloadEligible(net, b))
            continue;
        BufferDirective &d = p.directive(b);
        d.action = BufferDirective::Action::Offload;
        if (!holdsReluOutput(net, b))
            continue; // dense data: the ZVC engine is bypassed
        net::LayerId producer = net.buffer(b).producer;
        double depth = producer == net::kInputLayer
                           ? 0.0
                           : double(net.node(producer).topoIndex) /
                                 double(max_topo);
        d.compressed = true;
        // Prefer the measured first-iteration sparsity over the
        // analytic depth model when a profile covers this buffer.
        double profiled = ctx.profile && ctx.profile->valid
                              ? ctx.profile->sparsityFor(int(b))
                              : -1.0;
        if (profiled >= 0.0) {
            d.dmaScale = std::clamp(
                (1.0 - profiled) * (1.0 + model.metadataOverhead), 0.01,
                1.0);
            ++measured;
        } else {
            d.dmaScale = dmaScaleAtDepth(depth);
        }
        ++compressed;
    }
    p.provenance = strFormat(
        "static %s: %d/%zu buffers offloaded, %d compressed "
        "(%d profiled, %.0f%% of raw PCIe bytes)",
        name().c_str(), p.offloadCount(), net.numBuffers(), compressed,
        measured,
        p.offloadedBytes(net) > 0
            ? 100.0 * double(p.offloadedDmaBytes(net)) /
                  double(p.offloadedBytes(net))
            : 100.0);
    return p;
}

} // namespace vdnn::core
