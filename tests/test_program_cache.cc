/**
 * @file
 * Tests for compile once, verify once (core/program_cache.hh): every
 * key field separates entries and nothing else does, a hit is the
 * program a fresh compile produces, and tenants that share an entry
 * share one verification while each still gets its own capacity
 * verdict.
 */

#include "check/plan_verifier.hh"
#include "core/program_cache.hh"
#include "core/training_session.hh"
#include "serve/scheduler.hh"

#include "common/units.hh"
#include "net/builders.hh"
#include "obs/metrics.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace vdnn;
using namespace vdnn::core;

namespace
{

MemoryPlan
vdnnAllPlan(const net::Network &net)
{
    return OffloadAllPlanner(AlgoPreference::MemoryOptimal)
        .plan(net, PlannerContext::exclusive(gpu::titanXMaxwell()));
}

/** First buffer the plan offloads. */
net::BufferId
firstOffloaded(const MemoryPlan &plan)
{
    for (net::BufferId b = 0; b < net::BufferId(plan.buffers.size()); ++b) {
        if (plan.offloads(b))
            return b;
    }
    return -1;
}

/** First conv layer in topological order. */
net::LayerId
firstConv(const net::Network &net)
{
    for (net::LayerId id : net.topoOrder()) {
        if (net.node(id).spec.kind == dnn::LayerKind::Conv)
            return id;
    }
    return -1;
}

/** A hit must be exactly the program a fresh compile produces. */
void
expectFreshProgram(const CompiledPlan &hit, const net::Network &net,
                   const MemoryPlan &plan, const ExecutorConfig &cfg,
                   const std::string &what)
{
    EXPECT_EQ(hit.program().dump(net),
              IterationProgram::compile(net, plan, cfg).dump(net))
        << what;
    EXPECT_EQ(hit.footprint().total(),
              persistentFootprint(net, plan).total())
        << what;
}

bool
reportsShareExceeded(const check::CheckResult &r)
{
    return std::any_of(r.diags.begin(), r.diags.end(),
                       [](const check::Diagnostic &d) {
                           return d.code == check::DiagCode::ShareExceeded;
                       });
}

} // namespace

TEST(ProgramCache, EveryKeyFieldIsAMissAndOnlyThose)
{
    auto network = net::buildVgg16(32);
    const MemoryPlan base = vdnnAllPlan(*network);
    const ExecutorConfig base_cfg;
    const net::BufferId off = firstOffloaded(base);
    const net::LayerId conv = firstConv(*network);
    ASSERT_GE(off, 0);
    ASSERT_GE(conv, 0);

    ProgramCache cache;
    auto entry = cache.get(*network, base, base_cfg);
    ASSERT_EQ(cache.size(), 1u);

    // Each variant changes one key field; each must compile its own
    // entry, not reuse the base one.
    struct Variant
    {
        const char *what;
        std::function<void(MemoryPlan &, ExecutorConfig &)> edit;
    };
    const std::vector<Variant> misses = {
        {"staticAllocation",
         [](MemoryPlan &p, ExecutorConfig &) {
             p.staticAllocation = true;
         }},
        {"action",
         [&](MemoryPlan &p, ExecutorConfig &) {
             p.directive(off).action =
                 BufferDirective::Action::KeepResident;
         }},
        {"compressed",
         [&](MemoryPlan &p, ExecutorConfig &) {
             p.directive(off).compressed = true;
         }},
        {"dmaScale",
         [&](MemoryPlan &p, ExecutorConfig &) {
             p.directive(off).dmaScale = 0.5;
         }},
        {"prefetchPriority",
         [&](MemoryPlan &p, ExecutorConfig &) {
             p.directive(off).prefetchPriority = 3;
         }},
        {"algo",
         [&](MemoryPlan &p, ExecutorConfig &) {
             p.algos[std::size_t(conv)] = dnn::ConvAlgo::Gemm;
         }},
        {"syncAtLayerBoundary",
         [](MemoryPlan &, ExecutorConfig &c) {
             c.syncAtLayerBoundary = false;
         }},
        {"prefetchEnabled",
         [](MemoryPlan &, ExecutorConfig &c) { c.prefetchEnabled = false; }},
        {"prefetchWindowBounded",
         [](MemoryPlan &, ExecutorConfig &c) {
             c.prefetchWindowBounded = false;
         }},
    };
    for (const Variant &v : misses) {
        MemoryPlan plan = base;
        ExecutorConfig cfg = base_cfg;
        v.edit(plan, cfg);
        std::size_t before = cache.size();
        auto other = cache.get(*network, plan, cfg);
        EXPECT_NE(other.get(), entry.get()) << v.what;
        EXPECT_EQ(cache.size(), before + 1) << v.what;
        // Asking again is a hit on the variant's own entry.
        auto hit = cache.get(*network, plan, cfg);
        EXPECT_EQ(hit.get(), other.get()) << v.what;
        expectFreshProgram(*hit, *network, plan, cfg, v.what);
    }

    // Another network object of the same shape is another key.
    auto twin = net::buildVgg16(32);
    EXPECT_NE(cache.get(*twin, vdnnAllPlan(*twin), base_cfg).get(),
              entry.get());

    // What compile and the verifiers never read is not in the key.
    const std::vector<Variant> hits = {
        {"provenance",
         [](MemoryPlan &p, ExecutorConfig &) {
             p.provenance = "derived some other way";
         }},
        {"trials",
         [](MemoryPlan &p, ExecutorConfig &) {
             p.trials.push_back(TrialRecord{});
         }},
        {"failReason",
         [](MemoryPlan &p, ExecutorConfig &) { p.failReason = "none"; }},
        {"verifyPlans",
         [](MemoryPlan &, ExecutorConfig &c) {
             c.check.verifyPlans = !c.check.verifyPlans;
         }},
    };
    for (const Variant &v : hits) {
        MemoryPlan plan = base;
        ExecutorConfig cfg = base_cfg;
        v.edit(plan, cfg);
        std::size_t before = cache.size();
        auto hit = cache.get(*network, plan, cfg);
        EXPECT_EQ(hit.get(), entry.get()) << v.what;
        EXPECT_EQ(cache.size(), before) << v.what;
        expectFreshProgram(*hit, *network, plan, cfg, v.what);
    }
}

TEST(ProgramCache, EveryHitIsTheProgramAFreshCompileProduces)
{
    auto vgg = net::buildVgg16(32);
    auto googlenet = net::buildGoogLeNet(16);
    ProgramCache cache;
    for (const net::Network *network : {vgg.get(), googlenet.get()}) {
        std::vector<MemoryPlan> plans = {
            vdnnAllPlan(*network),
            OffloadConvPlanner(AlgoPreference::MemoryOptimal)
                .plan(*network,
                      PlannerContext::exclusive(gpu::titanXMaxwell())),
            BaselinePlanner(AlgoPreference::MemoryOptimal)
                .plan(*network,
                      PlannerContext::exclusive(gpu::titanXMaxwell())),
        };
        for (bool prefetch : {true, false}) {
            ExecutorConfig cfg;
            cfg.prefetchEnabled = prefetch;
            for (const MemoryPlan &plan : plans) {
                auto miss = cache.get(*network, plan, cfg);
                // Twice: the second lookup is a hit.
                auto hit = cache.get(*network, plan, cfg);
                ASSERT_EQ(hit.get(), miss.get());
                expectFreshProgram(*hit, *network, plan, cfg,
                                   plan.provenance);
            }
        }
    }
    EXPECT_EQ(cache.size(), 2u * 3u * 2u);
}

TEST(ProgramCache, VerdictIsTheShareIndependentPartOfVerifyPlan)
{
    auto network = net::buildVgg16(64);
    const MemoryPlan plan = vdnnAllPlan(*network);
    const ExecutorConfig cfg;
    PlannerContext tight =
        PlannerContext::shared(gpu::titanXMaxwell(), Bytes(4096));
    check::CheckResult standalone =
        check::verifyPlan(*network, plan, tight, cfg);
    ASSERT_TRUE(reportsShareExceeded(standalone));

    ProgramCache cache;
    auto entry = cache.get(*network, plan, cfg);
    EXPECT_FALSE(entry->verified());
    check::CheckResult r = entry->verdict();
    EXPECT_TRUE(entry->verified());
    EXPECT_FALSE(reportsShareExceeded(r));
    EXPECT_EQ(r.provablePeakBytes, standalone.provablePeakBytes);
    // The capacity step alone turns the kept verdict into verifyPlan's.
    check::checkShare(r, tight.capacity());
    EXPECT_EQ(r.report(), standalone.report());
}

TEST(ProgramCache, TenantsShareOneVerificationAndKeepTheirOwnShare)
{
    // Two tenants of one network and planner on one device run one
    // program, verified once; a third, set up after a co-tenant hog
    // shrank the free pool, reuses that verdict but still gets its
    // own ShareExceeded.
    gpu::GpuSpec spec = gpu::titanXMaxwell();
    gpu::Cluster cluster({{spec}});
    obs::MetricsRegistry metrics;
    cluster.setTelemetry({nullptr, &metrics});
    ProgramCache cache;

    auto network = net::buildVgg16(32);
    SessionConfig cfg;
    cfg.planner =
        std::make_shared<OffloadAllPlanner>(AlgoPreference::MemoryOptimal);
    cfg.exec.check.verifyPlans = true;
    auto tenant = [&](int client) {
        SharedGpu share = shareOf(cluster, 0, client);
        share.programs = &cache;
        return std::make_unique<Session>(*network, cfg, share);
    };
    obs::Counter &verified = metrics.counter("check.programs_verified");
    obs::Counter &hits = metrics.counter("check.program_cache_hits");

    auto a = tenant(1);
    auto b = tenant(2);
    ASSERT_TRUE(a->setup());
    ASSERT_TRUE(b->setup());
    EXPECT_EQ(&a->executor().program(), &b->executor().program());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(verified.value(), 1.0);
    EXPECT_EQ(hits.value(), 1.0);
    EXPECT_TRUE(a->executor().checkResult().ok());
    EXPECT_FALSE(reportsShareExceeded(a->executor().checkResult()));
    EXPECT_FALSE(reportsShareExceeded(b->executor().checkResult()));

    // Leave the third tenant room for its persistent state but not for
    // its provable peak.
    const check::CheckResult &full = a->executor().checkResult();
    mem::MemoryPool &pool = cluster.pool(0);
    Bytes share = full.persistentBytes +
                  (full.provablePeakBytes - full.persistentBytes) / 2;
    auto hog = pool.allocate(pool.freeBytes() - share, "co-tenant hog",
                             /*client=*/99);
    auto c = tenant(3);
    const Bytes free_at_gate = pool.freeBytes();
    ASSERT_TRUE(c->setup());
    EXPECT_EQ(&c->executor().program(), &a->executor().program());
    EXPECT_EQ(verified.value(), 1.0);
    EXPECT_EQ(hits.value(), 2.0);
    EXPECT_TRUE(c->executor().checkResult().ok());
    EXPECT_TRUE(reportsShareExceeded(c->executor().checkResult()))
        << c->executor().checkResult().report();
    EXPECT_FALSE(reportsShareExceeded(a->executor().checkResult()));
    // Its verdict is byte for byte what verifying its plan alone
    // against that share reports.
    EXPECT_EQ(c->executor().checkResult().report(),
              check::verifyPlan(*network, c->plan(),
                                PlannerContext::shared(spec, free_at_gate),
                                cfg.exec)
                  .report());

    c->teardown();
    b->teardown();
    a->teardown();
    pool.release(hog);
    EXPECT_EQ(pool.usedBytes(), 0);
}

TEST(ProgramCache, ServeRunVerifiesEachDistinctProgramOnce)
{
    // Six identical tenants on one device: one run program (plus the
    // prefetch-off admission entry, which the gate never counts), so
    // one verification and a hit for every other executor build.
    obs::MetricsRegistry metrics;
    serve::SchedulerConfig scfg;
    scfg.policy = serve::SchedPolicy::RoundRobin;
    scfg.telemetry = {nullptr, &metrics};
    serve::Scheduler sched(scfg);
    std::shared_ptr<const net::Network> network = net::buildTinyCnn(16);
    const int kJobs = 6;
    for (int i = 0; i < kJobs; ++i) {
        serve::JobSpec spec;
        spec.network = network;
        spec.planner = std::make_shared<OffloadAllPlanner>(
            AlgoPreference::MemoryOptimal);
        spec.exec.check.verifyPlans = true;
        spec.iterations = 2;
        sched.submit(std::move(spec));
    }
    serve::ServeReport rep = sched.run();
    ASSERT_EQ(rep.finishedCount(), kJobs);
    EXPECT_EQ(metrics.counter("check.programs_verified").value(), 1.0);
    EXPECT_EQ(metrics.counter("check.program_cache_hits").value(),
              double(kJobs - 1));
}
