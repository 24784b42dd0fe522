/**
 * @file
 * Unit tests for the PCIe DMA and page-migration transfer models,
 * cross-checked against the constants the paper quotes in Section II-C.
 */

#include "interconnect/arbiter.hh"
#include "interconnect/page_migration.hh"
#include "interconnect/pcie_link.hh"

#include "common/units.hh"

#include <gtest/gtest.h>

using namespace vdnn;
using namespace vdnn::ic;
using namespace vdnn::literals;

TEST(PcieLink, PresetMatchesPaperNode)
{
    PcieLink link(pcieGen3x16());
    EXPECT_DOUBLE_EQ(link.spec().rawBandwidth, 16.0e9);
    EXPECT_DOUBLE_EQ(link.spec().dmaBandwidth, 12.8e9);
}

TEST(PcieLink, LargeTransferApproachesDmaBandwidth)
{
    PcieLink link(pcieGen3x16());
    // 1 GiB: the fixed setup cost is negligible.
    double bw = link.achievedBandwidth(1_GiB);
    EXPECT_GT(bw, 0.99 * 12.8e9);
    EXPECT_LE(bw, 12.8e9);
}

TEST(PcieLink, SmallTransferDominatedBySetupCost)
{
    PcieLink link(pcieGen3x16());
    double bw = link.achievedBandwidth(4096);
    EXPECT_LT(bw, 1.0e9); // far below line rate
}

TEST(PcieLink, TransferTimeScalesLinearly)
{
    PcieLink link(pcieGen3x16());
    TimeNs t1 = link.transferTime(256_MiB);
    TimeNs t2 = link.transferTime(512_MiB);
    double setup = double(link.spec().setupLatency);
    EXPECT_NEAR(double(t2) - setup, 2.0 * (double(t1) - setup),
                double(t1) * 0.01);
}

TEST(PcieLink, ZeroBytesStillCostsSetup)
{
    PcieLink link(pcieGen3x16());
    EXPECT_EQ(link.transferTime(0), link.spec().setupLatency);
}

TEST(PcieLink, NvlinkPresetIsFaster)
{
    PcieLink pcie(pcieGen3x16());
    PcieLink nvlink(nvlinkGen1());
    EXPECT_LT(nvlink.transferTime(1_GiB), pcie.transferTime(1_GiB));
}

TEST(PageMigration, EffectiveBandwidthMatchesPaperRange)
{
    // Section II-C: 20-50 us per 4 KB page -> 80-200 MB/s.
    PageMigrationModel pm;
    double best = pm.effectiveBandwidth(false);
    double worst = pm.effectiveBandwidth(true);
    EXPECT_NEAR(best, 200.0e6, 10.0e6);
    EXPECT_NEAR(worst, 80.0e6, 5.0e6);
}

TEST(PageMigration, PageCountRoundsUp)
{
    PageMigrationModel pm;
    EXPECT_EQ(pm.pagesFor(0), 0);
    EXPECT_EQ(pm.pagesFor(1), 1);
    EXPECT_EQ(pm.pagesFor(4096), 1);
    EXPECT_EQ(pm.pagesFor(4097), 2);
}

TEST(PageMigration, DmaIsOrdersOfMagnitudeFaster)
{
    PcieLink link(pcieGen3x16());
    PageMigrationModel pm;
    Bytes payload = 256_MiB;
    double ratio = double(pm.transferTime(payload)) /
                   double(link.transferTime(payload));
    // 12.8 GB/s vs 200 MB/s -> ~64x in the optimistic case.
    EXPECT_GT(ratio, 50.0);
    EXPECT_LT(ratio, 80.0);
}

// --- PCIe fair-share arbiter -------------------------------------------------

TEST(FairShareArbiter, FifoWithinASingleClient)
{
    FairShareArbiter arb;
    // One client: every pick is the FIFO head, regardless of history.
    EXPECT_EQ(arb.pick({7, 7, 7}), 0u);
    arb.charge(7, 1_GiB);
    EXPECT_EQ(arb.pick({7, 7}), 0u);
}

TEST(FairShareArbiter, LeastServedClientGoesNext)
{
    FairShareArbiter arb;
    // Equal service: FIFO order breaks the tie.
    EXPECT_EQ(arb.pick({1, 2}), 0u);
    arb.charge(1, 64_MiB);
    // Client 1 has been served; client 2 jumps the queue.
    EXPECT_EQ(arb.pick({1, 2}), 1u);
    arb.charge(2, 64_MiB);
    EXPECT_EQ(arb.pick({2, 1}), 0u); // tie again -> FIFO
}

TEST(FairShareArbiter, ServiceAccountingAndReset)
{
    FairShareArbiter arb;
    arb.charge(3, 100);
    arb.charge(3, 28);
    EXPECT_EQ(arb.servedBytes(3), 128);
    EXPECT_EQ(arb.servedBytes(9), 0);
    arb.resetService();
    EXPECT_EQ(arb.servedBytes(3), 0);
}

TEST(FairShareArbiter, LateArrivalCannotStarveTheIncumbent)
{
    // Tenant 1 offloaded 10 GiB alone before tenant 2 was admitted.
    // Once both contend, tenant 2's catch-up priority is bounded by
    // the credit cap: after at most a few transfers the grants
    // alternate — tenant 1 is not starved until lifetime byte counts
    // converge.
    FairShareArbiter arb;
    arb.charge(1, 10_GiB);

    const Bytes xfer = 100_MiB;
    int grants1 = 0;
    int run2 = 0;
    int longest_run2 = 0;
    for (int i = 0; i < 24; ++i) {
        std::size_t p = arb.pick({1, 2});
        int winner = p == 0 ? 1 : 2;
        if (winner == 1) {
            ++grants1;
            run2 = 0;
        } else {
            longest_run2 = std::max(longest_run2, ++run2);
        }
        arb.charge(winner, xfer);
    }
    // The newcomer's head start is capped at kMaxCreditBytes worth of
    // transfers; from then on the link splits evenly.
    EXPECT_LE(longest_run2,
              int(FairShareArbiter::kMaxCreditBytes / xfer) + 1);
    EXPECT_GE(grants1, 9);
}
