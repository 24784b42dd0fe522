/**
 * @file
 * Unit and property tests for the cnmem-style memory pool and the
 * pinned host allocator.
 */

#include "mem/memory_pool.hh"
#include "mem/pinned_host.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "common/units.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

using namespace vdnn;
using namespace vdnn::mem;
using namespace vdnn::literals;

TEST(MemoryPool, FreshPoolIsEmpty)
{
    MemoryPool pool(1_MiB);
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(pool.freeBytes(), 1_MiB);
    EXPECT_EQ(pool.largestFreeBlock(), 1_MiB);
    EXPECT_EQ(pool.liveAllocations(), 0u);
    EXPECT_TRUE(pool.checkInvariants());
}

TEST(MemoryPool, AllocateRoundsUpToAlignment)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(1, "tiny");
    EXPECT_EQ(a.size, MemoryPool::kAlignment);
    EXPECT_EQ(a.offset % MemoryPool::kAlignment, 0);
    EXPECT_EQ(pool.usedBytes(), MemoryPool::kAlignment);
}

TEST(MemoryPool, ZeroByteAllocationTakesOneGranule)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(0, "empty");
    EXPECT_EQ(a.size, MemoryPool::kAlignment);
    pool.release(a);
    EXPECT_EQ(pool.usedBytes(), 0);
}

TEST(MemoryPool, ReleaseRestoresCapacity)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(100_KiB);
    auto b = pool.allocate(200_KiB);
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(pool.largestFreeBlock(), 1_MiB);
    EXPECT_EQ(pool.freeBlockCount(), 1u);
}

TEST(MemoryPool, CoalescesAdjacentBlocksInAnyReleaseOrder)
{
    // Three adjacent allocations, all six release permutations must end
    // with a single maximal free block.
    std::vector<std::vector<int>> perms = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    for (const auto &perm : perms) {
        MemoryPool pool(1_MiB);
        std::vector<Allocation> allocs;
        for (int i = 0; i < 3; ++i)
            allocs.push_back(pool.allocate(64_KiB));
        for (int idx : perm)
            pool.release(allocs[size_t(idx)]);
        EXPECT_EQ(pool.freeBlockCount(), 1u);
        EXPECT_EQ(pool.largestFreeBlock(), 1_MiB);
        EXPECT_TRUE(pool.checkInvariants());
    }
}

TEST(MemoryPool, BestFitPrefersSmallestSufficientHole)
{
    MemoryPool pool(1_MiB);
    // Layout: [A 128K][B 64K][C 256K][D rest]; free A and C to create a
    // 128K hole and a 256K hole.
    auto a = pool.allocate(128_KiB);
    auto b = pool.allocate(64_KiB);
    auto c = pool.allocate(256_KiB);
    auto d = pool.allocate(pool.freeBytes());
    pool.release(a);
    pool.release(c);
    // A 100K request fits both holes; best-fit must take the 128K one.
    auto e = pool.allocate(100_KiB);
    EXPECT_EQ(e.offset, 0); // A's hole starts at offset 0
    pool.release(b);
    pool.release(d);
    pool.release(e);
    EXPECT_TRUE(pool.checkInvariants());
}

TEST(MemoryPool, OutOfMemoryReportsDetails)
{
    MemoryPool pool(1_MiB, "gpu");
    auto a = pool.allocate(512_KiB, "x");
    auto r = pool.tryAllocate(768_KiB, "y");
    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(pool.lastOom().requested, 768_KiB);
    EXPECT_EQ(pool.lastOom().tag, "y");
    EXPECT_EQ(pool.lastOom().totalFree, 1_MiB - 512_KiB);
    pool.release(a);
}

TEST(MemoryPool, RequestsAboveTheArenaFailWithDetails)
{
    // A pool's free sizes are 32-bit granule counts, so a request is
    // checked against the arena before it is narrowed: (2^32 + 1)
    // granules would wrap to one granule, which fits everywhere.
    const Bytes kGranule = MemoryPool::kAlignment;
    MemoryPool pool(1_MiB, "gpu");
    for (Bytes size : {1_MiB + 1, 2_MiB, ((Bytes(1) << 32) + 1) * kGranule,
                       Bytes(1) << 50}) {
        auto r = pool.tryAllocate(size, "huge");
        ASSERT_FALSE(r.has_value()) << size;
        EXPECT_EQ(pool.lastOom().requested,
                  (size + kGranule - 1) / kGranule * kGranule);
        EXPECT_EQ(pool.lastOom().tag, "huge");
        EXPECT_EQ(pool.lastOom().totalFree, 1_MiB);
        EXPECT_EQ(pool.lastOom().largestFree, 1_MiB);
    }
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(pool.liveAllocations(), 0u);
    EXPECT_TRUE(pool.checkInvariants());
    // The whole arena still fits exactly.
    auto all = pool.tryAllocate(1_MiB, "all");
    ASSERT_TRUE(all.has_value());
    EXPECT_EQ(all->offset, 0);
}

TEST(MemoryPool, ArenaAboveTheGranuleLimitIsFatal)
{
    const Bytes limit = MemoryPool::kMaxGranules * MemoryPool::kAlignment;
    // The largest arena the lane indexes builds and allocates.
    MemoryPool edge(limit);
    EXPECT_EQ(edge.largestFreeBlock(), limit);
    auto a = edge.tryAllocate(limit / 2, "half");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(edge.largestFreeBlock(), limit - a->size);
    EXPECT_TRUE(edge.checkInvariants());
    // One granule more is a configuration error naming the capacity.
    try {
        MemoryPool pool(limit + MemoryPool::kAlignment, "huge pool");
        FAIL() << "no FatalError for an oversized arena";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("huge pool"),
                  std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find(std::to_string(
                      limit + MemoryPool::kAlignment)),
                  std::string::npos) << e.what();
    }
    EXPECT_THROW(MemoryPool(Bytes(4096) * 1_GiB), FatalError);
}

TEST(MemoryPool, AllocateThrowsFatalOnOom)
{
    MemoryPool pool(1_MiB);
    pool.allocate(1_MiB);
    EXPECT_THROW(pool.allocate(1_KiB), FatalError);
}

TEST(MemoryPool, FragmentationCanFailLargeRequestDespiteEnoughTotal)
{
    MemoryPool pool(1_MiB);
    // Fill with alternating small blocks and free every other one; no
    // contiguous block of half the pool remains even though half is free.
    std::vector<Allocation> allocs;
    for (int i = 0; i < 16; ++i)
        allocs.push_back(pool.allocate(64_KiB));
    for (size_t i = 0; i < allocs.size(); i += 2)
        pool.release(allocs[i]);
    EXPECT_EQ(pool.freeBytes(), 512_KiB);
    EXPECT_FALSE(pool.tryAllocate(128_KiB).has_value());
    EXPECT_EQ(pool.largestFreeBlock(), 64_KiB);
    EXPECT_TRUE(pool.checkInvariants());
}

TEST(MemoryPool, PeakTracksHighWaterMark)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(300_KiB);
    auto b = pool.allocate(300_KiB);
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.peakUsage(), 600_KiB);
    EXPECT_EQ(pool.usedBytes(), 0);
}

TEST(MemoryPoolDeath, DoubleReleasePanics)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(64_KiB);
    pool.release(a);
    EXPECT_DEATH(pool.release(a), "unknown allocation");
}

TEST(MemoryPoolDeath, StaleHandleOfReusedSlotPanics)
{
    // The live table reuses released slots; the handle's generation
    // tells the old owner from the new one.
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(64_KiB, "old");
    pool.release(a);
    auto b = pool.allocate(64_KiB, "new");
    EXPECT_NE(a.id, b.id);
    EXPECT_DEATH(pool.release(a), "unknown allocation");
    pool.release(b);
    EXPECT_EQ(pool.usedBytes(), 0);
}


TEST(MemoryPoolDeath, NegativeClientPanics)
{
    // Per-client usage is indexed by tenant id.
    MemoryPool pool(1_MiB);
    EXPECT_DEATH(pool.tryAllocate(64_KiB, "t", -1), "negative client id");
}

TEST(MemoryPool, TrackerSeesEveryChange)
{
    TimeNs fake_now = 0;
    UsageTracker tracker(&fake_now, true);
    MemoryPool pool(1_MiB);
    pool.setTracker(&tracker);

    fake_now = 10;
    auto a = pool.allocate(128_KiB);
    fake_now = 20;
    auto b = pool.allocate(128_KiB);
    fake_now = 30;
    pool.release(a);
    fake_now = 40;
    pool.release(b);
    tracker.finish();

    EXPECT_EQ(tracker.peakBytes(), 256_KiB);
    // 0 for 10ns, 128K for 10ns, 256K for 10ns, 128K for 10ns -> 128K avg
    EXPECT_EQ(tracker.averageBytes(), 128_KiB);
}

/**
 * Property test: a randomized allocate/release workload must keep the
 * pool's internal invariants (disjoint coalesced free list, used-bytes
 * bookkeeping) at every step, and end balanced.
 */
class MemoryPoolPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MemoryPoolPropertyTest, RandomWorkloadKeepsInvariants)
{
    SplitMix64 rng(GetParam());
    MemoryPool pool(16_MiB);
    std::vector<Allocation> live;
    for (int step = 0; step < 2000; ++step) {
        bool do_alloc = live.empty() || rng.nextDouble() < 0.55;
        if (do_alloc) {
            Bytes size = rng.nextRange(1, 256 * kKiB);
            auto a = pool.tryAllocate(size, "prop");
            if (a)
                live.push_back(*a);
        } else {
            size_t idx = size_t(rng.nextRange(0, std::int64_t(live.size()) - 1));
            pool.release(live[idx]);
            live.erase(live.begin() + std::ptrdiff_t(idx));
        }
        ASSERT_TRUE(pool.checkInvariants()) << "at step " << step;
    }
    for (const auto &a : live)
        pool.release(a);
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(pool.freeBlockCount(), 1u);
    EXPECT_TRUE(pool.checkInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryPoolPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

/**
 * Differential test: the flat best-fit pool must place every block
 * exactly where the two-tier std::map allocator it replaced did, and
 * fail exactly the same requests. The reference below is that
 * allocator, kept verbatim in spirit: small requests first take the
 * tightest *small* free block, and only then fall back to best fit
 * over every block; large requests carve from the high end.
 */
class TwoTierReferencePool
{
  public:
    explicit TwoTierReferencePool(Bytes capacity)
        : cap(capacity), large(capacity / MemoryPool::kLargeFraction)
    {
        free.emplace(0, cap);
    }

    std::optional<Bytes> allocate(Bytes size)
    {
        Bytes need = std::max<Bytes>(
            (size + MemoryPool::kAlignment - 1) / MemoryPool::kAlignment *
                MemoryPool::kAlignment,
            MemoryPool::kAlignment);
        auto best = free.end();
        if (need < large) {
            for (auto it = free.begin(); it != free.end(); ++it) {
                if (it->second < need || it->second >= large)
                    continue;
                if (best == free.end() || it->second < best->second)
                    best = it;
            }
        }
        if (best == free.end()) {
            for (auto it = free.begin(); it != free.end(); ++it) {
                if (it->second < need)
                    continue;
                if (best == free.end() || it->second < best->second)
                    best = it;
            }
        }
        if (best == free.end())
            return std::nullopt;
        Bytes off = best->first;
        Bytes bsize = best->second;
        free.erase(best);
        Bytes at;
        if (need >= large) {
            at = off + bsize - need;
            if (bsize > need)
                free.emplace(off, bsize - need);
        } else {
            at = off;
            if (bsize > need)
                free.emplace(off + need, bsize - need);
        }
        return at;
    }

    void release(Bytes offset, Bytes size)
    {
        auto ins = free.emplace(offset, size).first;
        auto next = std::next(ins);
        if (next != free.end() && ins->first + ins->second == next->first) {
            ins->second += next->second;
            free.erase(next);
        }
        if (ins != free.begin()) {
            auto prev = std::prev(ins);
            if (prev->first + prev->second == ins->first) {
                prev->second += ins->second;
                free.erase(ins);
            }
        }
    }

    std::size_t blocks() const { return free.size(); }

  private:
    Bytes cap;
    Bytes large;
    std::map<Bytes, Bytes> free;
};

class MemoryPoolDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

/** 4,000 mixed operations at @p capacity, compared step by step. */
void
expectMatchesTwoTierBestFit(std::uint64_t seed, Bytes capacity)
{
    SplitMix64 rng(seed);
    MemoryPool pool(capacity);
    TwoTierReferencePool ref(capacity);
    const Bytes large = capacity / MemoryPool::kLargeFraction;
    std::vector<Allocation> live;
    int ooms = 0;
    int large_allocs = 0;
    for (int step = 0; step < 4000; ++step) {
        bool do_alloc = live.empty() || rng.nextDouble() < 0.6;
        if (do_alloc) {
            // Sizes on both sides of the large threshold, a few right
            // at it, so both carve directions and the old small-block
            // tier all run.
            double pick = rng.nextDouble();
            Bytes size = pick < 0.7    ? rng.nextRange(1, large / 4)
                         : pick < 0.8 ? rng.nextRange(large - 4 * kKiB,
                                                      large + 4 * kKiB)
                                       : rng.nextRange(large, 3 * large);
            std::optional<Bytes> want = ref.allocate(size);
            std::optional<Allocation> got =
                pool.tryAllocate(size, "diff", int(step % 5));
            ASSERT_EQ(want.has_value(), got.has_value())
                << "OOM outcome differs at step " << step;
            if (got) {
                ASSERT_EQ(*want, got->offset) << "at step " << step;
                large_allocs += got->size >= large;
                live.push_back(*got);
            } else {
                ++ooms;
            }
        } else {
            size_t idx =
                size_t(rng.nextRange(0, std::int64_t(live.size()) - 1));
            ref.release(live[idx].offset, live[idx].size);
            pool.release(live[idx]);
            live.erase(live.begin() + std::ptrdiff_t(idx));
        }
        ASSERT_TRUE(pool.checkInvariants()) << "at step " << step;
        ASSERT_EQ(pool.freeBlockCount(), ref.blocks()) << "at step " << step;
    }
    // The mix must actually fragment the arena and fail requests.
    EXPECT_GT(ooms, 0);
    EXPECT_GT(large_allocs, 0);
}

TEST_P(MemoryPoolDifferentialTest, MatchesTwoTierBestFit)
{
    expectMatchesTwoTierBestFit(GetParam(), 24_MiB);
}

/**
 * The same mix on the 1 TiB arena of the oracle GPU
 * (core/training_session.cc): 2^31 granules, past the range of a
 * signed 32-bit granule count.
 */
TEST_P(MemoryPoolDifferentialTest, MatchesTwoTierBestFitAtOracleArena)
{
    expectMatchesTwoTierBestFit(GetParam(), 1024_GiB);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryPoolDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

/**
 * Differential test against the plainest possible best fit: a bitmap
 * of 512-byte granules. Each request takes the shortest run of free
 * granules that fits (the lowest on ties), carving large requests from
 * the run's high end. The reference shares no code or data structure
 * with the pool (no free list, no coalescing), so offsets, OOM
 * decisions, the largest free block and the pool's own invariant
 * check are compared after every one of 120,000 operations.
 */
class GranuleBitmapReference
{
  public:
    explicit GranuleBitmapReference(Bytes capacity)
        : used(std::size_t(capacity / MemoryPool::kAlignment), 0),
          large(capacity / MemoryPool::kLargeFraction)
    {}

    std::optional<Bytes> allocate(Bytes size)
    {
        std::size_t need = std::size_t(std::max<Bytes>(
            (size + MemoryPool::kAlignment - 1) / MemoryPool::kAlignment, 1));
        std::size_t best_start = 0, best_len = 0;
        forEachRun([&](std::size_t start, std::size_t len) {
            if (len >= need && (best_len == 0 || len < best_len)) {
                best_start = start;
                best_len = len;
            }
        });
        if (best_len == 0)
            return std::nullopt;
        std::size_t at = Bytes(need) * MemoryPool::kAlignment >= large
                             ? best_start + best_len - need
                             : best_start;
        std::fill_n(used.begin() + std::ptrdiff_t(at), need, 1);
        return Bytes(at) * MemoryPool::kAlignment;
    }

    void release(Bytes offset, Bytes size)
    {
        std::size_t at = std::size_t(offset / MemoryPool::kAlignment);
        std::size_t n = std::size_t(size / MemoryPool::kAlignment);
        for (std::size_t i = at; i < at + n; ++i) {
            ASSERT_TRUE(used[i]) << "reference double free at granule " << i;
            used[i] = 0;
        }
    }

    Bytes largestFree() const
    {
        std::size_t best = 0;
        forEachRun([&](std::size_t, std::size_t len) {
            best = std::max(best, len);
        });
        return Bytes(best) * MemoryPool::kAlignment;
    }

    Bytes freeBytes() const
    {
        return Bytes(std::count(used.begin(), used.end(), 0)) *
               MemoryPool::kAlignment;
    }

  private:
    /** Call @p fn(start, length) on every maximal run of free granules. */
    template <typename F>
    void forEachRun(F &&fn) const
    {
        std::size_t i = 0;
        while (i < used.size()) {
            if (used[i]) {
                ++i;
                continue;
            }
            std::size_t start = i;
            while (i < used.size() && !used[i])
                ++i;
            fn(start, i - start);
        }
    }

    std::vector<std::uint8_t> used; ///< per 512-byte granule
    Bytes large;
};

TEST(MemoryPoolDifferential, MatchesGranuleBitmapBestFit)
{
    SplitMix64 rng(20161015);
    const Bytes capacity = 1_MiB;
    MemoryPool pool(capacity);
    GranuleBitmapReference ref(capacity);
    const Bytes large = capacity / MemoryPool::kLargeFraction;
    std::vector<Allocation> live;
    int ooms = 0;
    int large_allocs = 0;
    const int kOps = 120000;
    for (int step = 0; step < kOps; ++step) {
        bool do_alloc = live.empty() || rng.nextDouble() < 0.55;
        if (do_alloc) {
            double pick = rng.nextDouble();
            Bytes size = pick < 0.75   ? rng.nextRange(0, 24 * kKiB)
                         : pick < 0.85 ? rng.nextRange(large - 2 * kKiB,
                                                       large + 2 * kKiB)
                                       : rng.nextRange(large, 2 * large);
            std::optional<Bytes> want = ref.allocate(size);
            std::optional<Allocation> got =
                pool.tryAllocate(size, "diff", int(step % 5));
            ASSERT_EQ(want.has_value(), got.has_value())
                << "OOM decision differs at step " << step;
            if (got) {
                ASSERT_EQ(*want, got->offset) << "at step " << step;
                large_allocs += got->size >= large;
                live.push_back(*got);
            } else {
                ++ooms;
            }
        } else {
            std::size_t idx =
                std::size_t(rng.nextRange(0, std::int64_t(live.size()) - 1));
            ref.release(live[idx].offset, live[idx].size);
            pool.release(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
        ASSERT_TRUE(pool.checkInvariants()) << "at step " << step;
        ASSERT_EQ(pool.largestFreeBlock(), ref.largestFree())
            << "at step " << step;
        ASSERT_EQ(pool.freeBytes(), ref.freeBytes()) << "at step " << step;
        ASSERT_EQ(pool.liveAllocations(), live.size()) << "at step " << step;
    }
    // The mix must fragment the arena, fail requests and carve both ends.
    EXPECT_GT(ooms, kOps / 100);
    EXPECT_GT(large_allocs, kOps / 100);
}

// --- PinnedHostAllocator ------------------------------------------------------

TEST(PinnedHost, TracksUsedAndPeak)
{
    PinnedHostAllocator host(1_GiB);
    auto a = host.allocate(100_MiB, "x1");
    auto b = host.allocate(200_MiB, "x2");
    EXPECT_EQ(host.usedBytes(), 300_MiB);
    host.release(a);
    EXPECT_EQ(host.usedBytes(), 200_MiB);
    EXPECT_EQ(host.peakUsage(), 300_MiB);
    host.release(b);
    EXPECT_EQ(host.liveAllocations(), 0u);
}

TEST(PinnedHost, CumulativeTotalNeverDecreases)
{
    PinnedHostAllocator host(1_GiB);
    auto a = host.allocate(100_MiB);
    host.release(a);
    auto b = host.allocate(50_MiB);
    host.release(b);
    EXPECT_EQ(host.totalAllocated(), 150_MiB);
}

TEST(PinnedHost, FailsWhenHostMemoryExhausted)
{
    PinnedHostAllocator host(256_MiB);
    auto a = host.tryAllocate(200_MiB);
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(host.tryAllocate(100_MiB).has_value());
    EXPECT_THROW(host.allocate(100_MiB), FatalError);
    host.release(*a);
    EXPECT_TRUE(host.tryAllocate(100_MiB).has_value());
}

TEST(PinnedHostDeath, DoubleReleasePanics)
{
    PinnedHostAllocator host(1_GiB);
    auto a = host.allocate(100_MiB, "x");
    host.release(a);
    EXPECT_DEATH(host.release(a), "unknown host allocation");
}

TEST(PinnedHostDeath, StaleHandleOfReusedSlotPanics)
{
    PinnedHostAllocator host(1_GiB);
    auto a = host.allocate(100_MiB, "old");
    host.release(a);
    auto b = host.allocate(100_MiB, "new");
    EXPECT_NE(a.id, b.id);
    EXPECT_DEATH(host.release(a), "unknown host allocation");
    host.release(b);
    EXPECT_EQ(host.usedBytes(), 0);
}
