/** @file End-to-end tests of the 1GB-superpage generalisation the
 *  paper sketches in Section IV ("this approach generalizes readily to
 *  1GB superpages too"). */

#include <gtest/gtest.h>

#include "core/seesaw_cache.hh"
#include "mem/os_memory_manager.hh"
#include "tlb/tlb_hierarchy.hh"

namespace seesaw {
namespace {

constexpr Addr kGB = 1ULL << 30;
constexpr Addr kMB2 = 2ULL << 20;

OsParams
bigParams()
{
    OsParams p;
    p.memBytes = 2 * kGB;
    p.kernelReservedFraction = 0.0;
    p.pollutedRegionFraction = 0.0;
    return p;
}

TEST(OneGbPages, OsMapsAndTranslates)
{
    OsMemoryManager os(bigParams());
    const Asid asid = os.createProcess();
    ASSERT_TRUE(os.mapOneGbPage(asid, 4 * kGB));

    auto t = os.translate(asid, 4 * kGB + 0x12345678);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->size, PageSize::Super1GB);
    EXPECT_EQ(t->vaBase, 4 * kGB);
    EXPECT_EQ(t->paBase % kGB, 0u);
    EXPECT_DOUBLE_EQ(os.superpageCoverage(asid), 1.0);
}

TEST(OneGbPages, AllocationFailsWithoutContiguity)
{
    OsMemoryManager os(bigParams());
    // Pin one frame in each 1GB half: no contiguous 1GB block remains.
    const auto first = os.allocateRawFrames(1, /*movable=*/false);
    ASSERT_EQ(first, std::vector<std::uint64_t>{0});
    // Consume frames until we cross into the second gigabyte, then pin.
    const auto frames =
        os.allocateRawFrames(std::uint64_t{1} << 18, /*movable=*/true);
    ASSERT_EQ(frames.back(), std::uint64_t{1} << 18);
    os.pinRawFrame(frames.back());

    const Asid asid = os.createProcess();
    EXPECT_FALSE(os.mapOneGbPage(asid, 4 * kGB));
}

TEST(OneGbPages, UnmapAndDestroyRelease)
{
    OsMemoryManager os(bigParams());
    const auto before = os.buddy().freeFrames();
    const Asid asid = os.createProcess();
    ASSERT_TRUE(os.mapOneGbPage(asid, 4 * kGB));
    os.unmapRange(asid, 4 * kGB, kGB);
    EXPECT_EQ(os.buddy().freeFrames(), before);

    ASSERT_TRUE(os.mapOneGbPage(asid, 4 * kGB));
    os.destroyProcess(asid);
    EXPECT_EQ(os.buddy().freeFrames(), before);
}

TEST(OneGbPages, TlbHierarchyMarksTftRegionsInsideTheGigPage)
{
    OsMemoryManager os(bigParams());
    const Asid asid = os.createProcess();
    ASSERT_TRUE(os.mapOneGbPage(asid, 4 * kGB));

    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(),
                     os.pageTable());
    std::vector<Addr> marked;
    tlb.setOn2MBFill([&](Asid, Addr va) { marked.push_back(va); });

    // A walk through the 1GB page marks the accessed 2MB region.
    tlb.lookup(asid, 4 * kGB + 5 * kMB2 + 0x123);
    ASSERT_GE(marked.size(), 1u);
    EXPECT_EQ(marked.back(), 4 * kGB + 5 * kMB2);

    // A 1GB L1 TLB hit to a *different* 2MB region refreshes that
    // region's mark.
    tlb.lookup(asid, 4 * kGB + 9 * kMB2 + 0x456);
    EXPECT_EQ(marked.back(), 4 * kGB + 9 * kMB2);
}

TEST(OneGbPages, SeesawFastPathWorksFor1GbBackedAccesses)
{
    OsMemoryManager os(bigParams());
    const Asid asid = os.createProcess();
    ASSERT_TRUE(os.mapOneGbPage(asid, 4 * kGB));

    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(),
                     os.pageTable());
    LatencyTable latency;
    SeesawConfig cfg;
    SeesawCache cache(cfg, latency);
    tlb.setOn2MBFill([&cache](Asid, Addr va) {
        cache.tft().markRegion(va);
    });

    const Addr va = 4 * kGB + 7 * kMB2 + 0x1440;
    const auto tr = tlb.lookup(asid, va); // walk + TFT mark
    ASSERT_FALSE(tr.fault);
    const Addr pa = tr.translation.translate(va);

    // 1GB pages keep bits 29:0 across translation: the partition bits
    // certainly agree.
    EXPECT_EQ((va >> 12) & 1, (pa >> 12) & 1);

    cache.access({va, pa, PageSize::Super1GB, AccessType::Read});
    const auto res =
        cache.access({va, pa, PageSize::Super1GB, AccessType::Read});
    EXPECT_TRUE(res.tftHit);
    EXPECT_TRUE(res.hit);
    EXPECT_TRUE(res.fastPath);
    EXPECT_EQ(res.waysRead, 4u);
    EXPECT_EQ(res.latencyCycles, cache.fastHitCycles());
}

TEST(OneGbPages, PlacementInvariantHoldsFor1GbLines)
{
    OsMemoryManager os(bigParams());
    const Asid asid = os.createProcess();
    ASSERT_TRUE(os.mapOneGbPage(asid, 4 * kGB));

    LatencyTable latency;
    SeesawCache cache({}, latency);
    for (Addr off = 0; off < (8ULL << 20); off += 4096 + 64) {
        const Addr va = 4 * kGB + off;
        const auto t = os.translate(asid, va);
        ASSERT_TRUE(t);
        cache.tft().markRegion(va);
        cache.access({va, t->translate(va), PageSize::Super1GB,
                      AccessType::Read});
    }
    EXPECT_TRUE(cache.tags().checkPlacementInvariant());
}

} // namespace
} // namespace seesaw
