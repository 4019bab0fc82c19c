/** @file Tests for the split-L1 / unified-L2 TLB hierarchy. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tlb/tlb_hierarchy.hh"

namespace seesaw {
namespace {

class TlbHierarchyTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        table_.map(1, 0x1000, 0x5000, PageSize::Base4KB);
        table_.map(1, 0x200000, 0x40000000, PageSize::Super2MB);
    }

    PageTable table_;
};

TEST_F(TlbHierarchyTest, ColdLookupWalksAndFills)
{
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    const auto first = tlb.lookup(1, 0x1234);
    EXPECT_FALSE(first.fault);
    EXPECT_FALSE(first.l1Hit);
    EXPECT_TRUE(first.walked);
    EXPECT_GT(first.penaltyCycles, 0u);
    EXPECT_EQ(first.translation.paBase, 0x5000u);

    const auto second = tlb.lookup(1, 0x1234);
    EXPECT_TRUE(second.l1Hit);
    EXPECT_EQ(second.penaltyCycles, 0u);
}

TEST_F(TlbHierarchyTest, SuperpageFillsThe2MBTlbAndFiresHook)
{
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    std::vector<Addr> marked;
    tlb.setOn2MBFill(
        [&](Asid, Addr va) { marked.push_back(va); });

    tlb.lookup(1, 0x234567);
    ASSERT_EQ(marked.size(), 1u);
    EXPECT_EQ(marked[0], 0x200000u);
    EXPECT_EQ(tlb.superpageL1ValidCount(), 1u);

    // Default policy: the hook is refreshed on 2MB L1 TLB hits too, so
    // a conflict-displaced TFT entry can be restored.
    tlb.lookup(1, 0x234567);
    ASSERT_EQ(marked.size(), 2u);
    EXPECT_EQ(marked[1], 0x200000u);
}

TEST_F(TlbHierarchyTest, PaperLiteralFillOnlyPolicy)
{
    TlbHierarchyParams params = TlbHierarchyParams::sandybridge();
    params.refreshOn2mHit = false;
    TlbHierarchy tlb(params, table_);
    std::vector<Addr> marked;
    tlb.setOn2MBFill([&](Asid, Addr va) { marked.push_back(va); });

    tlb.lookup(1, 0x234567); // fill -> fires
    tlb.lookup(1, 0x234567); // L1 hit -> silent under Fig 5's policy
    EXPECT_EQ(marked.size(), 1u);
}

TEST_F(TlbHierarchyTest, L2HitAfterL1Eviction)
{
    TlbHierarchyParams params = TlbHierarchyParams::sandybridge();
    TlbHierarchy tlb(params, table_);

    // 256 pages overflow the 128-entry L1 TLB but fit in the
    // 512-entry L2 TLB.
    for (Addr p = 0; p < 256; ++p)
        table_.map(2, 0x100000 + (p << 12), 0x800000 + (p << 12),
                   PageSize::Base4KB);
    for (Addr p = 0; p < 256; ++p)
        tlb.lookup(2, 0x100000 + (p << 12));

    // The second pass must generate L1 misses (capacity) but zero new
    // walks: every re-lookup is at worst an L2 hit.
    const double walks_before = tlb.walker().stats().get("walks");
    const double l1_hits_before = tlb.stats().get("l1_hits");
    for (Addr p = 0; p < 256; ++p)
        tlb.lookup(2, 0x100000 + (p << 12));
    EXPECT_EQ(tlb.walker().stats().get("walks"), walks_before);
    EXPECT_LT(tlb.stats().get("l1_hits") - l1_hits_before, 256.0);
}

TEST_F(TlbHierarchyTest, StatAccessorsCountL2LookupsAndInvlpgs)
{
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    EXPECT_EQ(tlb.l2Lookups(), 0u);
    tlb.lookup(1, 0x1000); // cold: L1 miss -> L2 probe -> walk
    EXPECT_EQ(tlb.l2Lookups(), 1u);
    tlb.lookup(1, 0x1000); // L1 hit: no L2 probe
    EXPECT_EQ(tlb.l2Lookups(), 1u);

    EXPECT_EQ(tlb.invlpgs(), 0u);
    tlb.invalidatePage(1, 0x1000);
    EXPECT_EQ(tlb.invlpgs(), 1u);
}

TEST_F(TlbHierarchyTest, FaultOnUnmappedAddress)
{
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    const auto res = tlb.lookup(1, 0xdeadbeef000);
    EXPECT_TRUE(res.fault);
}

TEST_F(TlbHierarchyTest, InvalidatePageDropsAllLevels)
{
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    tlb.lookup(1, 0x1000);
    tlb.invalidatePage(1, 0x1000);
    const auto res = tlb.lookup(1, 0x1000);
    EXPECT_FALSE(res.l1Hit);
    EXPECT_TRUE(res.walked); // L2 was invalidated too
}

TEST_F(TlbHierarchyTest, Invalidate2MBPage)
{
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    tlb.lookup(1, 0x200000);
    EXPECT_EQ(tlb.superpageL1ValidCount(), 1u);
    tlb.invalidatePage(1, 0x200000);
    EXPECT_EQ(tlb.superpageL1ValidCount(), 0u);
}

TEST_F(TlbHierarchyTest, FlushAllEmptiesHierarchy)
{
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    tlb.lookup(1, 0x1000);
    tlb.lookup(1, 0x200000);
    tlb.flushAll();
    EXPECT_EQ(tlb.superpageL1ValidCount(), 0u);
    EXPECT_TRUE(tlb.lookup(1, 0x1000).walked);
}

TEST_F(TlbHierarchyTest, PresetsMatchTableII)
{
    const auto sb = TlbHierarchyParams::sandybridge();
    EXPECT_EQ(sb.l1Entries4k, 128u);
    EXPECT_EQ(sb.l1Entries2m, 16u);

    const auto atom = TlbHierarchyParams::atom();
    EXPECT_EQ(atom.l1Entries4k, 64u);
    EXPECT_EQ(atom.l1Entries2m, 32u);
    EXPECT_EQ(atom.l2Entries, 512u);
}

TEST_F(TlbHierarchyTest, SuperpageCapacityMatchesPreset)
{
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    EXPECT_EQ(tlb.superpageL1Capacity(), 16u);
}

TEST_F(TlbHierarchyTest, SuperpagesAmpleWhenADedicatedTlbIsAQuarterFull)
{
    // 16-entry 2MB L1 TLB: four resident 2MB entries are a quarter.
    for (Addr r = 2; r < 5; ++r)
        table_.map(1, r << 21, r << 21, PageSize::Super2MB);
    table_.map(1, 1ULL << 30, 1ULL << 30, PageSize::Super1GB);
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    tlb.lookup(1, 0x1000);
    EXPECT_FALSE(tlb.superpagesAmple());
    for (Addr r = 1; r < 4; ++r)
        tlb.lookup(1, r << 21);
    EXPECT_FALSE(tlb.superpagesAmple()); // 3 of 16
    tlb.lookup(1, 4ULL << 21);
    EXPECT_TRUE(tlb.superpagesAmple()); // 4 of 16

    // One resident entry already fills a quarter of the 1GB L1 TLB.
    tlb.flushAll();
    tlb.lookup(1, (1ULL << 30) + 0x1234);
    EXPECT_TRUE(tlb.superpagesAmple());
    EXPECT_EQ(tlb.superpageL1ValidCount(), 0u); // counts the 2MB TLB
}

TEST_F(TlbHierarchyTest, AuditsVisitEverySplitLevelInOrder)
{
    table_.map(1, 1ULL << 30, 1ULL << 30, PageSize::Super1GB);
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    tlb.lookup(1, 0x1000);
    tlb.lookup(1, 0x200000);
    tlb.lookup(1, 1ULL << 30);
    std::vector<std::string> levels;
    tlb.forEachValidEntry([&](const char *level, const TlbEntry &) {
        levels.emplace_back(level);
    });
    EXPECT_EQ(levels, (std::vector<std::string>{"l1.4k", "l1.2m",
                                                "l1.1g", "l2.4k",
                                                "l2.2m"}));
}

TEST_F(TlbHierarchyTest, PenaltyOrderingL1HitFastestWalkSlowest)
{
    TlbHierarchy tlb(TlbHierarchyParams::sandybridge(), table_);
    const auto walk = tlb.lookup(1, 0x1000);  // cold: walk
    tlb.invalidatePage(1, 0x1000);
    // After invlpg everywhere, the next lookup walks again; then
    // populate L1 and compare penalties.
    const auto walk2 = tlb.lookup(1, 0x1000);
    const auto l1hit = tlb.lookup(1, 0x1000);
    EXPECT_GT(walk.penaltyCycles, 0u);
    EXPECT_EQ(walk.penaltyCycles, walk2.penaltyCycles);
    EXPECT_EQ(l1hit.penaltyCycles, 0u);
}

} // namespace
} // namespace seesaw
