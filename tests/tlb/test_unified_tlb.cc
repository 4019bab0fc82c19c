/** @file Tests for the unified L1 TLB: one fully-associative Tlb
 *  holding every page size. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/page_table.hh"
#include "tlb/tlb_hierarchy.hh"

namespace seesaw {
namespace {

constexpr Addr kMB2 = 2ULL << 20;
constexpr PageSize k4K = PageSize::Base4KB;
constexpr PageSize k2M = PageSize::Super2MB;
constexpr PageSize k1G = PageSize::Super1GB;

Tlb
unifiedTlb(unsigned entries)
{
    return Tlb("u", entries, entries, {k4K, k2M, k1G});
}

TEST(UnifiedTlb, MixedPageSizesCoexist)
{
    Tlb tlb = unifiedTlb(8);
    tlb.insert(1, 0x1000, 0x9000, k4K);
    tlb.insert(1, kMB2, 4 * kMB2, k2M);
    tlb.insert(1, 1ULL << 30, 2ULL << 30, k1G);

    EXPECT_NE(tlb.lookup(1, 0x1234), nullptr);
    EXPECT_NE(tlb.lookup(1, kMB2 + 0x12345), nullptr);
    EXPECT_NE(tlb.lookup(1, (1ULL << 30) + 0xabcdef), nullptr);
    EXPECT_EQ(tlb.validCount(), 3u);
    EXPECT_EQ(tlb.superpageValidCount(), 2u);
}

TEST(UnifiedTlb, CoverageRespectsPageSize)
{
    Tlb tlb = unifiedTlb(8);
    tlb.insert(1, kMB2, 4 * kMB2, k2M);
    EXPECT_NE(tlb.lookup(1, kMB2), nullptr);
    EXPECT_NE(tlb.lookup(1, 2 * kMB2 - 1), nullptr);
    EXPECT_EQ(tlb.lookup(1, 2 * kMB2), nullptr);
    EXPECT_EQ(tlb.lookup(1, kMB2 - 1), nullptr);
}

TEST(UnifiedTlb, SharedCapacityAcrossSizes)
{
    // A superpage-heavy phase may consume the entire structure —
    // the property split TLBs cannot express.
    Tlb tlb = unifiedTlb(4);
    for (Addr r = 0; r < 4; ++r)
        tlb.insert(1, r * kMB2, r * kMB2, k2M);
    EXPECT_EQ(tlb.superpageValidCount(), 4u);

    // A 4KB insert now evicts the LRU superpage entry.
    tlb.insert(1, 0x7000'0000, 0x9000, k4K);
    EXPECT_EQ(tlb.validCount(), 4u);
    EXPECT_EQ(tlb.superpageValidCount(), 3u);
    EXPECT_EQ(tlb.lookup(1, 0), nullptr); // LRU victim
    EXPECT_EQ(tlb.evictions(), 1u);
}

TEST(UnifiedTlb, LruAcrossTheWholePool)
{
    Tlb tlb = unifiedTlb(3);
    tlb.insert(1, 0x1000, 0x1000, k4K);
    tlb.insert(1, 0x2000, 0x2000, k4K);
    tlb.insert(1, 0x3000, 0x3000, k4K);
    // Touch the first so the second becomes LRU.
    EXPECT_NE(tlb.lookup(1, 0x1000), nullptr);
    tlb.insert(1, 0x4000, 0x4000, k4K);
    EXPECT_NE(tlb.lookup(1, 0x1000), nullptr);
    EXPECT_EQ(tlb.lookup(1, 0x2000), nullptr);
}

TEST(UnifiedTlb, AsidIsolationAndInvalidation)
{
    Tlb tlb = unifiedTlb(8);
    tlb.insert(1, 0x1000, 0x9000, k4K);
    tlb.insert(2, 0x1000, 0xa000, k4K);
    EXPECT_EQ(tlb.lookup(1, 0x1000)->paBase, 0x9000u);
    EXPECT_EQ(tlb.lookup(2, 0x1000)->paBase, 0xa000u);

    EXPECT_TRUE(tlb.invalidatePage(1, 0x1000));
    EXPECT_EQ(tlb.lookup(1, 0x1000), nullptr);
    EXPECT_NE(tlb.lookup(2, 0x1000), nullptr);

    EXPECT_TRUE(tlb.invalidatePage(2, 0x1fff));
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST(UnifiedTlb, RefillOfACoveredAddressRewritesTheEntrySize)
{
    // A fill whose address an entry of another size already covers
    // rewrites that entry in place; the counters follow the size.
    Tlb tlb = unifiedTlb(4);
    tlb.insert(1, kMB2, 4 * kMB2, k2M);
    tlb.insert(1, kMB2 + 0x3000, 0x9000, k4K);
    EXPECT_EQ(tlb.validCount(), 1u);
    EXPECT_EQ(tlb.superpageValidCount(), 0u);
    EXPECT_EQ(tlb.lookup(1, kMB2), nullptr);
    const TlbEntry *e = tlb.lookup(1, kMB2 + 0x3abc);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->size, k4K);
    EXPECT_EQ(e->paBase, 0x9000u);
    EXPECT_EQ(tlb.evictions(), 0u);

    tlb.flushAll();
    EXPECT_EQ(tlb.validCount(), 0u);
    EXPECT_EQ(tlb.superpageValidCount(), 0u);
}

TEST(UnifiedTlbHierarchy, LookupFillsUnifiedAndFiresHook)
{
    PageTable table;
    table.map(1, kMB2, 4 * kMB2, k2M);
    table.map(1, 0x1000, 0x5000, k4K);

    TlbHierarchy tlb(TlbHierarchyParams::unified(16), table);
    std::vector<Addr> marked;
    tlb.setOn2MBFill([&](Asid, Addr va) { marked.push_back(va); });

    const auto super = tlb.lookup(1, kMB2 + 0x5000);
    EXPECT_FALSE(super.fault);
    EXPECT_TRUE(super.walked);
    ASSERT_EQ(marked.size(), 1u);
    EXPECT_EQ(marked[0], kMB2);

    // L1 hit path, with the refresh policy active.
    const auto hit = tlb.lookup(1, kMB2 + 0x6000);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(marked.size(), 2u);

    // Base pages never fire the hook.
    tlb.lookup(1, 0x1000);
    tlb.lookup(1, 0x1000);
    EXPECT_EQ(marked.size(), 2u);

    EXPECT_EQ(tlb.superpageL1ValidCount(), 1u);
    EXPECT_EQ(tlb.superpageL1Capacity(), 16u);
}

TEST(UnifiedTlbHierarchy, InvalidateAndFlushCoverUnified)
{
    PageTable table;
    table.map(1, kMB2, 4 * kMB2, k2M);
    TlbHierarchy tlb(TlbHierarchyParams::unified(16), table);
    tlb.lookup(1, kMB2);
    EXPECT_EQ(tlb.superpageL1ValidCount(), 1u);
    tlb.invalidatePage(1, kMB2);
    EXPECT_EQ(tlb.superpageL1ValidCount(), 0u);

    tlb.lookup(1, kMB2);
    tlb.flushAll();
    EXPECT_EQ(tlb.superpageL1ValidCount(), 0u);
}

TEST(UnifiedTlbHierarchy, AuditsVisitTheUnifiedLevelThenTheL2)
{
    PageTable table;
    table.map(1, 0x1000, 0x5000, k4K);
    TlbHierarchy tlb(TlbHierarchyParams::unified(16), table);
    tlb.lookup(1, 0x1000);
    std::vector<std::string> levels;
    tlb.forEachValidEntry([&](const char *level, const TlbEntry &) {
        levels.emplace_back(level);
    });
    EXPECT_EQ(levels,
              (std::vector<std::string>{"l1.unified", "l2.4k"}));
}

TEST(UnifiedTlbHierarchy, SuperpagesAmpleWhenAThirdOfThePoolIsSuperpage)
{
    PageTable table;
    table.map(1, kMB2, 4 * kMB2, k2M);
    table.map(1, 0x1000, 0x5000, k4K);
    table.map(1, 0x2000, 0x6000, k4K);
    table.map(1, 0x3000, 0x7000, k4K);
    TlbHierarchy tlb(TlbHierarchyParams::unified(16), table);
    EXPECT_TRUE(tlb.superpagesAmple()); // empty: 0 >= 0
    tlb.lookup(1, 0x1000);
    EXPECT_FALSE(tlb.superpagesAmple());
    tlb.lookup(1, kMB2);
    tlb.lookup(1, 0x2000);
    EXPECT_TRUE(tlb.superpagesAmple()); // 1 of 3
    tlb.lookup(1, 0x3000);
    EXPECT_FALSE(tlb.superpagesAmple()); // 1 of 4
}

} // namespace
} // namespace seesaw
