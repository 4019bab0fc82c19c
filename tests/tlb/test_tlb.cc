/** @file Tests for the TLB structure, indexed by one page size. */

#include <gtest/gtest.h>

#include "tlb/tlb.hh"

namespace seesaw {
namespace {

constexpr PageSize k4K = PageSize::Base4KB;

TEST(Tlb, MissThenHitAfterInsert)
{
    Tlb tlb("t", 16, 4, k4K);
    EXPECT_EQ(tlb.lookup(1, 0x1234), nullptr);
    tlb.insert(1, 0x1000, 0x9000, k4K);
    const TlbEntry *e = tlb.lookup(1, 0x1234);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->paBase, 0x9000u);
    EXPECT_EQ(e->size, k4K);
}

TEST(Tlb, PackedKeyRoundTripsAtTheLimits)
{
    // The largest VPN and ASID a key holds, and zero, at every page
    // size: unpacking gives back exactly what was packed, and no key
    // is SetTable's empty sentinel.
    for (PageSize size :
         {k4K, PageSize::Super2MB, PageSize::Super1GB}) {
        for (Addr vpn : {Addr{0}, Addr{1}, Tlb::kMaxVpn}) {
            for (Asid asid : {Asid{0}, Asid{1}, Asid{0xffff}}) {
                const std::uint64_t key = Tlb::packKey(vpn, asid, size);
                EXPECT_NE(key, SetTable<Addr>::kEmpty);
                const TlbEntry e = Tlb::unpackKey(key, 0x5000);
                EXPECT_EQ(e.vpn, vpn);
                EXPECT_EQ(e.asid, asid);
                EXPECT_EQ(e.size, size);
                EXPECT_EQ(e.paBase, 0x5000u);
            }
        }
    }
    // Keys that differ in one field only never alias.
    EXPECT_NE(Tlb::packKey(Tlb::kMaxVpn, 0xffff, k4K),
              Tlb::packKey(Tlb::kMaxVpn, 0xffff, PageSize::Super2MB));
    EXPECT_NE(Tlb::packKey(Tlb::kMaxVpn, 0xffff, k4K),
              Tlb::packKey(Tlb::kMaxVpn, 0xfffe, k4K));
    EXPECT_NE(Tlb::packKey(Tlb::kMaxVpn, 0, k4K),
              Tlb::packKey(Tlb::kMaxVpn - 1, 0, k4K));
}

TEST(Tlb, FillsAtTheKeyLimitsHitThroughLookup)
{
    // A unified TLB holding every size, filled at the top of the VPN
    // range with the largest ASID: each size hits at its own VPN, and
    // a VA one page beyond the range misses instead of aliasing.
    Tlb tlb("t", 8, 8, {k4K, PageSize::Super2MB, PageSize::Super1GB});
    const Asid asid = 0xffff;
    const Addr top4k = Tlb::kMaxVpn << 12;
    tlb.insert(asid, top4k, 0x9000, k4K);
    tlb.insert(asid, 0x40000000, 0x80000000, PageSize::Super1GB);
    tlb.insert(asid, 0x200000, 0x400000, PageSize::Super2MB);
    const TlbEntry *e = tlb.lookup(asid, top4k + 0xfff);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->vpn, Tlb::kMaxVpn);
    EXPECT_EQ(e->size, k4K);
    EXPECT_EQ(e->paBase, 0x9000u);
    e = tlb.lookup(asid, 0x7fffffff);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->size, PageSize::Super1GB);
    EXPECT_EQ(e->paBase, 0x80000000u);
    e = tlb.lookup(asid, 0x3fffff);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->size, PageSize::Super2MB);
    EXPECT_EQ(tlb.lookup(asid, top4k + 0x1000), nullptr);
    EXPECT_EQ(tlb.lookup(asid - 1, top4k), nullptr);

    unsigned seen = 0;
    tlb.forEachValidEntry([&](const TlbEntry &entry) {
        EXPECT_EQ(entry.asid, asid);
        ++seen;
    });
    EXPECT_EQ(seen, 3u);
    EXPECT_TRUE(tlb.invalidatePage(asid, top4k));
    EXPECT_EQ(tlb.lookup(asid, top4k), nullptr);
}

TEST(Tlb, EntriesAreAsidTagged)
{
    Tlb tlb("t", 16, 4, k4K);
    tlb.insert(1, 0x1000, 0x9000, k4K);
    EXPECT_NE(tlb.lookup(1, 0x1000), nullptr);
    EXPECT_EQ(tlb.lookup(2, 0x1000), nullptr);
}

TEST(Tlb, SuperpageGranularity)
{
    Tlb tlb("t", 16, 4, PageSize::Super2MB);
    tlb.insert(1, 0x200000, 0x40000000, PageSize::Super2MB);
    // Any address in the 2MB page hits.
    EXPECT_NE(tlb.lookup(1, 0x200000), nullptr);
    EXPECT_NE(tlb.lookup(1, 0x3fffff), nullptr);
    EXPECT_EQ(tlb.lookup(1, 0x400000), nullptr);
    EXPECT_EQ(tlb.superpageValidCount(), 1u);
}

TEST(Tlb, InsertUpdatesExistingEntry)
{
    Tlb tlb("t", 16, 4, k4K);
    tlb.insert(1, 0x1000, 0x9000, k4K);
    tlb.insert(1, 0x1000, 0xa000, k4K);
    EXPECT_EQ(tlb.validCount(), 1u);
    EXPECT_EQ(tlb.lookup(1, 0x1000)->paBase, 0xa000u);
}

TEST(Tlb, LruEvictionWithinSet)
{
    // Fully associative 4-entry TLB (1 set).
    Tlb tlb("t", 4, 4, k4K);
    for (Addr p = 0; p < 4; ++p)
        tlb.insert(1, p << 12, p << 12, k4K);
    // Touch page 0 so page 1 is LRU.
    EXPECT_NE(tlb.lookup(1, 0x0), nullptr);
    tlb.insert(1, 4ULL << 12, 4ULL << 12, k4K);
    EXPECT_NE(tlb.lookup(1, 0x0), nullptr);
    EXPECT_EQ(tlb.lookup(1, 1ULL << 12), nullptr);
    // Only the fifth fill displaced a valid entry.
    EXPECT_EQ(tlb.evictions(), 1u);
}

TEST(Tlb, SetIndexingSeparatesConflicts)
{
    // 16 entries, 4-way: 4 sets. Pages 0 and 4 share set 0.
    Tlb tlb("t", 16, 4, k4K);
    for (Addr p = 0; p < 16; ++p)
        tlb.insert(1, p << 12, p << 12, k4K);
    EXPECT_EQ(tlb.validCount(), 16u);
}

TEST(Tlb, InvalidatePage)
{
    Tlb tlb("t", 16, 4, k4K);
    tlb.insert(1, 0x1000, 0x9000, k4K);
    EXPECT_TRUE(tlb.invalidatePage(1, 0x1fff));
    EXPECT_EQ(tlb.lookup(1, 0x1000), nullptr);
    EXPECT_FALSE(tlb.invalidatePage(1, 0x1000));
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST(Tlb, FlushAllEmptiesEverything)
{
    Tlb tlb("t", 16, 4, k4K);
    tlb.insert(1, 0x1000, 0x9000, k4K);
    tlb.insert(2, 0x2000, 0xa000, k4K);
    tlb.flushAll();
    EXPECT_EQ(tlb.validCount(), 0u);
    EXPECT_EQ(tlb.lookup(2, 0x2000), nullptr);
}

TEST(Tlb, StatsTrackHitsAndMisses)
{
    Tlb tlb("t", 16, 4, k4K);
    tlb.lookup(1, 0x1000);
    tlb.insert(1, 0x1000, 0x9000, k4K);
    tlb.lookup(1, 0x1000);
    EXPECT_EQ(tlb.stats().get("lookups"), 2.0);
    EXPECT_EQ(tlb.stats().get("misses"), 1.0);
    EXPECT_EQ(tlb.stats().get("hits"), 1.0);
    EXPECT_EQ(tlb.stats().get("fills"), 1.0);
}

TEST(Tlb, HoldsOnlyItsPageSize)
{
    Tlb tlb("t", 16, 4, PageSize::Super2MB);
    EXPECT_TRUE(tlb.holds(PageSize::Super2MB));
    EXPECT_FALSE(tlb.holds(k4K));
    EXPECT_FALSE(tlb.holds(PageSize::Super1GB));
}

} // namespace
} // namespace seesaw
