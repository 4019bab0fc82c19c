/** @file Tests for the OS memory manager: THP allocation, compaction,
 *  promotion and splintering. */

#include <gtest/gtest.h>

#include "mem/os_memory_manager.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kMB = 1ULL << 20;

OsParams
cleanParams(std::uint64_t mem = 256 * kMB)
{
    OsParams p;
    p.memBytes = mem;
    p.kernelReservedFraction = 0.0;
    p.pollutedRegionFraction = 0.0;
    return p;
}

TEST(OsMemoryManager, ThpMapsSuperpagesOnCleanMemory)
{
    OsMemoryManager os(cleanParams());
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 32 * kMB, 1.0);
    EXPECT_DOUBLE_EQ(os.superpageCoverage(asid), 1.0);
    EXPECT_EQ(os.superpagesAllocated(), 16u);

    auto t = os.translate(asid, 0x40000000 + 5 * kMB);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->size, PageSize::Super2MB);
}

TEST(OsMemoryManager, ThpDisabledMapsBasePagesOnly)
{
    OsParams p = cleanParams();
    p.thpEnabled = false;
    OsMemoryManager os(p);
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 8 * kMB, 1.0);
    EXPECT_DOUBLE_EQ(os.superpageCoverage(asid), 0.0);
    auto t = os.translate(asid, 0x40000000);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->size, PageSize::Base4KB);
}

TEST(OsMemoryManager, UnalignedRangeGetsBasePageEdges)
{
    OsMemoryManager os(cleanParams());
    const Asid asid = os.createProcess();
    // Start 4KB past a 2MB boundary: the head cannot be a superpage.
    os.mapAnonymous(asid, 0x40000000 + 4096, 4 * kMB, 1.0);
    auto head = os.translate(asid, 0x40000000 + 4096);
    ASSERT_TRUE(head);
    EXPECT_EQ(head->size, PageSize::Base4KB);
    EXPECT_GT(os.superpageCoverage(asid), 0.0);
    EXPECT_LT(os.superpageCoverage(asid), 1.0);
}

TEST(OsMemoryManager, ZeroEligibilityForcesBasePages)
{
    OsMemoryManager os(cleanParams());
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 8 * kMB, 0.0);
    EXPECT_DOUBLE_EQ(os.superpageCoverage(asid), 0.0);
}

TEST(OsMemoryManager, EveryMappedByteTranslates)
{
    OsMemoryManager os(cleanParams());
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 6 * kMB, 0.5);
    for (Addr va = 0x40000000; va < 0x40000000 + 6 * kMB; va += 4096)
        EXPECT_TRUE(os.translate(asid, va).has_value()) << va;
}

TEST(OsMemoryManager, TranslationsAreConsistentWithFrameOwnership)
{
    OsMemoryManager os(cleanParams());
    const Asid a = os.createProcess(), b = os.createProcess();
    os.mapAnonymous(a, 0x40000000, 4 * kMB, 1.0);
    os.mapAnonymous(b, 0x40000000, 4 * kMB, 1.0);
    // Same VA in two processes must map to different frames.
    EXPECT_NE(os.translate(a, 0x40000000)->paBase,
              os.translate(b, 0x40000000)->paBase);
}

TEST(OsMemoryManager, FragmentationBlocksSuperpagesWithoutCompaction)
{
    OsParams p = cleanParams(64 * kMB);
    p.compactionMaxAttempts = 0; // compaction disabled
    OsMemoryManager os(p);

    // Poke one unmovable hole into every 2MB region.
    const std::uint64_t regions = (64 * kMB) >> 21;
    for (std::uint64_t r = 0; r < regions; ++r) {
        ASSERT_EQ(os.allocateRawFrames(1, /*movable=*/false).size(), 1u);
        // Frames allocate bottom-up; spread them by allocating 511
        // movable frames between holes.
        os.allocateRawFrames(511, /*movable=*/true);
    }

    const Asid asid = os.createProcess();
    // Everything is consumed; nothing superpage-sized remains.
    EXPECT_EQ(os.buddy().freeFramesAtOrAbove(9), 0u);
    (void)asid;
}

TEST(OsMemoryManager, CompactionRecoversScatteredHoles)
{
    OsParams p = cleanParams(64 * kMB);
    p.compactionCandidates = 256;
    p.compactionBudgetPages = 512;
    p.compactionMaxAttempts = 8;
    OsMemoryManager os(p);

    // Scatter movable single frames: grab ALL memory, then free
    // everything except one frame at the base of each of the first
    // half of the 2MB regions.
    const std::uint64_t regions = (64 * kMB) >> 21;
    const std::vector<std::uint64_t> frames =
        os.allocateRawFrames(regions * 512 + 1, /*movable=*/true);
    ASSERT_EQ(frames.size(), regions * 512);
    std::vector<std::uint64_t> released;
    for (auto f : frames) {
        const bool keep = f % 512 == 0 && (f / 512) < regions / 2;
        if (!keep)
            released.push_back(f);
    }
    os.freeRawFrames(released);
    // 48MB needs 24 clean regions but only 16 exist: at least 8
    // superpages require compaction (each migrating one page).
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 48 * kMB, 1.0);
    EXPECT_GT(os.superpageCoverage(asid), 0.9);
    EXPECT_GT(os.pagesMigrated(), 0u);
    EXPECT_GT(os.compactionSuccesses(), 0u);
}

TEST(OsMemoryManager, PromotionCollapsesFullBaseRegions)
{
    OsParams p = cleanParams();
    p.thpEnabled = false; // force base pages initially
    OsMemoryManager os(p);
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 4 * kMB, 1.0);
    EXPECT_DOUBLE_EQ(os.superpageCoverage(asid), 0.0);

    const auto events = os.runPromotionPass(asid, 10);
    EXPECT_EQ(events.size(), 2u);
    EXPECT_DOUBLE_EQ(os.superpageCoverage(asid), 1.0);
    EXPECT_EQ(os.promotions(), 2u);

    for (const auto &e : events) {
        EXPECT_EQ(e.asid, asid);
        EXPECT_EQ(e.oldPaBases.size(), 512u);
        EXPECT_EQ(e.vaBase % (2 * kMB), 0u);
        // Data must still translate, now through the superpage.
        auto t = os.translate(asid, e.vaBase + 0x1234);
        ASSERT_TRUE(t);
        EXPECT_EQ(t->size, PageSize::Super2MB);
        EXPECT_EQ(t->paBase, e.newPaBase);
    }
}

TEST(OsMemoryManager, PromotionSkipsPartialRegions)
{
    OsParams p = cleanParams();
    p.thpEnabled = false;
    OsMemoryManager os(p);
    const Asid asid = os.createProcess();
    // Map all but one page of a 2MB region.
    os.mapAnonymous(asid, 0x40000000, 2 * kMB - 4096, 1.0);
    EXPECT_TRUE(os.runPromotionPass(asid, 10).empty());
}

TEST(OsMemoryManager, SplinterBreaksSuperpageInPlace)
{
    OsMemoryManager os(cleanParams());
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 2 * kMB, 1.0);
    const auto before = os.translate(asid, 0x40000000);
    ASSERT_TRUE(before);
    ASSERT_EQ(before->size, PageSize::Super2MB);

    auto event = os.splinter(asid, 0x40000000 + 0x12345);
    ASSERT_TRUE(event);
    EXPECT_EQ(event->vaBase, 0x40000000u);

    // All 512 pages translate to the same physical bytes as before.
    for (unsigned i = 0; i < 512; ++i) {
        const Addr va = 0x40000000 + i * 4096ULL;
        auto t = os.translate(asid, va);
        ASSERT_TRUE(t);
        EXPECT_EQ(t->size, PageSize::Base4KB);
        EXPECT_EQ(t->paBase, before->paBase + i * 4096ULL);
    }
    EXPECT_DOUBLE_EQ(os.superpageCoverage(asid), 0.0);
}

TEST(OsMemoryManager, SplinterOnBasePageIsNoop)
{
    OsMemoryManager os(cleanParams());
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 4096, 0.0);
    EXPECT_FALSE(os.splinter(asid, 0x40000000).has_value());
}

TEST(OsMemoryManager, SplinterThenPromoteRoundTrip)
{
    OsMemoryManager os(cleanParams());
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 2 * kMB, 1.0);
    ASSERT_TRUE(os.splinter(asid, 0x40000000).has_value());
    const auto events = os.runPromotionPass(asid, 1);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_DOUBLE_EQ(os.superpageCoverage(asid), 1.0);
}

TEST(OsMemoryManager, UnmapReleasesFrames)
{
    OsMemoryManager os(cleanParams());
    const Asid asid = os.createProcess();
    const auto before = os.buddy().freeFrames();
    os.mapAnonymous(asid, 0x40000000, 8 * kMB, 0.5);
    EXPECT_LT(os.buddy().freeFrames(), before);
    os.unmapRange(asid, 0x40000000, 8 * kMB);
    EXPECT_EQ(os.buddy().freeFrames(), before);
    EXPECT_FALSE(os.translate(asid, 0x40000000).has_value());
}

TEST(OsMemoryManager, DestroyProcessReleasesEverything)
{
    OsMemoryManager os(cleanParams());
    const auto before = os.buddy().freeFrames();
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 16 * kMB, 0.7);
    os.destroyProcess(asid);
    EXPECT_EQ(os.buddy().freeFrames(), before);
}

TEST(OsMemoryManager, SuperpageVasEnumerates)
{
    OsMemoryManager os(cleanParams());
    const Asid asid = os.createProcess();
    os.mapAnonymous(asid, 0x40000000, 8 * kMB, 1.0);
    const auto vas = os.superpageVas(asid);
    ASSERT_EQ(vas.size(), 4u);
    EXPECT_EQ(vas[0], 0x40000000u);
    EXPECT_EQ(vas[3], 0x40000000u + 6 * kMB);
}

TEST(OsMemoryManager, BootNoiseReservesMemory)
{
    OsParams p;
    p.memBytes = 256 * kMB;
    p.kernelReservedFraction = 0.05;
    p.pollutedRegionFraction = 0.10;
    OsMemoryManager os(p);
    EXPECT_LT(os.buddy().freeFrames(), os.buddy().totalFrames());
}

} // namespace
} // namespace seesaw
