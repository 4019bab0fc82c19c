/** @file Tests for the memhog fragmentation model (Fig 3's driver). */

#include <gtest/gtest.h>

#include <string>

#include "mem/memhog.hh"
#include "workload/workload_spec.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kMB = 1ULL << 20;

OsParams
params(std::uint64_t mem = 512 * kMB)
{
    OsParams p;
    p.memBytes = mem;
    p.kernelReservedFraction = 0.0;
    p.pollutedRegionFraction = 0.0;
    return p;
}

TEST(Memhog, ConsumesRequestedFraction)
{
    OsMemoryManager os(params());
    Memhog hog(os);
    hog.consume(0.4);
    const double used =
        1.0 - static_cast<double>(os.buddy().freeFrames()) /
                  static_cast<double>(os.buddy().totalFrames());
    EXPECT_NEAR(used, 0.4, 0.02);
}

TEST(Memhog, ZeroFractionIsNoop)
{
    OsMemoryManager os(params());
    Memhog hog(os);
    hog.consume(0.0);
    EXPECT_EQ(os.buddy().freeFrames(), os.buddy().totalFrames());
    EXPECT_EQ(hog.heldFrames(), 0u);
}

TEST(Memhog, FragmentsHighOrderFreeLists)
{
    OsMemoryManager os(params());
    const auto clean_high = os.buddy().freeFramesAtOrAbove(9);
    Memhog hog(os);
    hog.consume(0.5);
    // Free memory must be substantially less superpage-capable than a
    // clean system's.
    const auto frag_high = os.buddy().freeFramesAtOrAbove(9);
    EXPECT_LT(frag_high, clean_high / 2);
    EXPECT_GT(os.buddy().fragmentationIndex(9), 0.1);
}

TEST(Memhog, DeterministicAcrossSeeds)
{
    OsMemoryManager os1(params()), os2(params());
    Memhog h1(os1), h2(os2);
    h1.consume(0.35);
    h2.consume(0.35);
    EXPECT_EQ(os1.buddy().freeFrames(), os2.buddy().freeFrames());
    EXPECT_EQ(os1.buddy().freeFramesAtOrAbove(9),
              os2.buddy().freeFramesAtOrAbove(9));
}

TEST(Memhog, HigherFractionLeavesLessContiguity)
{
    double prev = 1e18;
    for (double frac : {0.2, 0.5, 0.8}) {
        OsMemoryManager os(params());
        Memhog hog(os);
        hog.consume(frac);
        const auto high =
            static_cast<double>(os.buddy().freeFramesAtOrAbove(9));
        EXPECT_LT(high, prev);
        prev = high;
    }
}

TEST(Memhog, SuperpageCoverageDegradesGracefully)
{
    // The Fig 3 mechanism end to end: a workload mapped after memhog
    // sees high coverage at low fragmentation and reduced (but not
    // zero) coverage at moderate fragmentation, thanks to compaction.
    double coverage_low, coverage_mid;
    {
        OsMemoryManager os(params());
        Memhog hog(os);
        hog.consume(0.1);
        const Asid a = os.createProcess();
        os.mapAnonymous(a, 0x40000000, 64 * kMB, 1.0);
        coverage_low = os.superpageCoverage(a);
    }
    {
        OsMemoryManager os(params());
        Memhog hog(os);
        hog.consume(0.6);
        const Asid a = os.createProcess();
        os.mapAnonymous(a, 0x40000000, 64 * kMB, 1.0);
        coverage_mid = os.superpageCoverage(a);
    }
    EXPECT_GT(coverage_low, 0.8);
    EXPECT_GT(coverage_low, coverage_mid);
    EXPECT_GT(coverage_mid, 0.0);
}

/**
 * Check what memhog @p fraction leaves behind on a default 4 GB host:
 * free frames, held frames, an FNV-1a hash of the per-frame free map
 * (64 frames a word) and the free-block count of every order.
 */
void
expectPinned(double fraction, std::uint64_t free_frames,
             std::uint64_t held_frames, std::uint64_t free_map_hash,
             const std::string &free_blocks)
{
    SCOPED_TRACE(fraction);
    OsMemoryManager os{OsParams{}};
    Memhog hog(os);
    hog.consume(fraction);
    const BuddyAllocator &buddy = os.buddy();

    EXPECT_EQ(buddy.freeFrames(), free_frames);
    EXPECT_EQ(hog.heldFrames(), held_frames);

    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::uint64_t base = 0; base < buddy.totalFrames(); base += 64) {
        std::uint64_t word = 0;
        for (unsigned i = 0; i < 64; ++i) {
            if (buddy.isFrameFree(base + i))
                word |= std::uint64_t{1} << i;
        }
        hash = (hash ^ word) * 0x100000001b3ULL;
    }
    EXPECT_EQ(hash, free_map_hash);

    std::string blocks;
    for (unsigned o = 0; o <= BuddyAllocator::kMaxOrder; ++o)
        blocks += (o ? " " : "") + std::to_string(buddy.freeBlocksAt(o));
    EXPECT_EQ(blocks, free_blocks);
}

TEST(Memhog, FourGbResultIsPinned)
{
    // The draw sequence and the allocator's block choice together fix
    // which frames memhog holds. Fig 3 and Fig 12 rest on this state,
    // so any change to either must show up here, not only in the
    // nightly goldens. Recorded with the std::set free-list allocator.
    expectPinned(0.3, 692373, 314572, 0x1e5dd1fe42ecd72eULL,
                 "3295 3213 3005 2733 2186 1593 934 462 162 42 4 0 42 17 4 "
                 "0 0 0 0");
    expectPinned(0.6, 377800, 629145, 0x3cec2c8a72049ddeULL,
                 "4932 4800 4437 3996 3183 2181 1255 503 150 17 1 0 0 0 0 "
                 "0 0 0 0");
}

/**
 * Check what redis's footprint meets after memhog @p fraction on a
 * default 4 GB host. Compaction migrates only movable frames, so these
 * counters and the placement hash (FNV-1a over the physical base of
 * every 4KB page of the heap) pin the raw-frame *states* memhog leaves,
 * which the free map alone does not.
 */
void
expectMappingPinned(double fraction, double coverage,
                    std::uint64_t migrated, std::uint64_t attempts,
                    std::uint64_t successes, std::uint64_t placement_hash)
{
    SCOPED_TRACE(fraction);
    OsMemoryManager os{OsParams{}};
    Memhog(os).consume(fraction);
    const WorkloadSpec &redis = findWorkload("redis");
    const Asid asid = os.createProcess();
    const Addr heap = Addr{1} << 40;
    os.mapAnonymous(asid, heap, redis.footprintBytes,
                    redis.thpEligibleFraction);

    EXPECT_DOUBLE_EQ(os.superpageCoverage(asid), coverage);
    EXPECT_EQ(os.pagesMigrated(), migrated);
    EXPECT_EQ(os.compactionAttempts(), attempts);
    EXPECT_EQ(os.compactionSuccesses(), successes);

    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (Addr off = 0; off < redis.footprintBytes;
         off += BuddyAllocator::kFrameBytes) {
        const auto t = os.translate(asid, heap + off);
        ASSERT_TRUE(t);
        hash = (hash ^ t->translate(heap + off)) * 0x100000001b3ULL;
    }
    EXPECT_EQ(hash, placement_hash);
}

TEST(Memhog, FourGbFrameStatesArePinned)
{
    // Which frames memhog leaves movable and which it pins decides what
    // compaction can evacuate when a workload maps after it.
    expectMappingPinned(0.3, 0.921875, 0, 0, 0, 0x9b1344840e104325ULL);
    expectMappingPinned(0.6, 0.484375, 415, 41, 12, 0x7af4e1b87b93a325ULL);
}

} // namespace
} // namespace seesaw
