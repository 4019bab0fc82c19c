/** @file Tests for the buddy allocator. */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "mem/buddy_allocator.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kMB = 1ULL << 20;

TEST(BuddyAllocator, GeometryAndInitialState)
{
    BuddyAllocator b(64 * kMB);
    EXPECT_EQ(b.totalFrames(), 64 * kMB / 4096);
    EXPECT_EQ(b.freeFrames(), b.totalFrames());
    EXPECT_EQ(b.fragmentationIndex(9), 0.0);
}

TEST(BuddyAllocator, AllocateReturnsAlignedBlocks)
{
    BuddyAllocator b(64 * kMB);
    for (unsigned order : {0u, 3u, 9u}) {
        auto f = b.allocate(order);
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(*f % (1ULL << order), 0u);
    }
}

TEST(BuddyAllocator, AllocateFreeRoundTrip)
{
    BuddyAllocator b(64 * kMB);
    const auto before = b.freeFrames();
    auto f = b.allocate(9);
    ASSERT_TRUE(f);
    EXPECT_EQ(b.freeFrames(), before - 512);
    b.free(*f, 9);
    EXPECT_EQ(b.freeFrames(), before);
    EXPECT_EQ(b.fragmentationIndex(9), 0.0);
}

TEST(BuddyAllocator, DistinctBlocksDoNotOverlap)
{
    BuddyAllocator b(16 * kMB);
    std::set<std::uint64_t> frames;
    for (int i = 0; i < 100; ++i) {
        auto f = b.allocate(3); // 8-frame blocks
        ASSERT_TRUE(f);
        for (std::uint64_t j = 0; j < 8; ++j) {
            const bool inserted = frames.insert(*f + j).second;
            EXPECT_TRUE(inserted);
        }
    }
}

TEST(BuddyAllocator, ExhaustionReturnsNullopt)
{
    BuddyAllocator b(2 * kMB); // exactly one order-9 block
    EXPECT_TRUE(b.allocate(9).has_value());
    EXPECT_FALSE(b.allocate(9).has_value());
    EXPECT_FALSE(b.allocate(0).has_value());
}

TEST(BuddyAllocator, SplitAndCoalesce)
{
    BuddyAllocator b(2 * kMB);
    // Split the single 2MB block into 4KB pieces and rebuild it.
    std::vector<std::uint64_t> frames;
    for (int i = 0; i < 512; ++i) {
        auto f = b.allocate(0);
        ASSERT_TRUE(f);
        frames.push_back(*f);
    }
    EXPECT_FALSE(b.allocate(0).has_value());
    for (auto f : frames)
        b.free(f, 0);
    // Everything must coalesce back to one order-9 block.
    EXPECT_EQ(b.freeBlocksAt(9), 1u);
    EXPECT_TRUE(b.allocate(9).has_value());
}

TEST(BuddyAllocator, HoleBlocksSuperpageAllocation)
{
    BuddyAllocator b(2 * kMB);
    std::vector<std::uint64_t> frames;
    for (int i = 0; i < 512; ++i)
        frames.push_back(*b.allocate(0));
    // Free everything except one middle frame.
    for (auto f : frames) {
        if (f != 255)
            b.free(f, 0);
    }
    EXPECT_FALSE(b.allocate(9).has_value());
    EXPECT_EQ(b.freeFrames(), 511u);
    EXPECT_GT(b.fragmentationIndex(9), 0.99);
    // Plug the hole: the superpage becomes allocatable.
    b.free(255, 0);
    EXPECT_TRUE(b.allocate(9).has_value());
}

TEST(BuddyAllocator, AllocateSpecificClaimsExactBlock)
{
    BuddyAllocator b(16 * kMB);
    EXPECT_TRUE(b.allocateSpecific(512, 9));
    EXPECT_FALSE(b.isFrameFree(512));
    EXPECT_FALSE(b.isFrameFree(1023));
    EXPECT_TRUE(b.isFrameFree(1024));
    // Claiming again fails; the block is taken.
    EXPECT_FALSE(b.allocateSpecific(512, 9));
    // A frame inside the claimed block cannot be claimed.
    EXPECT_FALSE(b.allocateSpecific(600, 0));
}

TEST(BuddyAllocator, AllocateSpecificSingleFrame)
{
    BuddyAllocator b(16 * kMB);
    EXPECT_TRUE(b.allocateSpecific(1000, 0));
    EXPECT_FALSE(b.isFrameFree(1000));
    EXPECT_TRUE(b.isFrameFree(1001));
    b.free(1000, 0);
    EXPECT_TRUE(b.isFrameFree(1000));
}

TEST(BuddyAllocator, AllocateSpecificOutOfRangeFails)
{
    BuddyAllocator b(2 * kMB);
    EXPECT_FALSE(b.allocateSpecific(512, 9));
}

TEST(BuddyAllocator, BuddyOfComputesSibling)
{
    EXPECT_EQ(BuddyAllocator::buddyOf(0, 0), 1u);
    EXPECT_EQ(BuddyAllocator::buddyOf(1, 0), 0u);
    EXPECT_EQ(BuddyAllocator::buddyOf(0, 9), 512u);
    EXPECT_EQ(BuddyAllocator::buddyOf(512, 9), 0u);
}

TEST(BuddyAllocator, AddressConversions)
{
    EXPECT_EQ(BuddyAllocator::frameToAddr(1), 4096u);
    EXPECT_EQ(BuddyAllocator::addrToFrame(8192), 2u);
}

TEST(BuddyAllocator, FreeFramesAtOrAboveTracksHighOrders)
{
    BuddyAllocator b(4 * kMB); // two order-9 blocks
    EXPECT_EQ(b.freeFramesAtOrAbove(9), 1024u);
    auto f = b.allocate(0);
    ASSERT_TRUE(f);
    // One block got split: only the intact one counts at order 9.
    EXPECT_EQ(b.freeFramesAtOrAbove(9), 512u);
}

TEST(BuddyAllocator, RandomStressPreservesInvariants)
{
    BuddyAllocator b(32 * kMB);
    Rng rng(99);
    std::vector<std::pair<std::uint64_t, unsigned>> live;
    for (int i = 0; i < 20000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            const unsigned order = rng.nextBounded(5);
            if (auto f = b.allocate(order))
                live.emplace_back(*f, order);
        } else {
            const auto idx = rng.nextBounded(live.size());
            b.free(live[idx].first, live[idx].second);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    std::uint64_t live_frames = 0;
    for (auto &[f, o] : live)
        live_frames += 1ULL << o;
    EXPECT_EQ(b.freeFrames(), b.totalFrames() - live_frames);
    // Free everything: memory must fully coalesce.
    for (auto &[f, o] : live)
        b.free(f, o);
    EXPECT_EQ(b.freeFrames(), b.totalFrames());
    EXPECT_EQ(b.fragmentationIndex(9), 0.0);
}

/** Expect @p bulk and @p ref to hold the same free frames and lists. */
void
expectSameState(const BuddyAllocator &bulk, const BuddyAllocator &ref)
{
    ASSERT_EQ(bulk.freeFrames(), ref.freeFrames());
    for (std::uint64_t f = 0; f < ref.totalFrames(); ++f) {
        ASSERT_EQ(bulk.isFrameFree(f), ref.isFrameFree(f)) << "frame " << f;
    }
    for (unsigned o = 0; o <= BuddyAllocator::kMaxOrder; ++o)
        ASSERT_EQ(bulk.freeBlocksAt(o), ref.freeBlocksAt(o)) << "order " << o;
}

TEST(BuddyAllocator, BulkFramesMatchSingleFrameCalls)
{
    // Memhog's pattern on two allocators, one with the bulk calls and
    // one with a single-frame loop: take twice the fraction in frames
    // (or all free memory), then give back a random half of them.
    // Sizes include tails that no order-9 or order-18 block covers.
    const std::uint64_t sizes[] = {
        12 << 10, 4 * kMB + (12 << 10), 64 * kMB + (8 << 10), 256 * kMB,
        3 * 1024 * kMB + 5 * kMB + (8 << 10)};
    std::uint64_t seed = 1;
    for (const std::uint64_t bytes : sizes) {
        for (const bool noise : {false, true}) {
            for (const double fraction : {0.0, 0.05, 0.3, 0.6, 0.95}) {
                SCOPED_TRACE(std::to_string(bytes) + " bytes, noise " +
                             std::to_string(noise) + ", fraction " +
                             std::to_string(fraction));
                BuddyAllocator bulk(bytes), ref(bytes);
                Rng rng(++seed);
                if (noise) {
                    // Boot noise: whole 2MB blocks plus scattered
                    // frames taken in place.
                    const std::uint64_t regions = bytes >> 21;
                    for (std::uint64_t i = 0; i < regions / 25; ++i)
                        EXPECT_EQ(bulk.allocate(9), ref.allocate(9));
                    for (std::uint64_t i = 0; i < regions / 12; ++i) {
                        const std::uint64_t f =
                            rng.nextBounded(ref.totalFrames());
                        EXPECT_EQ(bulk.allocateSpecific(f, 0),
                                  ref.allocateSpecific(f, 0));
                    }
                }

                const auto count = static_cast<std::uint64_t>(
                    2.0 * fraction * static_cast<double>(ref.totalFrames()));
                const std::vector<std::uint64_t> got =
                    bulk.allocateFrames(count);
                std::vector<std::uint64_t> want;
                while (want.size() < count) {
                    const auto f = ref.allocate(0);
                    if (!f)
                        break;
                    want.push_back(*f);
                }
                ASSERT_EQ(got, want);
                expectSameState(bulk, ref);

                std::vector<std::uint64_t> released;
                for (const std::uint64_t f : want) {
                    if (rng.chance(0.5))
                        released.push_back(f);
                }
                for (std::size_t i = released.size(); i > 1; --i)
                    std::swap(released[i - 1], released[rng.nextBounded(i)]);
                bulk.freeFrames(released);
                for (const std::uint64_t f : released)
                    ref.free(f, 0);
                expectSameState(bulk, ref);

                EXPECT_EQ(bulk.allocate(0), ref.allocate(0));
                EXPECT_EQ(bulk.allocate(9), ref.allocate(9));
            }
        }
    }
}

} // namespace
} // namespace seesaw
