/** @file Property tests cross-checking the optimised structures
 *  against naive reference models under long random operation
 *  streams. */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "common/random.hh"
#include "mem/buddy_allocator.hh"
#include "tlb/tlb.hh"

namespace seesaw {
namespace {

// ------------------------------------------------------------------
// SetAssocCache vs a naive per-set LRU list model.

class RefCacheModel
{
  public:
    RefCacheModel(unsigned sets, unsigned assoc)
        : sets_(sets), assoc_(assoc), lru_(sets)
    {
    }

    bool
    lookup(unsigned set, Addr line)
    {
        auto &l = lru_[set];
        auto it = std::find(l.begin(), l.end(), line);
        if (it == l.end())
            return false;
        l.erase(it);
        l.push_front(line); // MRU position
        return true;
    }

    /** @return The evicted line, if any. */
    std::optional<Addr>
    insert(unsigned set, Addr line)
    {
        auto &l = lru_[set];
        l.push_front(line);
        if (l.size() > assoc_) {
            const Addr victim = l.back();
            l.pop_back();
            return victim;
        }
        return std::nullopt;
    }

  private:
    unsigned sets_, assoc_;
    std::vector<std::list<Addr>> lru_;
};

TEST(ReferenceModels, SetAssocCacheMatchesNaiveLruModel)
{
    SetAssocCache cache(32 * 1024, 8); // 64 sets, unpartitioned
    RefCacheModel ref(64, 8);
    Rng rng(1234);

    for (int i = 0; i < 200000; ++i) {
        // Skewed address mix to exercise both hits and evictions.
        const Addr line = rng.nextBounded(4096);
        const Addr pa = line << 6;
        const unsigned set = cache.setIndex(pa);

        const bool model_hit = ref.lookup(set, line);
        const bool cache_hit = cache.lookup(pa).hit;
        ASSERT_EQ(cache_hit, model_hit) << "op " << i;

        if (!cache_hit) {
            const auto model_evict = ref.insert(set, line);
            const Eviction ev = cache.insert(
                pa, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Exclusive, PageSize::Base4KB);
            ASSERT_EQ(ev.valid, model_evict.has_value()) << "op " << i;
            if (ev.valid) {
                ASSERT_EQ(ev.lineAddr, *model_evict) << "op " << i;
            }
        }
    }
}

TEST(ReferenceModels, PartitionedCacheIsTwoIndependentLruHalves)
{
    // Under Partition scope, each partition must behave exactly like
    // an independent 4-way LRU cache keyed by (set, partition).
    SetAssocCache cache(32 * 1024, 8, 64, 2);
    RefCacheModel ref(128, 4); // (set, partition) flattened
    Rng rng(99);

    for (int i = 0; i < 200000; ++i) {
        const Addr line = rng.nextBounded(8192);
        const Addr pa = line << 6;
        const unsigned set = cache.setIndex(pa);
        const unsigned part = cache.partitionIndex(pa);
        const unsigned flat = set * 2 + part;

        const bool model_hit = ref.lookup(flat, line);
        const bool cache_hit = cache.lookupPartition(pa, part).hit;
        ASSERT_EQ(cache_hit, model_hit) << "op " << i;
        if (!cache_hit) {
            const auto model_evict = ref.insert(flat, line);
            const Eviction ev = cache.insert(
                pa, SetAssocCache::InsertScope::Partition,
                CoherenceState::Exclusive, PageSize::Base4KB);
            ASSERT_EQ(ev.valid, model_evict.has_value());
            if (ev.valid) {
                ASSERT_EQ(ev.lineAddr, *model_evict);
            }
        }
    }
    EXPECT_TRUE(cache.checkPlacementInvariant());
}

// ------------------------------------------------------------------
// BuddyAllocator vs a naive interval model.

TEST(ReferenceModels, BuddyAllocatorNeverOverlapsAndAlwaysCoalesces)
{
    BuddyAllocator buddy(64ULL << 20); // 16384 frames
    Rng rng(77);

    std::map<std::uint64_t, unsigned> live; // start frame -> order
    std::set<std::uint64_t> used_frames;

    for (int i = 0; i < 50000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            const unsigned order = rng.nextBounded(6);
            auto frame = buddy.allocate(order);
            if (!frame)
                continue;
            // Alignment.
            ASSERT_EQ(*frame % (1ULL << order), 0u);
            // No overlap with any live block.
            for (std::uint64_t f = *frame;
                 f < *frame + (1ULL << order); ++f) {
                ASSERT_TRUE(used_frames.insert(f).second)
                    << "frame " << f << " double-allocated";
            }
            live.emplace(*frame, order);
        } else {
            auto it = live.begin();
            std::advance(it, rng.nextBounded(live.size()));
            for (std::uint64_t f = it->first;
                 f < it->first + (1ULL << it->second); ++f) {
                used_frames.erase(f);
            }
            buddy.free(it->first, it->second);
            live.erase(it);
        }
        // Frame accounting must match exactly at every step.
        ASSERT_EQ(buddy.freeFrames(),
                  buddy.totalFrames() - used_frames.size());
    }

    // Free everything: full coalescing back to pristine state.
    for (const auto &[frame, order] : live)
        buddy.free(frame, order);
    EXPECT_EQ(buddy.freeFrames(), buddy.totalFrames());
    EXPECT_EQ(buddy.fragmentationIndex(9), 0.0);
}

// ------------------------------------------------------------------
// BuddyAllocator vs the std::set-per-order allocator it replaced: the
// same block, from the same free lists, for every call.

class RefBuddyModel
{
  public:
    explicit RefBuddyModel(std::uint64_t frames)
        : total_(frames), lists_(kOrders), free_(frames, false)
    {
        std::uint64_t frame = 0;
        while (frame < total_) {
            unsigned order = kOrders - 1;
            while (frame % size(order) != 0 || frame + size(order) > total_)
                --order;
            lists_[order].insert(frame);
            mark(frame, order, true);
            frame += size(order);
        }
    }

    std::optional<std::uint64_t>
    allocate(unsigned order)
    {
        unsigned have = order;
        while (have < kOrders && lists_[have].empty())
            ++have;
        if (have == kOrders)
            return std::nullopt;
        const std::uint64_t frame = *lists_[have].begin();
        lists_[have].erase(lists_[have].begin());
        while (have > order) {
            --have;
            lists_[have].insert(frame + size(have));
        }
        mark(frame, order, false);
        return frame;
    }

    bool
    allocateSpecific(std::uint64_t frame, unsigned order)
    {
        if (frame + size(order) > total_)
            return false;
        for (unsigned have = order; have < kOrders; ++have) {
            std::uint64_t start = frame - frame % size(have);
            if (lists_[have].erase(start) == 0)
                continue;
            while (have > order) {
                --have;
                if (frame < start + size(have)) {
                    lists_[have].insert(start + size(have));
                } else {
                    lists_[have].insert(start);
                    start += size(have);
                }
            }
            mark(frame, order, false);
            return true;
        }
        return false;
    }

    void
    free(std::uint64_t frame, unsigned order)
    {
        mark(frame, order, true);
        while (order + 1 < kOrders) {
            const std::uint64_t buddy = frame ^ size(order);
            if (buddy + size(order) > total_ || !lists_[order].erase(buddy))
                break;
            frame = std::min(frame, buddy);
            ++order;
        }
        lists_[order].insert(frame);
    }

    std::size_t
    freeBlocksAt(unsigned order) const
    {
        return lists_[order].size();
    }

    bool isFrameFree(std::uint64_t frame) const { return free_[frame]; }

  private:
    static constexpr unsigned kOrders = BuddyAllocator::kMaxOrder + 1;

    static std::uint64_t
    size(unsigned order)
    {
        return std::uint64_t{1} << order;
    }

    void
    mark(std::uint64_t frame, unsigned order, bool state)
    {
        std::fill_n(free_.begin() + static_cast<std::ptrdiff_t>(frame),
                    size(order), state);
    }

    std::uint64_t total_;
    std::vector<std::set<std::uint64_t>> lists_;
    std::vector<bool> free_;
};

TEST(ReferenceModels, BuddyAllocatorReturnsTheSetModelsBlocks)
{
    // Not a power of two: the top of memory is a 12 KB tail in blocks
    // of order 1 and 0, and the frame bitmap ends inside a word.
    BuddyAllocator buddy((24ULL << 20) + (12ULL << 10));
    const std::uint64_t total = buddy.totalFrames();
    RefBuddyModel ref(total);
    Rng rng(1717);

    std::vector<std::pair<std::uint64_t, unsigned>> live;
    auto expectSameState = [&] {
        std::uint64_t free_frames = 0;
        for (std::uint64_t f = 0; f < total; ++f) {
            ASSERT_EQ(buddy.isFrameFree(f), ref.isFrameFree(f))
                << "frame " << f;
            free_frames += ref.isFrameFree(f) ? 1 : 0;
        }
        ASSERT_EQ(buddy.freeFrames(), free_frames);
        for (unsigned o = 0; o <= BuddyAllocator::kMaxOrder; ++o)
            ASSERT_EQ(buddy.freeBlocksAt(o), ref.freeBlocksAt(o))
                << "order " << o;
    };

    for (int i = 0; i < 60000; ++i) {
        const std::uint64_t pick = rng.nextBounded(100);
        // Orders 0-10, skewed towards small blocks so memory fills and
        // fragments before the large requests start failing.
        const unsigned order = rng.nextBounded(1 + rng.nextBounded(11));
        if (pick < 50 || live.empty()) {
            const auto got = buddy.allocate(order);
            ASSERT_EQ(got, ref.allocate(order)) << "op " << i;
            if (got)
                live.emplace_back(*got, order);
        } else if (pick < 60) {
            const std::uint64_t mask = (std::uint64_t{1} << order) - 1;
            const std::uint64_t frame = rng.nextBounded(total) & ~mask;
            const bool got = buddy.allocateSpecific(frame, order);
            ASSERT_EQ(got, ref.allocateSpecific(frame, order)) << "op " << i;
            if (got)
                live.emplace_back(frame, order);
        } else {
            const std::size_t k = rng.nextBounded(live.size());
            const auto block = live[k];
            live[k] = live.back();
            live.pop_back();
            buddy.free(block.first, block.second);
            ref.free(block.first, block.second);
        }
        if (i % 2000 == 0) {
            ASSERT_NO_FATAL_FAILURE(expectSameState()) << "op " << i;
        }
    }
    ASSERT_NO_FATAL_FAILURE(expectSameState());

    for (const auto &[frame, order] : live) {
        buddy.free(frame, order);
        ref.free(frame, order);
    }
    ASSERT_NO_FATAL_FAILURE(expectSameState());
    EXPECT_EQ(buddy.freeFrames(), total);
}

// ------------------------------------------------------------------
// TLB vs a naive map model with LRU per set.

TEST(ReferenceModels, TlbMatchesNaiveModel)
{
    Tlb tlb("ref", 32, 4, PageSize::Base4KB); // 8 sets x 4 ways
    RefCacheModel ref(8, 4);                  // reuse: key = vpn
    Rng rng(55);

    for (int i = 0; i < 100000; ++i) {
        const Addr vpn = rng.nextBounded(256);
        const Addr va = vpn << 12;
        const unsigned set = static_cast<unsigned>(vpn % 8);

        const bool model_hit = ref.lookup(set, vpn);
        const bool tlb_hit = tlb.lookup(1, va) != nullptr;
        ASSERT_EQ(tlb_hit, model_hit) << "op " << i;
        if (!tlb_hit) {
            ref.insert(set, vpn);
            tlb.insert(1, va, va, PageSize::Base4KB);
        }
    }
}

} // namespace
} // namespace seesaw
