/**
 * @file
 * Tests for the exact MOESI directory: the protocol cases one by one,
 * and a seeded differential run against a std::map reference model
 * over colliding line addresses, which drives the open-addressed
 * table through growth and wrap-around backward-shift deletion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "coherence/exact_directory.hh"
#include "common/random.hh"

namespace seesaw {
namespace {

TEST(ExactDirectory, ColdLineNeedsNoProbes)
{
    ExactDirectory dir(4);
    const auto read = dir.onReadMiss(0, 0x1000);
    EXPECT_EQ(read.targets, 0u);
    const auto write = dir.onWrite(0, 0x1000);
    EXPECT_EQ(write.targets, 0u);
    EXPECT_TRUE(write.invalidating);
}

TEST(ExactDirectory, FillAndHolds)
{
    ExactDirectory dir(4);
    dir.recordFill(2, 0x1040, /*dirty=*/false);
    EXPECT_TRUE(dir.holds(2, 0x1040));
    EXPECT_TRUE(dir.holds(2, 0x1078)); // same line
    EXPECT_FALSE(dir.holds(1, 0x1040));
    EXPECT_FALSE(dir.holds(2, 0x1080)); // next line
    EXPECT_EQ(dir.sharerCount(0x1040), 1u);
    EXPECT_EQ(dir.owner(0x1040), -1);
}

TEST(ExactDirectory, DirtyOwnerSuppliesOnRemoteRead)
{
    ExactDirectory dir(4);
    dir.recordFill(1, 0x2000, /*dirty=*/true);
    EXPECT_EQ(dir.owner(0x2000), 1);

    const auto probes = dir.onReadMiss(3, 0x2000);
    EXPECT_EQ(probes.targets, 1u << 1);
    EXPECT_TRUE(probes.ownerSupplies);
    EXPECT_FALSE(probes.invalidating);
}

TEST(ExactDirectory, CleanSharersNeedNoReadProbes)
{
    ExactDirectory dir(4);
    dir.recordFill(1, 0x2000, false);
    dir.recordFill(2, 0x2000, false);
    const auto probes = dir.onReadMiss(3, 0x2000);
    EXPECT_EQ(probes.targets, 0u);
}

TEST(ExactDirectory, WriteInvalidatesEveryOtherSharer)
{
    ExactDirectory dir(8);
    for (CoreId c : {1u, 3u, 5u})
        dir.recordFill(c, 0x3000, false);

    const auto probes = dir.onWrite(5, 0x3000);
    EXPECT_TRUE(probes.invalidating);
    EXPECT_EQ(probes.targets, (1u << 1) | (1u << 3));

    // The directory reflects the invalidations immediately.
    EXPECT_FALSE(dir.holds(1, 0x3000));
    EXPECT_FALSE(dir.holds(3, 0x3000));
    EXPECT_TRUE(dir.holds(5, 0x3000));

    dir.recordFill(5, 0x3000, true);
    EXPECT_EQ(dir.owner(0x3000), 5);
}

TEST(ExactDirectory, WriteByDirtyOwnerNeedsNoProbes)
{
    ExactDirectory dir(4);
    dir.recordFill(2, 0x4000, true);
    const auto probes = dir.onWrite(2, 0x4000);
    EXPECT_EQ(probes.targets, 0u);
    EXPECT_TRUE(dir.holds(2, 0x4000));
    EXPECT_EQ(dir.owner(0x4000), 2);
}

TEST(ExactDirectory, EvictionUntracksAndErasesEmptyEntries)
{
    ExactDirectory dir(4);
    dir.recordFill(0, 0x5000, true);
    dir.recordFill(1, 0x5000, false);
    EXPECT_EQ(dir.sharerCount(0x5000), 2u);

    dir.recordEviction(0, 0x5000);
    EXPECT_EQ(dir.sharerCount(0x5000), 1u);
    EXPECT_EQ(dir.owner(0x5000), -1); // owner left

    dir.recordEviction(1, 0x5000);
    EXPECT_EQ(dir.sharerCount(0x5000), 0u);
    EXPECT_EQ(dir.trackedLines(), 0u);
}

TEST(ExactDirectory, StatAccessorsCountProbeWork)
{
    ExactDirectory dir(4);
    EXPECT_EQ(dir.fills(), 0u);

    // Dirty owner downgraded to supply a remote read.
    dir.recordFill(0, 0x7000, /*dirty=*/true);
    (void)dir.onReadMiss(1, 0x7000);
    EXPECT_EQ(dir.ownerDowngrades(), 1u);

    // The sole clean sharer may be silent-E: a second reader
    // downgrades it before filling.
    dir.recordFill(1, 0x7000, false);
    (void)dir.onReadMiss(2, 0x7000);
    EXPECT_EQ(dir.exclusiveDowngrades(), 0u); // two sharers, no E
    dir.recordFill(0, 0x8000, false);
    (void)dir.onReadMiss(1, 0x8000);
    EXPECT_EQ(dir.exclusiveDowngrades(), 1u);

    // A write that invalidates remote sharers counts once.
    dir.recordFill(2, 0x7000, false);
    (void)dir.onWrite(2, 0x7000);
    EXPECT_EQ(dir.writeInvalidations(), 1u);

    EXPECT_EQ(dir.fills(), 4u);
    dir.recordEviction(2, 0x7000);
    EXPECT_EQ(dir.evictions(), 1u);
}

TEST(ExactDirectory, ReadAfterWriteSequence)
{
    // The canonical migratory pattern: W0 -> R1 -> W2.
    ExactDirectory dir(4);
    EXPECT_EQ(dir.onWrite(0, 0x6000).targets, 0u);
    dir.recordFill(0, 0x6000, true);

    const auto r1 = dir.onReadMiss(1, 0x6000);
    EXPECT_EQ(r1.targets, 1u << 0);
    EXPECT_TRUE(r1.ownerSupplies);
    dir.recordFill(1, 0x6000, false);
    EXPECT_EQ(dir.sharerCount(0x6000), 2u);

    const auto w2 = dir.onWrite(2, 0x6000);
    EXPECT_EQ(w2.targets, (1u << 0) | (1u << 1));
    dir.recordFill(2, 0x6000, true);
    EXPECT_EQ(dir.sharerCount(0x6000), 1u);
    EXPECT_EQ(dir.owner(0x6000), 2);
}

/** The directory's protocol over a std::map: the behaviour the flat
 *  table must reproduce operation for operation. */
class ReferenceDirectory
{
  public:
    explicit ReferenceDirectory(unsigned cores) : cores_(cores) {}

    ExactDirectory::ProbeList
    onReadMiss(CoreId core, Addr pa)
    {
        ExactDirectory::ProbeList probes;
        auto it = lines_.find(pa >> 6);
        if (it == lines_.end())
            return probes;
        Line &e = it->second;
        if (e.owner >= 0 && static_cast<CoreId>(e.owner) != core) {
            probes.targets = 1ULL << e.owner;
            probes.ownerSupplies = true;
            ++ownerDowngrades;
        } else if (e.exclusive) {
            for (CoreId c = 0; c < cores_; ++c) {
                if (c != core && (e.sharers >> c & 1)) {
                    probes.targets |= 1ULL << c;
                    ++exclusiveDowngrades;
                }
            }
        }
        e.exclusive = false;
        return probes;
    }

    ExactDirectory::ProbeList
    onWrite(CoreId core, Addr pa)
    {
        ExactDirectory::ProbeList probes;
        probes.invalidating = true;
        auto it = lines_.find(pa >> 6);
        if (it == lines_.end())
            return probes;
        Line &e = it->second;
        for (CoreId c = 0; c < cores_; ++c) {
            if (c != core && (e.sharers >> c & 1)) {
                probes.targets |= 1ULL << c;
                probes.ownerSupplies |= e.owner == static_cast<int>(c);
            }
        }
        writeInvalidations += probes.targets != 0 ? 1 : 0;
        e.sharers &= 1ULL << core;
        if (e.owner != static_cast<int>(core))
            e.owner = -1;
        e.exclusive = false;
        if (e.sharers == 0)
            lines_.erase(it);
        return probes;
    }

    std::uint64_t
    recordFill(CoreId core, Addr pa, bool dirty)
    {
        Line &e = lines_[pa >> 6];
        e.sharers |= 1ULL << core;
        if (dirty) {
            e.owner = static_cast<int>(core);
            e.exclusive = false;
        } else {
            if (e.owner == static_cast<int>(core))
                e.owner = -1;
            e.exclusive = e.owner < 0 && e.sharers == (1ULL << core);
        }
        ++fills;
        return e.sharers;
    }

    void
    recordEviction(CoreId core, Addr pa)
    {
        auto it = lines_.find(pa >> 6);
        if (it == lines_.end())
            return;
        it->second.sharers &= ~(1ULL << core);
        if (it->second.owner == static_cast<int>(core))
            it->second.owner = -1;
        if (it->second.sharers == 0)
            lines_.erase(it);
        ++evictions;
    }

    /** (pa, sharers, owner) of every line, in address order. */
    std::vector<std::tuple<Addr, std::uint64_t, int>>
    entries() const
    {
        std::vector<std::tuple<Addr, std::uint64_t, int>> out;
        for (const auto &[line, e] : lines_)
            out.emplace_back(line << 6, e.sharers, e.owner);
        return out;
    }

    std::size_t size() const { return lines_.size(); }

    std::uint64_t ownerDowngrades = 0;
    std::uint64_t exclusiveDowngrades = 0;
    std::uint64_t writeInvalidations = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;

  private:
    struct Line
    {
        std::uint64_t sharers = 0;
        int owner = -1;
        bool exclusive = false;
    };

    unsigned cores_;
    std::map<Addr, Line> lines_;
};

TEST(ExactDirectory, FlatTableMatchesMapReference)
{
    constexpr unsigned kCores = 8;
    // 160 consecutive lines plus 160 scattered ones. With eight cores
    // filling them, most stay tracked: the table doubles from its
    // first size to 512 slots and then runs near its one-half load
    // bound, so probe runs collide, and some wrap past the table's
    // end while records are deleted out of them.
    std::vector<Addr> pool;
    for (Addr line = 0x4000; line < 0x4000 + 160; ++line)
        pool.push_back((line << 6) + 8); // any byte of the line
    Rng rng(2024);
    while (pool.size() < 320)
        pool.push_back(rng.nextBounded(1ULL << 40));

    ExactDirectory dir(kCores);
    ReferenceDirectory ref(kCores);
    std::size_t max_tracked = 0;
    std::uint64_t erasures = 0;
    for (int step = 0; step < 40'000; ++step) {
        const Addr pa = pool[rng.nextBounded(pool.size())];
        const auto core = static_cast<CoreId>(rng.nextBounded(kCores));
        const std::string at = "step " + std::to_string(step);
        switch (rng.nextBounded(4)) {
          case 0: {
            const auto got = dir.onReadMiss(core, pa);
            const auto want = ref.onReadMiss(core, pa);
            ASSERT_EQ(got.targets, want.targets) << at;
            ASSERT_EQ(got.invalidating, want.invalidating) << at;
            ASSERT_EQ(got.ownerSupplies, want.ownerSupplies) << at;
            break;
          }
          case 1: {
            const std::size_t before = ref.size();
            const auto got = dir.onWrite(core, pa);
            const auto want = ref.onWrite(core, pa);
            ASSERT_EQ(got.targets, want.targets) << at;
            ASSERT_EQ(got.invalidating, want.invalidating) << at;
            ASSERT_EQ(got.ownerSupplies, want.ownerSupplies) << at;
            erasures += before - ref.size();
            break;
          }
          case 2: {
            // Fills outnumber evictions early, so the table grows.
            const bool dirty = rng.chance(0.4);
            ASSERT_EQ(dir.recordFill(core, pa, dirty),
                      ref.recordFill(core, pa, dirty))
                << at;
            break;
          }
          default: {
            const std::size_t before = ref.size();
            dir.recordEviction(core, pa);
            ref.recordEviction(core, pa);
            erasures += before - ref.size();
            break;
          }
        }
        ASSERT_EQ(dir.ownerDowngrades(), ref.ownerDowngrades) << at;
        ASSERT_EQ(dir.exclusiveDowngrades(), ref.exclusiveDowngrades)
            << at;
        ASSERT_EQ(dir.writeInvalidations(), ref.writeInvalidations) << at;
        ASSERT_EQ(dir.fills(), ref.fills) << at;
        ASSERT_EQ(dir.evictions(), ref.evictions) << at;
        ASSERT_EQ(dir.trackedLines(), ref.size()) << at;
        std::vector<std::tuple<Addr, std::uint64_t, int>> seen;
        dir.forEachEntry([&](Addr line_pa, std::uint64_t sharers, int owner) {
            seen.emplace_back(line_pa, sharers, owner);
        });
        const auto want = ref.entries();
        ASSERT_EQ(seen, want) << at;
        // Point queries agree with the visited records.
        std::uint64_t sharers = 0;
        int owner = -1;
        for (const auto &[line_pa, s, o] : want) {
            if (line_pa == (pa & ~Addr{63})) {
                sharers = s;
                owner = o;
            }
        }
        ASSERT_EQ(dir.holds(core, pa), ((sharers >> core) & 1) != 0) << at;
        ASSERT_EQ(dir.owner(pa), owner) << at;
        max_tracked = std::max(max_tracked, dir.trackedLines());
    }
    // More than 128 records at a load of at most one half took the
    // table through three doublings; records were deleted throughout.
    EXPECT_GT(max_tracked, 128u);
    EXPECT_GT(erasures, 1000u);
}

} // namespace
} // namespace seesaw
