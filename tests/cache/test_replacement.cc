/**
 * @file
 * Unit tests for the pluggable replacement policies. A policy ranks
 * full ranges only (the free-way rule lives in SetTable, see
 * test_set_table.cc), so every test fills its ranges first.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/replacement.hh"

namespace seesaw {
namespace {

ReplacementPolicy
make(ReplacementKind kind, unsigned sets = 1, unsigned assoc = 4,
     std::uint64_t seed = 1)
{
    ReplacementParams params;
    params.kind = kind;
    params.seed = seed;
    return ReplacementPolicy(params, sets, assoc);
}

/** Fill ways [0, n) of set 0 in ascending order. */
void
fillSet(ReplacementPolicy &p, unsigned n)
{
    for (unsigned way = 0; way < n; ++way)
        p.fill(0, way);
}

TEST(Replacement, LruOldestValidLineChosen)
{
    ReplacementPolicy p = make(ReplacementKind::Lru);
    fillSet(p, 4);
    EXPECT_EQ(p.victim(0, 0, 4), 0u);
    p.touch(0, 0); // way 1 is now the oldest
    EXPECT_EQ(p.victim(0, 0, 4), 1u);
}

TEST(Replacement, LruRangeIsRespected)
{
    ReplacementPolicy p = make(ReplacementKind::Lru, 1, 8);
    fillSet(p, 8);
    // Way 0 holds the globally oldest stamp, but partition-scoped
    // victims must stay inside [4, 8).
    EXPECT_EQ(p.victim(0, 4, 8), 4u);
    EXPECT_EQ(p.victim(0, 7, 8), 7u); // single-way range
}

TEST(Replacement, FifoIgnoresTouches)
{
    ReplacementPolicy lru = make(ReplacementKind::Lru);
    ReplacementPolicy fifo = make(ReplacementKind::Fifo);
    fillSet(lru, 4);
    fillSet(fifo, 4);
    lru.touch(0, 0);
    fifo.touch(0, 0);
    EXPECT_EQ(lru.victim(0, 0, 4), 1u);  // touch refreshed way 0
    EXPECT_EQ(fifo.victim(0, 0, 4), 0u); // fill order rules
}

TEST(Replacement, RandomIsDeterministicPerSeed)
{
    ReplacementPolicy a = make(ReplacementKind::Random, 1, 8, 42);
    ReplacementPolicy b = make(ReplacementKind::Random, 1, 8, 42);
    fillSet(a, 8);
    fillSet(b, 8);
    bool in_range = true;
    for (int i = 0; i < 1000; ++i) {
        const unsigned va = a.victim(0, 2, 6);
        const unsigned vb = b.victim(0, 2, 6);
        ASSERT_EQ(va, vb) << "same seed must replay identically";
        in_range = in_range && va >= 2 && va < 6;
    }
    EXPECT_TRUE(in_range);

    // A different seed draws a different sequence.
    ReplacementPolicy c = make(ReplacementKind::Random, 1, 8, 43);
    fillSet(c, 8);
    bool differs = false;
    for (int i = 0; i < 100 && !differs; ++i)
        differs = a.victim(0, 0, 8) != c.victim(0, 0, 8);
    EXPECT_TRUE(differs);
}

TEST(Replacement, SrripPromotesOnTouchAndAges)
{
    ReplacementPolicy p = make(ReplacementKind::Srrip);
    fillSet(p, 4);
    // Touch ways 0-2 to RRPV 0; way 3 keeps the long interval and is
    // evicted first.
    p.touch(0, 0);
    p.touch(0, 1);
    p.touch(0, 2);
    EXPECT_EQ(p.victim(0, 0, 4), 3u);
    // With every way touched, aging must converge on way 0 (scan from
    // the range start finds the first max-RRPV way).
    p.touch(0, 3);
    EXPECT_EQ(p.victim(0, 0, 4), 0u);
}

TEST(Replacement, WithSeedSaltDecorrelatesOnlyTheSeed)
{
    ReplacementParams params;
    params.kind = ReplacementKind::Random;
    params.seed = 10;
    const ReplacementParams salted = withSeedSalt(params, 0x7f7ULL);
    EXPECT_EQ(salted.kind, ReplacementKind::Random);
    EXPECT_EQ(salted.seed, 10ULL ^ 0x7f7ULL);
    EXPECT_EQ(params.seed, 10ULL); // the input is untouched
}

TEST(Replacement, AuditSetReportsSeededCorruption)
{
    ReplacementPolicy p = make(ReplacementKind::Lru);
    fillSet(p, 2);
    std::vector<std::string> details;
    const auto valid = [](unsigned way) { return way < 2; };
    const auto fail = [&](unsigned, const std::string &d) {
        details.push_back(d);
    };
    p.auditSet(0, valid, fail);
    EXPECT_TRUE(details.empty());
    p.debugStateAt(0, 1) = p.debugStateAt(0, 0);
    p.auditSet(0, valid, fail);
    ASSERT_EQ(details.size(), 1u);
    EXPECT_NE(details[0].find("duplicate"), std::string::npos);
}

TEST(Replacement, DirtyStateHelpers)
{
    EXPECT_TRUE(isDirtyState(CoherenceState::Modified));
    EXPECT_TRUE(isDirtyState(CoherenceState::Owned));
    EXPECT_FALSE(isDirtyState(CoherenceState::Exclusive));
    EXPECT_FALSE(isDirtyState(CoherenceState::Shared));
    EXPECT_FALSE(isDirtyState(CoherenceState::Invalid));
}

} // namespace
} // namespace seesaw
