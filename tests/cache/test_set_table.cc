/**
 * @file
 * Unit tests for SetTable: the free-way rule (the first invalid way of
 * a range wins before any policy ranks it), range-scoped search and
 * placement, and an audit that reads validity from the entries.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/set_table.hh"

namespace seesaw {
namespace {

struct Slot
{
    bool valid = false;
    unsigned tag = 0;
};

constexpr ReplacementKind kEveryKind[] = {
    ReplacementKind::Lru, ReplacementKind::Fifo, ReplacementKind::Random,
    ReplacementKind::Srrip};

SetTable<Slot>
make(ReplacementKind kind, unsigned ways = 4)
{
    ReplacementParams params;
    params.kind = kind;
    return SetTable<Slot>(1, ways, params);
}

/** Place tags 1..ways into set 0's whole range. */
void
fillSet(SetTable<Slot> &t)
{
    for (unsigned tag = 1; tag <= t.ways(); ++tag)
        EXPECT_FALSE(t.place(0, 0, t.ways(), Slot{true, tag}).valid);
}

/** The way of set 0 holding @p tag in [begin, end), or kNoWay. */
unsigned
wayOf(const SetTable<Slot> &t, unsigned tag, unsigned begin = 0,
      unsigned end = ~0U)
{
    return t.find(0, begin, end == ~0U ? t.ways() : end,
                  [&](const Slot &s) { return s.tag == tag; });
}

TEST(SetTable, FirstInvalidWayWinsForEveryPolicy)
{
    for (ReplacementKind kind : kEveryKind) {
        SetTable<Slot> t = make(kind);
        fillSet(t);
        // Free ways 1 and 2; way 0 holds the oldest line, yet the
        // lowest free way wins, then the next.
        t.drop(0, 2);
        t.drop(0, 1);
        EXPECT_FALSE(t.place(0, 0, 4, Slot{true, 9}).valid);
        EXPECT_EQ(wayOf(t, 9), 1u) << static_cast<int>(kind);
        EXPECT_FALSE(t.place(0, 0, 4, Slot{true, 10}).valid);
        EXPECT_EQ(wayOf(t, 10), 2u) << static_cast<int>(kind);
        // Full again: the policy picks, and the displaced entry is
        // handed back.
        EXPECT_TRUE(t.place(0, 0, 4, Slot{true, 11}).valid);
    }
}

TEST(SetTable, FreeWayCountsOnlyInsideTheRange)
{
    for (ReplacementKind kind : kEveryKind) {
        SetTable<Slot> t = make(kind, 8);
        fillSet(t);
        t.drop(0, 1);
        // Way 1 is free but outside [4, 8): the fill evicts inside.
        const Slot displaced = t.place(0, 4, 8, Slot{true, 20});
        EXPECT_TRUE(displaced.valid) << static_cast<int>(kind);
        const unsigned way = wayOf(t, 20);
        EXPECT_GE(way, 4u);
        EXPECT_LT(way, 8u);
        EXPECT_FALSE(t.at(0, 1).valid);
        // Inside [0, 4) the free way wins.
        EXPECT_FALSE(t.place(0, 0, 4, Slot{true, 21}).valid);
        EXPECT_EQ(wayOf(t, 21), 1u);
        // find() is scoped the same way.
        EXPECT_EQ(wayOf(t, 21, 4, 8), SetTable<Slot>::kNoWay);
    }
}

TEST(SetTable, OneWayRangeReturnsItsWay)
{
    for (ReplacementKind kind : kEveryKind) {
        // Free or full, a one-way range fills its way.
        SetTable<Slot> empty = make(kind, 8);
        EXPECT_FALSE(empty.place(0, 5, 6, Slot{true, 30}).valid);
        EXPECT_EQ(wayOf(empty, 30), 5u) << static_cast<int>(kind);
        SetTable<Slot> full = make(kind, 8);
        fillSet(full);
        EXPECT_EQ(full.place(0, 5, 6, Slot{true, 31}).tag, 6u);
        EXPECT_EQ(wayOf(full, 31), 5u) << static_cast<int>(kind);
    }
}

TEST(SetTable, DroppedWayWinsAgain)
{
    SetTable<Slot> t = make(ReplacementKind::Lru);
    fillSet(t);
    ASSERT_EQ(wayOf(t, 3), 2u);
    t.drop(0, 2);
    EXPECT_EQ(wayOf(t, 3), SetTable<Slot>::kNoWay);
    EXPECT_FALSE(t.place(0, 0, 4, Slot{true, 40}).valid);
    EXPECT_EQ(wayOf(t, 40), 2u);
}

TEST(SetTable, DropIfClearAndVisit)
{
    SetTable<Slot> t = make(ReplacementKind::Lru, 8);
    fillSet(t);
    EXPECT_EQ(t.dropIf([](const Slot &s) { return s.tag % 2 == 0; }),
              4u);
    std::vector<unsigned> seen;
    t.forEachValid([&](unsigned set, unsigned way, const Slot &s) {
        EXPECT_EQ(set, 0u);
        EXPECT_EQ(way + 1, s.tag);
        seen.push_back(s.tag);
    });
    EXPECT_EQ(seen, (std::vector<unsigned>{1, 3, 5, 7}));
    t.clear();
    t.forEachValid([](unsigned, unsigned, const Slot &) {
        ADD_FAILURE() << "cleared table still visits an entry";
    });
}

TEST(SetTable, AuditReadsValidityFromTheEntries)
{
    SetTable<Slot> t = make(ReplacementKind::Lru);
    fillSet(t);
    std::vector<std::string> details;
    const auto fail = [&](unsigned, const std::string &d) {
        details.push_back(d);
    };
    // A dropped way's stale stamp is not audited...
    t.drop(0, 3);
    t.policy().debugStateAt(0, 3) = t.policy().debugStateAt(0, 0);
    t.auditSet(0, fail);
    EXPECT_TRUE(details.empty());
    // ...a valid way's is.
    t.policy().debugStateAt(0, 2) = t.policy().debugStateAt(0, 0);
    t.auditSet(0, fail);
    ASSERT_EQ(details.size(), 1u);
    EXPECT_NE(details[0].find("duplicate"), std::string::npos);
}

} // namespace
} // namespace seesaw
