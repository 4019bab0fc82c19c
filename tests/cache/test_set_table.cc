/**
 * @file
 * Unit tests for SetTable: the free-way rule (the first free way of a
 * range wins before any policy ranks it), range-scoped search and
 * placement, the empty-key sentinel that alone marks a free way, and
 * an audit that reads validity from the keys.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/set_table.hh"

namespace seesaw {
namespace {

/** Each entry's payload is its key times ten, so a test can see the
 *  payload travel with its key. */
using Table = SetTable<unsigned>;

constexpr ReplacementKind kEveryKind[] = {
    ReplacementKind::Lru, ReplacementKind::Fifo, ReplacementKind::Random,
    ReplacementKind::Srrip};

Table
make(ReplacementKind kind, unsigned ways = 4)
{
    ReplacementParams params;
    params.kind = kind;
    return Table(1, ways, params);
}

/** Place @p tag into ways [begin, end) of set 0. */
Table::Entry
put(Table &t, unsigned begin, unsigned end, unsigned tag)
{
    return t.place(0, begin, end, tag, tag * 10);
}

/** Place tags 1..ways into set 0's whole range. */
void
fillSet(Table &t)
{
    for (unsigned tag = 1; tag <= t.ways(); ++tag)
        EXPECT_FALSE(put(t, 0, t.ways(), tag).valid());
}

/** The way of set 0 holding @p tag in [begin, end), or kNoWay. */
unsigned
wayOf(const Table &t, unsigned tag, unsigned begin = 0,
      unsigned end = ~0U)
{
    return t.find(0, begin, end == ~0U ? t.ways() : end, tag);
}

TEST(SetTable, FirstInvalidWayWinsForEveryPolicy)
{
    for (ReplacementKind kind : kEveryKind) {
        Table t = make(kind);
        fillSet(t);
        // Free ways 1 and 2; way 0 holds the oldest line, yet the
        // lowest free way wins, then the next.
        t.drop(0, 2);
        t.drop(0, 1);
        EXPECT_FALSE(put(t, 0, 4, 9).valid());
        EXPECT_EQ(wayOf(t, 9), 1u) << static_cast<int>(kind);
        EXPECT_FALSE(put(t, 0, 4, 10).valid());
        EXPECT_EQ(wayOf(t, 10), 2u) << static_cast<int>(kind);
        // Full again: the policy picks, and the displaced entry is
        // handed back whole.
        const Table::Entry displaced = put(t, 0, 4, 11);
        EXPECT_TRUE(displaced.valid());
        EXPECT_EQ(displaced.payload, displaced.key * 10);
    }
}

TEST(SetTable, FreeWayCountsOnlyInsideTheRange)
{
    for (ReplacementKind kind : kEveryKind) {
        Table t = make(kind, 8);
        fillSet(t);
        t.drop(0, 1);
        // Way 1 is free but outside [4, 8): the fill evicts inside.
        const Table::Entry displaced = put(t, 4, 8, 20);
        EXPECT_TRUE(displaced.valid()) << static_cast<int>(kind);
        const unsigned way = wayOf(t, 20);
        EXPECT_GE(way, 4u);
        EXPECT_LT(way, 8u);
        EXPECT_FALSE(t.valid(0, 1));
        // Inside [0, 4) the free way wins.
        EXPECT_FALSE(put(t, 0, 4, 21).valid());
        EXPECT_EQ(wayOf(t, 21), 1u);
        // find() is scoped the same way.
        EXPECT_EQ(wayOf(t, 21, 4, 8), Table::kNoWay);
    }
}

TEST(SetTable, OneWayRangeReturnsItsWay)
{
    for (ReplacementKind kind : kEveryKind) {
        // Free or full, a one-way range fills its way.
        Table empty = make(kind, 8);
        EXPECT_FALSE(put(empty, 5, 6, 30).valid());
        EXPECT_EQ(wayOf(empty, 30), 5u) << static_cast<int>(kind);
        Table full = make(kind, 8);
        fillSet(full);
        EXPECT_EQ(put(full, 5, 6, 31).key, 6u);
        EXPECT_EQ(wayOf(full, 31), 5u) << static_cast<int>(kind);
    }
}

TEST(SetTable, DroppedWayWinsAgain)
{
    Table t = make(ReplacementKind::Lru);
    fillSet(t);
    ASSERT_EQ(wayOf(t, 3), 2u);
    t.drop(0, 2);
    EXPECT_EQ(wayOf(t, 3), Table::kNoWay);
    EXPECT_FALSE(put(t, 0, 4, 40).valid());
    EXPECT_EQ(wayOf(t, 40), 2u);
}

TEST(SetTable, EmptyKeySentinelMarksEveryFreeWay)
{
    Table t(2, 4, ReplacementParams{});
    for (unsigned set = 0; set < 2; ++set) {
        for (unsigned way = 0; way < 4; ++way) {
            EXPECT_EQ(t.key(set, way), Table::kEmpty);
            EXPECT_FALSE(t.valid(set, way));
            EXPECT_EQ(t.payload(set, way), 0u);
        }
    }
    // A search for a real key never lands on a free way; findIf()
    // never offers one to its predicate.
    EXPECT_EQ(t.find(0, 0), Table::kNoWay);
    EXPECT_EQ(t.findIf(0, [](Table::Key) { return true; }),
              Table::kNoWay);
    // Key 0 is a real key, distinct from the sentinel.
    EXPECT_FALSE(t.place(1, 0, 4, 0, 7).valid());
    EXPECT_TRUE(t.valid(1, 0));
    EXPECT_EQ(t.find(1, 0), 0u);
    EXPECT_EQ(t.findIf(1, [](Table::Key) { return true; }), 0u);
}

TEST(SetTable, DroppedWayReadsEmpty)
{
    Table t = make(ReplacementKind::Lru);
    fillSet(t);
    ASSERT_EQ(t.payload(0, 1), 20u);
    t.drop(0, 1);
    EXPECT_EQ(t.key(0, 1), Table::kEmpty);
    EXPECT_FALSE(t.valid(0, 1));
    EXPECT_EQ(t.payload(0, 1), 0u);
    // The neighbours keep their keys and payloads.
    EXPECT_EQ(t.key(0, 0), 1u);
    EXPECT_EQ(t.payload(0, 2), 30u);
    // dropIf() and clear() leave the same empty ways.
    EXPECT_EQ(t.dropIf([](Table::Key key, unsigned) { return key == 3; }),
              1u);
    EXPECT_EQ(t.key(0, 2), Table::kEmpty);
    EXPECT_EQ(t.payload(0, 2), 0u);
    t.clear();
    for (unsigned way = 0; way < 4; ++way) {
        EXPECT_EQ(t.key(0, way), Table::kEmpty);
        EXPECT_EQ(t.payload(0, way), 0u);
    }
}

TEST(SetTable, OverwriteKeepsTheWayAndItsStamp)
{
    Table t = make(ReplacementKind::Lru);
    fillSet(t);
    const std::uint64_t stamp = t.policy().debugStateAt(0, 2);
    t.overwrite(0, 2, 50, 500);
    EXPECT_EQ(wayOf(t, 50), 2u);
    EXPECT_EQ(t.payload(0, 2), 500u);
    EXPECT_EQ(wayOf(t, 3), Table::kNoWay);
    EXPECT_EQ(t.policy().debugStateAt(0, 2), stamp);
}

TEST(SetTable, DropIfClearAndVisit)
{
    Table t = make(ReplacementKind::Lru, 8);
    fillSet(t);
    EXPECT_EQ(t.dropIf([](Table::Key key, unsigned payload) {
        EXPECT_EQ(payload, key * 10);
        return key % 2 == 0;
    }),
              4u);
    std::vector<unsigned> seen;
    t.forEachValid([&](unsigned set, unsigned way, Table::Key key,
                       unsigned payload) {
        EXPECT_EQ(set, 0u);
        EXPECT_EQ(way + 1, key);
        EXPECT_EQ(payload, key * 10);
        seen.push_back(static_cast<unsigned>(key));
    });
    EXPECT_EQ(seen, (std::vector<unsigned>{1, 3, 5, 7}));
    t.clear();
    t.forEachValid([](unsigned, unsigned, Table::Key, unsigned) {
        ADD_FAILURE() << "cleared table still visits an entry";
    });
}

TEST(SetTable, AuditReadsValidityFromTheEntries)
{
    Table t = make(ReplacementKind::Lru);
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
