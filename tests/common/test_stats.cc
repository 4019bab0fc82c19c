/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace seesaw {
namespace {

TEST(StatScalar, StartsAtZero)
{
    StatScalar s;
    EXPECT_EQ(s.value(), 0.0);
    EXPECT_EQ(s.count(), 0u);
}

TEST(StatScalar, IncrementAndAccumulate)
{
    StatScalar s;
    ++s;
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 4.5);
    EXPECT_EQ(s.count(), 4u);
}

TEST(StatScalar, Reset)
{
    StatScalar s;
    s += 10;
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(StatGroup, ScalarRegistrationIsIdempotent)
{
    StatGroup g("test");
    g.scalar("hits") += 3;
    g.scalar("hits") += 2;
    EXPECT_DOUBLE_EQ(g.get("hits"), 5.0);
}

TEST(StatGroup, MissingScalarReadsZero)
{
    StatGroup g("test");
    EXPECT_DOUBLE_EQ(g.get("nonexistent"), 0.0);
}

TEST(StatGroup, ResetAllClearsEverything)
{
    StatGroup g("test");
    g.scalar("a") += 1;
    g.resetAll();
    EXPECT_DOUBLE_EQ(g.get("a"), 0.0);
}

TEST(StatGroup, DumpContainsNameAndValues)
{
    StatGroup g("l1");
    g.scalar("hits") += 7;
    const std::string dump = g.dump();
    EXPECT_NE(dump.find("l1.hits 7"), std::string::npos);
}

} // namespace
} // namespace seesaw
