/** @file Whole-token number parsing and the environment knobs built
 *  on it: a value that is not a whole number in range must exit 1
 *  with "bad <VAR> value <token>", never run on a partial parse. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/parse.hh"
#include "harness/runner.hh"
#include "sim/experiment.hh"

namespace seesaw {
namespace {

TEST(ParseWholeCount, AcceptsOnlyWholeDecimalTokens)
{
    EXPECT_EQ(parseWholeCount("0"), 0u);
    EXPECT_EQ(parseWholeCount("20000"), 20000u);
    EXPECT_EQ(parseWholeCount("18446744073709551615"),
              18446744073709551615ULL);
    for (const char *bad : {"", "2e4", "3x", "-1", "+1", " 7", "7 ",
                            "0x10", "18446744073709551616"})
        EXPECT_FALSE(parseWholeCount(bad).has_value()) << bad;
}

TEST(ParseWholeReal, AcceptsOnlyWholeFiniteTokens)
{
    EXPECT_EQ(parseWholeReal("1.33"), 1.33);
    EXPECT_EQ(parseWholeReal("-1"), -1.0);
    EXPECT_EQ(parseWholeReal("2e4"), 2e4);
    for (const char *bad : {"", "abc", "1.3x", " 1", "1 ", "inf", "nan",
                            "1e999"})
        EXPECT_FALSE(parseWholeReal(bad).has_value()) << bad;
}

TEST(EnvCount, UnsetOrEmptyMeansTheFallback)
{
    ::unsetenv("SEESAW_TEST_KNOB");
    EXPECT_EQ(envCount("SEESAW_TEST_KNOB", 42), 42u);
    ::setenv("SEESAW_TEST_KNOB", "", 1);
    EXPECT_EQ(envCount("SEESAW_TEST_KNOB", 42), 42u);
    ::setenv("SEESAW_TEST_KNOB", "7", 1);
    EXPECT_EQ(envCount("SEESAW_TEST_KNOB", 42), 7u);
    ::unsetenv("SEESAW_TEST_KNOB");
}

using EnvKnobDeathTest = ::testing::Test;

TEST(EnvKnobDeathTest, InstructionsRejectAnExponent)
{
    EXPECT_EXIT(
        {
            ::setenv("SEESAW_INSTRUCTIONS", "2e4", 1);
            experimentInstructions(300'000);
        },
        ::testing::ExitedWithCode(1),
        "bad SEESAW_INSTRUCTIONS value 2e4");
}

TEST(EnvKnobDeathTest, JobsRejectTrailingCharacters)
{
    EXPECT_EXIT(
        {
            ::setenv("SEESAW_JOBS", "3x", 1);
            harness::defaultJobs();
        },
        ::testing::ExitedWithCode(1), "bad SEESAW_JOBS value 3x");
}

TEST(EnvKnobDeathTest, JobsRejectZero)
{
    EXPECT_EXIT(
        {
            ::setenv("SEESAW_JOBS", "0", 1);
            harness::defaultJobs();
        },
        ::testing::ExitedWithCode(1), "bad SEESAW_JOBS value 0");
}

} // namespace
} // namespace seesaw
