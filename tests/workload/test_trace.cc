/** @file Tests for the binary trace writer/reader. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "workload/trace.hh"

namespace seesaw {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Trace, RoundTripPreservesRecords)
{
    const std::string path = tempPath("roundtrip.trace");
    std::vector<MemRef> refs = {
        {0, 0x1000, AccessType::Read},
        {17, 0xdeadbeef40, AccessType::Write},
        {4096, 0xffffffffffff, AccessType::Read},
    };
    {
        TraceWriter writer(path);
        for (const auto &r : refs)
            writer.append(r);
        EXPECT_EQ(writer.records(), refs.size());
    }
    TraceReader reader(path);
    for (const auto &expected : refs) {
        auto got = reader.next();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->gap, expected.gap);
        EXPECT_EQ(got->va, expected.va);
        EXPECT_EQ(got->type, expected.type);
    }
    EXPECT_FALSE(reader.next().has_value());
    std::remove(path.c_str());
}

TEST(Trace, TruncatedTrailingRecordFailsLoudly)
{
    const std::string path = tempPath("truncated.trace");
    {
        TraceWriter writer(path);
        writer.append({0, 0x1000, AccessType::Read});
        writer.append({1, 0x2000, AccessType::Write});
    }
    // Cut the last record in half: 16B header + 2 records of 16B,
    // resized down to 40 bytes leaves 8 stray bytes.
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
#if defined(_WIN32)
    GTEST_SKIP() << "no ftruncate";
#else
    ASSERT_EQ(::ftruncate(fileno(f), 40), 0);
#endif
    std::fclose(f);

    TraceReader reader(path);
    ASSERT_TRUE(reader.next().has_value()); // record 0 is intact
    // The torn record must be a fatal error (exit 1), not a silent
    // end-of-trace that replays a shorter archive.
    EXPECT_EXIT(reader.next(), ::testing::ExitedWithCode(1),
                "truncated trace record");
    std::remove(path.c_str());
}

TEST(Trace, AddressBeyondTheModelledWidthFailsLoudly)
{
    const std::string path = tempPath("wide_va.trace");
    const Addr widest = (Addr{1} << kVirtualAddressBits) - 64;
    {
        TraceWriter writer(path);
        writer.append({0, widest, AccessType::Read});
        // A canonical upper-half (kernel) address.
        writer.append({1, 0xffff888000001000ULL, AccessType::Read});
    }
    TraceReader reader(path);
    const auto first = reader.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->va, widest);
    EXPECT_EXIT(reader.next(), ::testing::ExitedWithCode(1),
                "trace record 1 .*0xffff888000001000");
    std::remove(path.c_str());
}

TEST(Trace, EmptyTraceReadsNothing)
{
    const std::string path = tempPath("empty.trace");
    { TraceWriter writer(path); }
    TraceReader reader(path);
    EXPECT_FALSE(reader.next().has_value());
    std::remove(path.c_str());
}

TEST(Trace, GeneratedStreamRoundTrip)
{
    const std::string path = tempPath("stream.trace");
    const auto &spec = findWorkload("astar");
    {
        ReferenceStream stream(spec, 0x1000, 5);
        TraceWriter writer(path);
        for (int i = 0; i < 1000; ++i)
            writer.append(stream.next());
    }
    ReferenceStream stream(spec, 0x1000, 5);
    TraceReader reader(path);
    for (int i = 0; i < 1000; ++i) {
        auto rec = reader.next();
        ASSERT_TRUE(rec.has_value());
        const MemRef expected = stream.next();
        EXPECT_EQ(rec->va, expected.va);
        EXPECT_EQ(rec->gap, expected.gap);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace seesaw
