/** @file Tests for the durable campaign result store. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "harness/sinks.hh"
#include "store/result_store.hh"
#include "store/store_sink.hh"

namespace fs = std::filesystem;

namespace seesaw::store {
namespace {

/** A fresh store directory, removed on destruction. */
class TempStore
{
  public:
    TempStore()
    {
        std::string templ =
            (fs::temp_directory_path() / "seesaw-store-XXXXXX")
                .string();
        dir_ = ::mkdtemp(templ.data());
        EXPECT_FALSE(dir_.empty());
    }

    ~TempStore() { fs::remove_all(dir_); }

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

harness::CellResult
makeCell(const std::string &workload, std::uint64_t seed,
         std::uint64_t instructions)
{
    harness::CellResult cell;
    cell.name = workload + "/unit";
    cell.workload = workload;
    cell.seed = seed;
    cell.configHash = 0x1234'5678'9abc'def0ULL;
    cell.wallSeconds = 0.25;
    cell.result.workload = workload;
    cell.result.instructions = instructions;
    cell.result.cycles = instructions * 2;
    cell.result.ipc = 0.5;
    cell.result.energyTotalNj = 1234.5678901234567;
    cell.result.pageFaults = 7;
    return cell;
}

harness::CampaignMetadata
unitMeta()
{
    harness::CampaignMetadata meta;
    meta.campaign = "unit";
    meta.gitDescribe = "deadbeef";
    return meta;
}

TEST(ResultStore, RecordRoundTripsThroughItsLineFormat)
{
    const CellRecord record =
        makeRecord(unitMeta(), makeCell("redis", 3, 1000));
    std::ostringstream os;
    writeRecordLine(os, record);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(
        os.str().substr(0, os.str().size() - 1), doc, error))
        << error;
    CellRecord back;
    ASSERT_EQ(parseRecord(doc, back), "");
    EXPECT_EQ(back.key, record.key);
    EXPECT_EQ(back.cell, record.cell);
    EXPECT_EQ(back.campaign, "unit");
    EXPECT_EQ(back.stats, record.stats);

    const harness::CellResult cell = toCellResult(back);
    EXPECT_EQ(cell.workload, "redis");
    EXPECT_EQ(cell.result.instructions, 1000u);
    EXPECT_EQ(cell.result.cycles, 2000u);
    EXPECT_DOUBLE_EQ(cell.result.ipc, 0.5);
    EXPECT_DOUBLE_EQ(cell.result.energyTotalNj, 1234.5678901234567);
    EXPECT_EQ(cell.result.pageFaults, 7u);
}

TEST(ResultStore, FieldsParseWithoutAVersionButOnlyCanonicalHashes)
{
    // A campaign JSON sink entry: the record fields, no "v".
    const auto entry = [](const std::string &hash) {
        JsonValue doc;
        std::string error;
        EXPECT_TRUE(parseJson(
            R"({"cell":"redis/x","seed":1,"workload":"redis",)"
            R"("stats":{"cycles":1},"config_hash":")" +
                hash + "\"}",
            doc, error))
            << error;
        return doc;
    };
    CellRecord record;
    EXPECT_EQ(parseRecordFields(entry("123456789abcdef0"), record), "");
    EXPECT_EQ(record.key.configHash, 0x1234'5678'9abc'def0ULL);
    EXPECT_EQ(parseRecord(entry("123456789abcdef0"), record),
              "record has no schema version");
    for (const char *bad : {"zz", "", "1", " 123456789abcdef0",
                            "0x3456789abcdef0", "123456789ABCDEF0",
                            "123456789abcdef01"})
        EXPECT_EQ(parseRecordFields(entry(bad), record),
                  std::string("bad config_hash ") + bad)
            << bad;
}

TEST(ResultStore, UpsertIsLastWriterWinsAndIdempotent)
{
    TempStore store;
    {
        SegmentWriter writer(store.dir(), "w0");
        writer.upsert(makeRecord(unitMeta(), makeCell("redis", 1, 10)));
        writer.upsert(makeRecord(unitMeta(), makeCell("mcf", 1, 20)));
        // Same key again with different stats: the later record wins.
        writer.upsert(makeRecord(unitMeta(), makeCell("redis", 1, 99)));
    }

    StoreSnapshot snap;
    ASSERT_EQ(loadStore(store.dir(), snap), "");
    EXPECT_EQ(snap.latest.size(), 2u);
    EXPECT_EQ(snap.history.size(), 3u);
    const CellKey redis{"redis", 0x1234'5678'9abc'def0ULL, 1};
    ASSERT_TRUE(snap.contains(redis));
    EXPECT_EQ(toCellResult(snap.latest.at(redis))
                  .result.instructions,
              99u);

    // Re-upserting the winning record changes nothing observable.
    {
        SegmentWriter writer(store.dir(), "w1");
        writer.upsert(makeRecord(unitMeta(), makeCell("redis", 1, 99)));
    }
    std::ostringstream before, after;
    canonicalDump(before, snap);
    ASSERT_EQ(loadStore(store.dir(), snap), "");
    canonicalDump(after, snap);
    EXPECT_EQ(before.str(), after.str());
}

TEST(ResultStore, RejectsForeignSchemaVersions)
{
    TempStore store;
    ASSERT_EQ(initStore(store.dir()), "");
    {
        std::ofstream os(store.dir() + "/MANIFEST.json",
                         std::ios::trunc);
        os << "{\"schema_version\": 999}\n";
    }
    StoreSnapshot snap;
    const std::string error = loadStore(store.dir(), snap);
    EXPECT_NE(error.find("schema version 999"), std::string::npos)
        << error;
    // Writers refuse too: initStore on the same dir reports the
    // mismatch instead of clobbering the manifest.
    EXPECT_NE(initStore(store.dir()).find("schema version"),
              std::string::npos);
}

TEST(ResultStore, ToleratesExactlyOneTornSegmentTail)
{
    TempStore store;
    {
        SegmentWriter writer(store.dir(), "w0");
        writer.upsert(makeRecord(unitMeta(), makeCell("redis", 1, 10)));
        writer.upsert(makeRecord(unitMeta(), makeCell("mcf", 1, 20)));
    }
    // A crash mid-append leaves a final line without its newline.
    {
        std::ofstream os(store.dir() + "/segments/w0.jsonl",
                         std::ios::app);
        os << "{\"v\":1,\"workload\":\"tr";
    }
    StoreSnapshot snap;
    ASSERT_EQ(loadStore(store.dir(), snap), "");
    EXPECT_EQ(snap.latest.size(), 2u);
    EXPECT_EQ(snap.tornTails, 1u);

    // The same damage in the middle of a file is corruption: a
    // newline after the partial record makes it a completed,
    // malformed line, which must fail loudly.
    {
        std::ofstream os(store.dir() + "/segments/w0.jsonl",
                         std::ios::app);
        os << "uncated\n";
    }
    const std::string error = loadStore(store.dir(), snap);
    EXPECT_FALSE(error.empty());
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(ResultStoreDeathTest, SecondLiveWriterOnASegmentIsFatal)
{
    // Two campaigns on one store both write segments/driver.jsonl. The
    // second must fail before it cuts the line the first one is still
    // writing as if it were a killed writer's torn tail.
    TempStore store;
    const std::string segment = store.dir() + "/segments/driver.jsonl";
    auto first = std::make_unique<SegmentWriter>(store.dir(), "driver");
    const std::string in_flight = "{\"v\":1,\"workload\":\"in-fli";
    {
        std::ofstream os(segment, std::ios::app);
        os << in_flight;
    }
    EXPECT_DEATH({ SegmentWriter second(store.dir(), "driver"); },
                 "store segment .*driver.jsonl is being written by "
                 "another process");
    EXPECT_EQ(readFile(segment), in_flight);

    // Once the first writer is gone, its unfinished line is a torn
    // tail, and the next writer cuts it.
    first.reset();
    SegmentWriter next(store.dir(), "driver");
    EXPECT_EQ(readFile(segment), "");
}

TEST(ResultStore, CompactionFoldsSegmentsWithoutChangingTheDump)
{
    TempStore store;
    {
        SegmentWriter w0(store.dir(), "w0");
        SegmentWriter w1(store.dir(), "w1");
        w0.upsert(makeRecord(unitMeta(), makeCell("redis", 1, 10)));
        w1.upsert(makeRecord(unitMeta(), makeCell("mcf", 1, 20)));
        w0.upsert(makeRecord(unitMeta(), makeCell("redis", 2, 30)));
        w1.upsert(makeRecord(unitMeta(), makeCell("redis", 1, 40)));
    }
    StoreSnapshot snap;
    ASSERT_EQ(loadStore(store.dir(), snap), "");
    std::ostringstream before;
    canonicalDump(before, snap);

    ASSERT_EQ(compactStore(store.dir()), "");
    EXPECT_TRUE(fs::exists(store.dir() + "/index.jsonl"));
    EXPECT_FALSE(fs::exists(store.dir() + "/segments/w0.jsonl"));
    EXPECT_FALSE(fs::exists(store.dir() + "/segments/w1.jsonl"));

    ASSERT_EQ(loadStore(store.dir(), snap), "");
    std::ostringstream after;
    canonicalDump(after, snap);
    EXPECT_EQ(before.str(), after.str());
    EXPECT_EQ(snap.latest.size(), 3u);
    // Compaction drops superseded history: latest records only.
    EXPECT_EQ(snap.history.size(), 3u);

    // New segments appended after a compaction still override the
    // index (load order: index first, then segments).
    {
        SegmentWriter w2(store.dir(), "w2");
        w2.upsert(makeRecord(unitMeta(), makeCell("redis", 1, 50)));
    }
    ASSERT_EQ(loadStore(store.dir(), snap), "");
    const CellKey redis{"redis", 0x1234'5678'9abc'def0ULL, 1};
    EXPECT_EQ(toCellResult(snap.latest.at(redis))
                  .result.instructions,
              50u);
}

TEST(ResultStore, StoreSinkRecordsCellsAsTheyComplete)
{
    TempStore store;
    {
        StoreSink sink(store.dir(), unitMeta(), "driver");
        const auto hook = sink.hook();
        hook(makeCell("redis", 1, 10));
        hook(makeCell("mcf", 1, 20));
        EXPECT_EQ(sink.recorded(), 2u);
    }
    StoreSnapshot snap;
    ASSERT_EQ(loadStore(store.dir(), snap), "");
    EXPECT_EQ(snap.latest.size(), 2u);
    EXPECT_TRUE(
        fs::exists(store.dir() + "/segments/driver.jsonl"));
}

TEST(ResultStore, CanonicalDumpOmitsVolatileFields)
{
    TempStore store;
    {
        StoreSink sink(store.dir(), unitMeta(), "driver");
        sink.record(makeCell("redis", 1, 10));
    }
    StoreSnapshot snap;
    ASSERT_EQ(loadStore(store.dir(), snap), "");
    std::ostringstream os;
    canonicalDump(os, snap);
    const std::string dump = os.str();
    EXPECT_EQ(dump.find("wall_seconds"), std::string::npos);
    EXPECT_EQ(dump.find("deadbeef"), std::string::npos);
    EXPECT_EQ(dump.find("\"campaign\""), std::string::npos);
    EXPECT_NE(dump.find("\"workload\":\"redis\""),
              std::string::npos);
}

TEST(ResultStore, MultiCoreRecordsCarryPerCoreSlices)
{
    harness::CellResult cell = makeCell("tunk", 1, 100);
    cell.result.cores = 2;
    cell.result.perCore.resize(2);
    cell.result.perCore[0].instructions = 60;
    cell.result.perCore[1].instructions = 40;

    TempStore store;
    {
        StoreSink sink(store.dir(), unitMeta(), "driver");
        sink.record(cell);
    }
    StoreSnapshot snap;
    ASSERT_EQ(loadStore(store.dir(), snap), "");
    ASSERT_EQ(snap.latest.size(), 1u);
    const harness::CellResult back =
        toCellResult(snap.latest.begin()->second);
    EXPECT_EQ(back.result.cores, 2u);
    ASSERT_EQ(back.result.perCore.size(), 2u);
    EXPECT_EQ(back.result.perCore[0].instructions, 60u);
    EXPECT_EQ(back.result.perCore[1].instructions, 40u);
}

} // namespace
} // namespace seesaw::store
