/**
 * @file
 * Kill-and-resume tests for store-backed campaigns, in-process: a
 * synthetic deterministic campaign runs on threads into a store, is
 * stopped partway, resumes through splitStored(), and must converge on
 * a canonical dump byte-identical to an uninterrupted run. The cell-run
 * counter proves resume skips completed work instead of silently
 * re-running it.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/runner.hh"
#include "store/result_store.hh"
#include "store/store_sink.hh"

namespace fs = std::filesystem;

namespace seesaw::store {
namespace {

constexpr std::size_t kCells = 5;

class TempDir
{
  public:
    TempDir()
    {
        std::string templ =
            (fs::temp_directory_path() / "seesaw-resume-XXXXXX")
                .string();
        dir_ = ::mkdtemp(templ.data());
        EXPECT_FALSE(dir_.empty());
    }

    ~TempDir() { fs::remove_all(dir_); }

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
};

/** kCells deterministic synthetic cells; every run of cell i is
 *  counted in @p runs and produces the identical result. */
harness::CampaignSpec
makeSpec(std::atomic<std::size_t> *runs)
{
    harness::CampaignSpec spec("resume");
    for (std::size_t i = 0; i < kCells; ++i) {
        const std::string workload = "wl" + std::to_string(i);
        spec.cell(
            workload + "/unit",
            [workload, i, runs] {
                if (runs != nullptr)
                    runs->fetch_add(1, std::memory_order_relaxed);
                RunResult r;
                r.workload = workload;
                r.instructions = 1000 + i;
                r.cycles = 2000 + 3 * i;
                r.ipc = 0.5 + 0.01 * static_cast<double>(i);
                r.l1Accesses = 100 * i;
                return r;
            },
            /*seed=*/1, /*config_hash=*/0x1000 + i, workload);
    }
    return spec;
}

/**
 * Run @p cells on @p jobs threads into the store at @p dir, the way
 * `campaign --store` does, and call requestStop() once @p stopAfter
 * cells are recorded (0 = never). @return the cells recorded.
 */
std::size_t
runIntoStore(const std::string &dir,
             const std::vector<harness::Cell> &cells, unsigned jobs,
             std::size_t stopAfter = 0)
{
    harness::CampaignMetadata meta;
    meta.campaign = "resume";
    meta.gitDescribe = "unit";
    meta.jobs = jobs;
    StoreSink sink(dir, meta, "driver");
    harness::RunnerOptions options;
    options.jobs = jobs;
    options.progress = false;
    options.onCellDone = [&](const harness::CellResult &cell) {
        sink.record(cell);
        if (sink.recorded() == stopAfter)
            harness::requestStop();
    };
    const auto outcome =
        harness::CampaignRunner(options).runCells("resume", cells);
    harness::clearStopRequest();
    EXPECT_EQ(outcome.results.size(), sink.recorded());
    return sink.recorded();
}

std::string
dumpOf(const std::string &dir)
{
    StoreSnapshot snap;
    EXPECT_EQ(loadStore(dir, snap), "");
    std::ostringstream os;
    canonicalDump(os, snap);
    return os.str();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(Resume, KillAndResumeConvergesOnTheUninterruptedRun)
{
    std::atomic<std::size_t> runs{0};
    const auto cells = makeSpec(&runs).cells();

    TempDir serial;
    EXPECT_EQ(runIntoStore(serial.dir(), cells, 1), kCells);
    EXPECT_EQ(runs.load(), kCells);

    // Stopped after two cells; the other thread may finish the cell it
    // already started, but no cell starts after the stop.
    TempDir killed;
    const std::size_t done =
        runIntoStore(killed.dir(), cells, 2, /*stopAfter=*/2);
    EXPECT_GE(done, 2u);
    EXPECT_LT(done, kCells);
    EXPECT_NE(dumpOf(killed.dir()), dumpOf(serial.dir()));

    // Resume runs exactly the missing cells.
    StoredSplit split;
    ASSERT_EQ(splitStored(killed.dir(), cells, split), "");
    EXPECT_EQ(split.stored, done);
    EXPECT_EQ(split.toRun.size(), kCells - done);
    const std::size_t runsBefore = runs.load();
    EXPECT_EQ(runIntoStore(killed.dir(), split.toRun, 2),
              kCells - done);
    EXPECT_EQ(runs.load(), runsBefore + (kCells - done));

    EXPECT_EQ(dumpOf(killed.dir()), dumpOf(serial.dir()));
}

TEST(Resume, StopBeforeTheRunStartsRunsNoCells)
{
    std::atomic<std::size_t> runs{0};
    const auto cells = makeSpec(&runs).cells();

    TempDir store;
    harness::requestStop();
    EXPECT_EQ(runIntoStore(store.dir(), cells, 2), 0u);
    EXPECT_EQ(runs.load(), 0u);

    // The empty store resumes cleanly afterwards.
    StoredSplit split;
    ASSERT_EQ(splitStored(store.dir(), cells, split), "");
    EXPECT_EQ(split.stored, 0u);
    EXPECT_EQ(split.toRun.size(), kCells);
    EXPECT_EQ(runIntoStore(store.dir(), split.toRun, 2), kCells);
    EXPECT_EQ(runs.load(), kCells);
}

TEST(Resume, CollectOutcomeFollowsSpecOrderAndNames)
{
    const auto cells = makeSpec(nullptr).cells();
    TempDir store;
    runIntoStore(store.dir(), cells, 2);

    // The store keys by (workload, config, seed), not by name: a spec
    // that lists the same cells in another order under other names
    // gets them back in its own order and under its own names.
    std::vector<harness::Cell> renamed(cells.rbegin(), cells.rend());
    for (auto &cell : renamed)
        cell.name = "renamed/" + cell.name;
    harness::CampaignOutcome outcome;
    ASSERT_EQ(collectOutcome(store.dir(), "resume", renamed, outcome),
              "");
    ASSERT_EQ(outcome.results.size(), kCells);
    EXPECT_FALSE(outcome.interrupted);
    EXPECT_EQ(outcome.totalCells, kCells);
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(outcome.results[i].name, renamed[i].name);
        EXPECT_EQ(outcome.results[i].result.instructions,
                  1000 + (kCells - 1 - i));
    }

    // Cells the store lacks are left out and mark the outcome
    // interrupted.
    TempDir partial;
    runIntoStore(partial.dir(), {cells[0], cells[2]}, 1);
    ASSERT_EQ(collectOutcome(partial.dir(), "resume", cells, outcome),
              "");
    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_TRUE(outcome.interrupted);
    EXPECT_EQ(outcome.results[0].name, cells[0].name);
    EXPECT_EQ(outcome.results[1].name, cells[2].name);
}

TEST(Resume, TornTailOfAKilledRunIsDroppedBeforeTheResumeAppends)
{
    const auto cells = makeSpec(nullptr).cells();
    TempDir serial;
    runIntoStore(serial.dir(), cells, 1);

    // A run killed mid-append leaves a partial final line in the very
    // segment the resume appends to.
    TempDir killed;
    runIntoStore(killed.dir(), cells, 1, /*stopAfter=*/2);
    {
        std::ofstream os(killed.dir() + "/segments/driver.jsonl",
                         std::ios::app);
        os << "{\"v\":1,\"workload\":\"wl";
    }
    StoredSplit split;
    ASSERT_EQ(splitStored(killed.dir(), cells, split), "");
    EXPECT_EQ(split.stored, 2u);
    EXPECT_EQ(runIntoStore(killed.dir(), split.toRun, 2), kCells - 2);

    StoreSnapshot snap;
    ASSERT_EQ(loadStore(killed.dir(), snap), "");
    EXPECT_EQ(snap.tornTails, 0u);
    EXPECT_EQ(dumpOf(killed.dir()), dumpOf(serial.dir()));
}

TEST(Resume, CorruptSegmentFailsTheSplitAndIsLeftUntouched)
{
    const auto cells = makeSpec(nullptr).cells();
    TempDir store;
    runIntoStore(store.dir(), cells, 1, /*stopAfter=*/2);

    // Damage the first of the two completed lines: unlike a torn
    // tail this is corruption, and a resume must refuse to build on it.
    const std::string segment = store.dir() + "/segments/driver.jsonl";
    std::string content = readFile(segment);
    ASSERT_EQ(std::count(content.begin(), content.end(), '\n'), 2);
    content[1] = 'x';
    {
        std::ofstream os(segment, std::ios::trunc);
        os << content;
    }

    StoredSplit split;
    const std::string error = splitStored(store.dir(), cells, split);
    EXPECT_NE(error.find("driver.jsonl:1:"), std::string::npos)
        << error;
    EXPECT_TRUE(split.toRun.empty());
    EXPECT_EQ(split.stored, 0u);
    EXPECT_EQ(readFile(segment), content);
}

} // namespace
} // namespace seesaw::store
