/** @file Tests for campaign expansion and the parallel runner. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "harness/runner.hh"
#include "harness/sinks.hh"
#include "sim/multi_config_engine.hh"
#include "workload/workload_spec.hh"

namespace seesaw::harness {
namespace {

SystemConfig
tinyConfig(L1Kind kind)
{
    SystemConfig cfg;
    cfg.l1Kind = kind;
    cfg.instructions = 30'000;
    cfg.warmupInstructions = 5'000;
    cfg.os.memBytes = 1ULL << 30;
    return cfg;
}

CampaignSpec
twoByTwo()
{
    CampaignSpec spec("test2x2");
    spec.workload(findWorkload("redis"))
        .workload(findWorkload("mcf"))
        .variant("vipt", tinyConfig(L1Kind::ViptBaseline))
        .variant("seesaw", tinyConfig(L1Kind::Seesaw));
    return spec;
}

TEST(CampaignSpec, CrossProductExpansion)
{
    CampaignSpec spec = twoByTwo();
    spec.seeds({1, 2});
    const auto cells = spec.cells();
    ASSERT_EQ(cells.size(), 8u); // 2 workloads x 2 variants x 2 seeds

    std::set<std::string> names;
    for (const auto &cell : cells)
        names.insert(cell.name);
    EXPECT_EQ(names.size(), cells.size()); // unique
    EXPECT_TRUE(names.count("redis/vipt/s1"));
    EXPECT_TRUE(names.count("mcf/seesaw/s2"));
}

TEST(CampaignSpec, SingleSeedOmitsSeedSuffix)
{
    const auto cells = twoByTwo().cells();
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells.front().name, "redis/vipt");
}

TEST(CampaignSpec, ExplicitCellsAppendAfterCross)
{
    CampaignSpec spec = twoByTwo();
    SystemConfig seeded = tinyConfig(L1Kind::Pipt);
    seeded.seed = 42;
    spec.cell("custom", findWorkload("mcf"), seeded);
    const auto cells = spec.cells();
    ASSERT_EQ(cells.size(), 5u);
    EXPECT_EQ(cells.back().name, "custom");
    EXPECT_EQ(cells.back().workload.name, "mcf");
    EXPECT_EQ(cells.back().config.seed, 42u);
}

TEST(CampaignRunner, SerialAndParallelAreBitIdentical)
{
    RunnerOptions serial_opts;
    serial_opts.jobs = 1;
    serial_opts.progress = false;
    RunnerOptions parallel_opts;
    parallel_opts.jobs = 4;
    parallel_opts.progress = false;

    const auto serial = CampaignRunner(serial_opts).run(twoByTwo());
    const auto parallel =
        CampaignRunner(parallel_opts).run(twoByTwo());

    ASSERT_EQ(serial.results.size(), 4u);
    ASSERT_EQ(parallel.results.size(), 4u);
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        // Deterministic ordering: same cell in the same slot.
        EXPECT_EQ(serial.results[i].name, parallel.results[i].name);
        EXPECT_EQ(serial.results[i].configHash,
                  parallel.results[i].configHash);
        // Field-wise identical stats regardless of scheduling.
        EXPECT_EQ(serial.results[i].result,
                  parallel.results[i].result)
            << "cell " << serial.results[i].name
            << " diverged between serial and parallel execution";
    }
    EXPECT_EQ(serial.meta.jobs, 1u);
    EXPECT_EQ(parallel.meta.jobs, 4u);
}

TEST(CampaignRunner, MultiCoreJsonIsByteIdenticalAcrossJobCounts)
{
    // A 4-core campaign must serialize to the same bytes no matter
    // how the workers interleave the cells. Wall-clock metadata
    // is the one legitimately nondeterministic part, so it is pinned
    // before serializing.
    WorkloadSpec w = findWorkload("tunk");
    w.footprintBytes = 16ULL << 20;
    w.hotSetBytes = 1ULL << 20;
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.instructions = 8'000;
    cfg.warmupInstructions = 2'000;
    cfg.os.memBytes = 512ULL << 20;

    CampaignSpec spec("mcdet");
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
        SystemConfig seeded = cfg;
        seeded.seed = seed;
        spec.cell("tunk/c4/s" + std::to_string(seed), w, seeded);
    }

    const auto emit = [&spec](unsigned jobs) {
        RunnerOptions o;
        o.jobs = jobs;
        o.progress = false;
        auto outcome = CampaignRunner(o).run(spec);
        CampaignMetadata meta;
        meta.campaign = "mcdet";
        meta.gitDescribe = "pinned";
        meta.jobs = 1;
        meta.wallSeconds = 0.0;
        for (auto &cell : outcome.results)
            cell.wallSeconds = 0.0;
        std::ostringstream os;
        emitCampaignJson(os, meta, outcome.results);
        return os.str();
    };

    const std::string serial = emit(1);
    const std::string parallel = emit(4);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"per_core\""), std::string::npos);
    EXPECT_NE(serial.find("\"cores\":4"), std::string::npos);
}

TEST(CampaignRunner, OnePassIsBitIdenticalToPerCellExecution)
{
    // The 2x2 cross-product collapses into one one-pass group per
    // workload (both variants share the front end); results must be
    // byte-for-byte the per-cell outcome, serial or parallel.
    RunnerOptions per_cell;
    per_cell.jobs = 1;
    per_cell.progress = false;
    const auto baseline = CampaignRunner(per_cell).run(twoByTwo());

    for (const unsigned jobs : {1u, 4u}) {
        RunnerOptions one_pass;
        one_pass.jobs = jobs;
        one_pass.progress = false;
        one_pass.onePass = true;
        const auto grouped = CampaignRunner(one_pass).run(twoByTwo());

        ASSERT_EQ(grouped.results.size(), baseline.results.size());
        for (std::size_t i = 0; i < baseline.results.size(); ++i) {
            EXPECT_EQ(grouped.results[i].name,
                      baseline.results[i].name);
            EXPECT_EQ(grouped.results[i].configHash,
                      baseline.results[i].configHash);
            EXPECT_EQ(grouped.results[i].result,
                      baseline.results[i].result)
                << "cell " << baseline.results[i].name
                << " diverged under one-pass grouping (jobs=" << jobs
                << ")";
        }
    }
}

TEST(CampaignRunner, OnePassSplitsIncompatibleFrontEnds)
{
    // Different seeds feed the shared front end, so they must land in
    // different groups. Two cells whose workloads differ only in their
    // text segment must run as separate passes too: one shared pass
    // would run both on the first cell's workload. TLB geometry and
    // replacement are front end: an in-order core, a unified L1 TLB
    // and SRRIP victims each form their own VIPT + SEESAW pass, split
    // from redis's group, or the engine would abort on incompatible
    // front ends. Everything still matches per-cell execution, serial
    // or on four workers.
    CampaignSpec spec = twoByTwo();
    spec.seeds({1, 2});
    SystemConfig icache = tinyConfig(L1Kind::Seesaw);
    icache.modelInstructionCache = true;
    WorkloadSpec small_text = findWorkload("nutch");
    small_text.codeFootprintBytes = 1ULL << 20;
    WorkloadSpec large_text = small_text;
    large_text.codeFootprintBytes = 32ULL << 20;
    spec.cell("text-1m", small_text, icache);
    spec.cell("text-32m", large_text, icache);
    spec.cell("pipt", findWorkload("redis"), tinyConfig(L1Kind::Pipt));

    const std::pair<std::string, void (*)(SystemConfig &)> geometries[] = {
        {"in-order", [](SystemConfig &c) { c.coreKind = CoreKind::InOrder; }},
        {"unified-tlb", [](SystemConfig &c) { c.unifiedL1Tlb = true; }},
        {"srrip",
         [](SystemConfig &c) {
             c.replacement.kind = ReplacementKind::Srrip;
         }},
    };
    for (const auto &[name, apply] : geometries) {
        for (const L1Kind kind : {L1Kind::ViptBaseline, L1Kind::Seesaw}) {
            SystemConfig config = tinyConfig(kind);
            apply(config);
            EXPECT_NE(MultiConfigEngine::frontEndKey(config),
                      MultiConfigEngine::frontEndKey(tinyConfig(kind)))
                << name;
            spec.cell(name + (kind == L1Kind::Seesaw ? "/seesaw" : "/vipt"),
                      findWorkload("redis"), config);
        }
    }

    RunnerOptions per_cell;
    per_cell.jobs = 1;
    per_cell.progress = false;
    const auto baseline = CampaignRunner(per_cell).run(spec);
    // The text segment really moves the result, so a shared pass
    // would show below.
    EXPECT_NE(findResult(baseline.results, "text-1m").l1iMisses,
              findResult(baseline.results, "text-32m").l1iMisses);

    for (const unsigned jobs : {1u, 4u}) {
        RunnerOptions one_pass = per_cell;
        one_pass.jobs = jobs;
        one_pass.onePass = true;
        std::vector<std::string> done;
        one_pass.onCellDone = [&done](const CellResult &cell) {
            done.push_back(cell.name);
        };
        const auto grouped = CampaignRunner(one_pass).run(spec);

        ASSERT_EQ(grouped.results.size(), baseline.results.size());
        for (std::size_t i = 0; i < baseline.results.size(); ++i) {
            EXPECT_EQ(grouped.results[i].name, baseline.results[i].name);
            EXPECT_EQ(grouped.results[i].result,
                      baseline.results[i].result)
                << "cell " << baseline.results[i].name << " (jobs="
                << jobs << ")";
        }
        // The completion hook fired exactly once per cell.
        EXPECT_EQ(done.size(), spec.cells().size()) << "jobs=" << jobs;
        std::set<std::string> unique(done.begin(), done.end());
        EXPECT_EQ(unique.size(), done.size()) << "jobs=" << jobs;
    }
}

TEST(CampaignRunner, ExplicitSimulateCellsJoinOnePassGroups)
{
    // Explicit cells group with each other when compatible, and each
    // result carries the workload, seed and hash of its own config.
    const WorkloadSpec w = findWorkload("redis");
    CampaignSpec spec("explicit1p");
    spec.cell("vipt", w, tinyConfig(L1Kind::ViptBaseline));
    spec.cell("seesaw", w, tinyConfig(L1Kind::Seesaw));
    ASSERT_EQ(spec.cells().size(), 2u);

    RunnerOptions per_cell;
    per_cell.jobs = 1;
    per_cell.progress = false;
    const auto baseline = CampaignRunner(per_cell).run(spec);
    ASSERT_EQ(baseline.results.size(), 2u);
    EXPECT_EQ(baseline.results[0].workload, "redis");
    EXPECT_EQ(baseline.results[0].seed,
              tinyConfig(L1Kind::ViptBaseline).seed);
    EXPECT_EQ(baseline.results[0].configHash,
              configHash(tinyConfig(L1Kind::ViptBaseline)));
    RunnerOptions one_pass = per_cell;
    one_pass.onePass = true;
    const auto grouped = CampaignRunner(one_pass).run(spec);
    ASSERT_EQ(grouped.results.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(grouped.results[i].configHash,
                  baseline.results[i].configHash);
        EXPECT_EQ(grouped.results[i].result,
                  baseline.results[i].result)
            << "cell " << baseline.results[i].name;
    }
}

TEST(CampaignRunner, StopInACallbackStartsNoFurtherTask)
{
    // A stop request lets in-flight cells finish and starts no other:
    // one worker stops after the cell whose hook asked, four workers
    // after at most the four cells they had already claimed.
    CampaignSpec spec = twoByTwo();
    spec.seeds({1, 2});
    for (const unsigned jobs : {1u, 4u}) {
        RunnerOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.onCellDone = [](const CellResult &) { requestStop(); };
        const auto outcome = CampaignRunner(opts).run(spec);
        clearStopRequest();
        EXPECT_TRUE(outcome.interrupted) << "jobs=" << jobs;
        EXPECT_EQ(outcome.totalCells, 8u);
        if (jobs == 1)
            EXPECT_EQ(outcome.results.size(), 1u);
        else
            EXPECT_LE(outcome.results.size(), 4u);
    }
}

TEST(CampaignRunner, FindResultLooksUpByName)
{
    RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    CampaignSpec spec("lookup");
    spec.workload(findWorkload("redis"))
        .variant("vipt", tinyConfig(L1Kind::ViptBaseline));
    const auto outcome = CampaignRunner(opts).run(spec);
    const RunResult &r = findResult(outcome.results, "redis/vipt");
    EXPECT_EQ(r.workload, "redis");
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(outcome.results[0].wallSeconds, 0.0);
}

TEST(DefaultJobs, EnvOverridesHardwareConcurrency)
{
    ::setenv("SEESAW_JOBS", "7", 1);
    EXPECT_EQ(defaultJobs(), 7u);
    ::setenv("SEESAW_JOBS", "", 1);
    EXPECT_GE(defaultJobs(), 1u); // empty means unset, never 0
    ::unsetenv("SEESAW_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

} // namespace
} // namespace seesaw::harness
