/** @file System-level tests of the extension features: associative
 *  TFTs, the unified L1 TLB, trace-driven replay, and the L1I
 *  application. */

#include <gtest/gtest.h>

#include <cstdio>

#include "demand_trace.hh"
#include "sim/experiment.hh"
#include "workload/trace.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kMB = 1ULL << 20;

WorkloadSpec
smallWorkload()
{
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 16 * kMB;
    w.hotSetBytes = 1 * kMB;
    w.codeFootprintBytes = 4 * kMB;
    return w;
}

SystemConfig
smallConfig()
{
    SystemConfig c;
    c.instructions = 150'000;
    c.os.memBytes = 512 * kMB;
    c.seed = 42;
    return c;
}

TEST(Extensions, AssociativeTftRunsAndHelpsOrTies)
{
    SystemConfig cfg = smallConfig();
    cfg.tftAssoc = 1;
    const RunResult direct = simulate(smallWorkload(), cfg);
    cfg.tftAssoc = 4;
    const RunResult assoc = simulate(smallWorkload(), cfg);

    ASSERT_GT(assoc.superpageRefs, 0u);
    const double direct_miss =
        static_cast<double>(direct.superpageRefsTftMiss) /
        direct.superpageRefs;
    const double assoc_miss =
        static_cast<double>(assoc.superpageRefsTftMiss) /
        assoc.superpageRefs;
    // Associativity removes conflict evictions: never worse.
    EXPECT_LE(assoc_miss, direct_miss + 1e-9);
}

TEST(Extensions, UnifiedTlbSystemRuns)
{
    SystemConfig cfg = smallConfig();
    cfg.unifiedL1Tlb = true;
    cfg.unifiedL1TlbEntries = 64;
    const auto cmp = compareBaselineVsSeesaw(smallWorkload(), cfg);
    EXPECT_GT(cmp.seesaw.tftHits, 0u);
    EXPECT_GT(cmp.runtimeImprovementPct, -0.5);
    EXPECT_GT(cmp.energySavedPct, 0.0);
}

TEST(Extensions, UnifiedVsSplitTlbBothServeSeesaw)
{
    SystemConfig cfg = smallConfig();
    const RunResult split = simulate(smallWorkload(), cfg);
    cfg.unifiedL1Tlb = true;
    const RunResult unified = simulate(smallWorkload(), cfg);
    // Both organisations keep the TFT effective.
    auto miss_rate = [](const RunResult &r) {
        return r.superpageRefs
                   ? static_cast<double>(r.superpageRefsTftMiss) /
                         r.superpageRefs
                   : 0.0;
    };
    EXPECT_LT(miss_rate(split), 0.10);
    EXPECT_LT(miss_rate(unified), 0.10);
}

TEST(Extensions, InstructionCacheModelRuns)
{
    SystemConfig cfg = smallConfig();
    cfg.modelInstructionCache = true;
    const RunResult r = simulate(smallWorkload(), cfg);
    EXPECT_GT(r.l1iAccesses, 0u);
    // ~one fetch per 4 instructions.
    EXPECT_NEAR(static_cast<double>(r.l1iAccesses),
                r.instructions / 4.0, r.instructions * 0.05);
    // Hot text fits reasonably: I-side hit rate well above cold.
    EXPECT_GT(1.0 - static_cast<double>(r.l1iMisses) / r.l1iAccesses,
              0.7);
}

TEST(Extensions, InstructionCacheSeesawAddsEnergySavings)
{
    // §V: the I-side application adds savings on top of the D-side,
    // especially for large instruction footprints.
    WorkloadSpec w = smallWorkload();
    w.codeFootprintBytes = 16 * kMB;
    SystemConfig cfg = smallConfig();
    cfg.modelInstructionCache = true;

    cfg.l1Kind = L1Kind::ViptBaseline;
    const RunResult base = simulate(w, cfg);
    cfg.l1Kind = L1Kind::Seesaw;
    const RunResult see = simulate(w, cfg);
    EXPECT_GT(energySavedPercent(base, see), 0.0);
    EXPECT_GE(runtimeImprovementPercent(base, see), -0.5);
}

TEST(Extensions, TraceDrivenReplayMatchesWorkloadStatistics)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/system_replay.trace";
    WorkloadSpec w = smallWorkload();
    SystemConfig cfg = smallConfig();
    cfg.instructions = 100'000;

    // Capture the engine's own core-0 stream (its heap base and stream
    // seed salt), one record per instruction or more, so that warmup
    // plus the window never loops the trace.
    const std::uint64_t records = 400'000;
    ASSERT_GT(records, cfg.warmupInstructions + cfg.instructions);
    {
        ReferenceStream stream(w, Addr{1} << 40, cfg.seed ^ 0x57ea0ULL);
        TraceWriter writer(path);
        for (std::uint64_t i = 0; i < records; ++i)
            writer.append(stream.next());
    }

    // The trace path and the synthetic path are one simulator: the
    // replay reproduces the synthetic run exactly, for every design.
    for (L1Kind kind :
         {L1Kind::ViptBaseline, L1Kind::Pipt, L1Kind::Seesaw,
          L1Kind::ViptWayPredicted, L1Kind::SeesawWayPredicted,
          L1Kind::Sipt}) {
        cfg.l1Kind = kind;
        cfg.tracePath.clear();
        const RunResult synthetic = simulate(w, cfg);
        cfg.tracePath = path;
        const RunResult replayed = simulate(w, cfg);

        EXPECT_GT(replayed.l1Accesses, 0u);
        EXPECT_EQ(replayed.pageFaults, 0u); // footprint premapped
        EXPECT_TRUE(replayed == synthetic)
            << "design " << static_cast<int>(kind);
    }
    std::remove(path.c_str());
}

TEST(Extensions, TraceLoopsWhenShorterThanBudget)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/short.trace";
    WorkloadSpec w = smallWorkload();
    {
        ReferenceStream stream(w, Addr{1} << 40, 7);
        TraceWriter writer(path);
        for (int i = 0; i < 1000; ++i)
            writer.append(stream.next());
    }
    SystemConfig cfg = smallConfig();
    cfg.instructions = 50'000;
    cfg.tracePath = path;
    const RunResult r = simulate(w, cfg);
    EXPECT_GE(r.instructions, 50'000u);
    std::remove(path.c_str());
}

TEST(Extensions, TraceOutsideFootprintIsDemandPaged)
{
    const std::string path = test::writeDemandFaultingTrace("wild.trace");
    SystemConfig cfg = smallConfig();
    cfg.instructions = 2'000;
    cfg.warmupInstructions = 0;
    cfg.tracePath = path;
    SimEngine system(cfg, smallWorkload());
    const RunResult r = system.run();
    EXPECT_GT(r.pageFaults, 0u);
    std::remove(path.c_str());
}

TEST(Extensions, TraceWithAnUpperHalfAddressIsRejected)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/upper_half.trace";
    {
        TraceWriter writer(path);
        for (int i = 0; i < 16; ++i)
            writer.append(MemRef{10, (Addr{1} << 40) + i * 64ULL,
                                 AccessType::Read});
        writer.append(
            MemRef{10, 0xffff888000001000ULL, AccessType::Write});
    }
    SystemConfig cfg = smallConfig();
    cfg.instructions = 2'000;
    cfg.warmupInstructions = 0;
    cfg.tracePath = path;
    // A clean exit naming the record, not an abort in a TLB fill.
    EXPECT_EXIT(
        {
            SimEngine system(cfg, smallWorkload());
            system.run();
        },
        ::testing::ExitedWithCode(1), "trace record 16 .*46-bit");
    std::remove(path.c_str());
}

} // namespace
} // namespace seesaw
