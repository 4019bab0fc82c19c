/** @file Integration tests for multi-core SimEngine runs with exact
 *  directory coherence. */

#include <gtest/gtest.h>

#include "sim/sim_engine.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kMB = 1ULL << 20;

WorkloadSpec
mtWorkload()
{
    WorkloadSpec w = findWorkload("tunk");
    w.footprintBytes = 16 * kMB;
    w.hotSetBytes = 1 * kMB;
    return w;
}

SystemConfig
smallConfig(unsigned cores = 4)
{
    SystemConfig c;
    c.cores = cores;
    c.l1SizeBytes = 64 * 1024;
    c.l1Assoc = 16;
    c.os.memBytes = 512 * kMB;
    c.instructions = 40'000;
    c.warmupInstructions = 20'000;
    c.seed = 5;
    return c;
}

TEST(MultiCore, RunsAndProducesSaneAggregates)
{
    SimEngine sys(smallConfig(), mtWorkload());
    const RunResult r = sys.run();

    EXPECT_EQ(r.cores, 4u);
    ASSERT_EQ(r.perCore.size(), 4u);
    EXPECT_GE(r.instructions, 4u * 40'000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.l1Accesses, 0u);
    EXPECT_GE(r.l1Accesses, r.l1Hits);
    EXPECT_GT(r.energyTotalNj, 0.0);
    EXPECT_GT(r.superpageRefFraction, 0.5);

    // Aggregates are the sums of the per-core slices.
    std::uint64_t instr = 0, accesses = 0;
    for (const PerCoreResult &pc : r.perCore) {
        EXPECT_GE(pc.instructions, 40'000u);
        EXPECT_GT(pc.l1Accesses, 0u);
        instr += pc.instructions;
        accesses += pc.l1Accesses;
    }
    EXPECT_EQ(instr, r.instructions);
    EXPECT_EQ(accesses, r.l1Accesses);
}

TEST(MultiCore, SharingGeneratesRealProbes)
{
    // Threads share the zipf hot set: writes must invalidate remote
    // copies and dirty reads must be owner-supplied.
    SimEngine sys(smallConfig(), mtWorkload());
    const RunResult r = sys.run();
    EXPECT_GT(r.probes, 0u);
    EXPECT_GT(r.ownerSupplies, 0u);
    EXPECT_GT(r.probeInvalidations, 0u);
    EXPECT_GT(r.l1CoherenceDynamicNj, 0.0);
    // Exact tracking: the directory only probes real copies.
    EXPECT_GT(static_cast<double>(r.probeHits) / r.probes, 0.95);
}

TEST(MultiCore, DirectoryInvariantHoldsAfterRun)
{
    SimEngine sys(smallConfig(), mtWorkload());
    sys.run();
    EXPECT_TRUE(sys.checkDirectoryInvariant());
}

TEST(MultiCore, DirectoryInvariantHoldsWithOsEventsLive)
{
    // Promotion passes sweep lines out of every L1 behind the
    // fabric's back; the engine must retire the matching directory
    // records or the MOESI cross-check drifts.
    SystemConfig cfg = smallConfig(2);
    cfg.instructions = 30'000;
    cfg.warmupInstructions = 0;
    cfg.promotionInterval = 5'000;
    cfg.splinterInterval = 20'000;
    cfg.contextSwitchInterval = 10'000;
    SimEngine sys(cfg, mtWorkload());
    const RunResult r = sys.run();
    EXPECT_GT(r.promotions, 0u);
    EXPECT_TRUE(sys.checkDirectoryInvariant());
}

TEST(MultiCore, DirectoryMatchesCacheContentsExactly)
{
    // Exhaustive per-line check on a short run: every valid line in
    // core c's cache is tracked for c, and every dirty line is owned
    // by c (the invariant the probe energy accounting relies on).
    SystemConfig cfg = smallConfig(2);
    cfg.instructions = 5'000;
    cfg.warmupInstructions = 0;
    SimEngine sys(cfg, mtWorkload());
    sys.run();

    ASSERT_NE(sys.directory(), nullptr);
    for (unsigned c = 0; c < 2; ++c) {
        unsigned checked = 0;
        sys.l1(c).tags().forEachValidLine(
            [&](Addr line_addr, const CacheLine &line) {
                const Addr pa = line_addr << 6;
                EXPECT_TRUE(sys.directory()->holds(c, pa));
                if (isDirtyState(line.state)) {
                    EXPECT_EQ(sys.directory()->owner(pa),
                              static_cast<int>(c));
                }
                ++checked;
            });
        EXPECT_GT(checked, 0u);
    }
    EXPECT_TRUE(sys.checkDirectoryInvariant());
}

TEST(MultiCore, SeesawProbesCostLessThanBaseline)
{
    // §IV-C1 at system level: identical sharing traffic, 4-way probes
    // under SEESAW vs full-set probes under the baseline.
    SystemConfig cfg = smallConfig();
    cfg.l1Kind = L1Kind::ViptBaseline;
    SimEngine base_sys(cfg, mtWorkload());
    const RunResult base = base_sys.run();

    cfg.l1Kind = L1Kind::Seesaw;
    SimEngine see_sys(cfg, mtWorkload());
    const RunResult see = see_sys.run();

    // Probe counts track closely (same streams, same directory
    // logic); per-probe energy is ~39% lower.
    ASSERT_GT(base.probes, 0u);
    EXPECT_NEAR(static_cast<double>(see.probes),
                static_cast<double>(base.probes),
                0.2 * base.probes);
    const double base_per_probe =
        base.l1CoherenceDynamicNj / base.probes;
    const double see_per_probe =
        see.l1CoherenceDynamicNj / see.probes;
    EXPECT_LT(see_per_probe, base_per_probe * 0.7);
}

TEST(MultiCore, SeesawSavesEnergyWithoutSlowingDown)
{
    // Under heavy coherence traffic the runtime benefit shrinks
    // toward a tie ("at worst, maintains baseline performance"); the
    // energy saving must remain strict.
    SystemConfig cfg = smallConfig();
    cfg.l1Kind = L1Kind::ViptBaseline;
    const RunResult base = SimEngine(cfg, mtWorkload()).run();
    cfg.l1Kind = L1Kind::Seesaw;
    const RunResult see = SimEngine(cfg, mtWorkload()).run();

    EXPECT_LT(static_cast<double>(see.cycles),
              static_cast<double>(base.cycles) * 1.005);
    EXPECT_LT(see.energyTotalNj, base.energyTotalNj);
}

TEST(MultiCore, MoreCoresMoreCoherenceTraffic)
{
    const RunResult two =
        SimEngine(smallConfig(2), mtWorkload()).run();
    const RunResult eight =
        SimEngine(smallConfig(8), mtWorkload()).run();
    // Probes per core-instruction grow with the sharer count.
    const double two_rate =
        static_cast<double>(two.probes) / two.instructions;
    const double eight_rate =
        static_cast<double>(eight.probes) / eight.instructions;
    EXPECT_GT(eight_rate, two_rate);
}

TEST(MultiCore, SnoopFabricProbesMoreThanDirectory)
{
    // Broadcast coherence probes every remote L1 per transaction; the
    // directory filters to actual sharers.
    SystemConfig cfg = smallConfig();
    cfg.fabric = CoherenceKind::Directory;
    const RunResult dir = SimEngine(cfg, mtWorkload()).run();
    cfg.fabric = CoherenceKind::Snoopy;
    const RunResult snoop = SimEngine(cfg, mtWorkload()).run();
    EXPECT_GT(snoop.probes, dir.probes);
    // ...and most broadcast probes miss.
    EXPECT_LT(static_cast<double>(snoop.probeHits) / snoop.probes,
              static_cast<double>(dir.probeHits) / dir.probes);
}

TEST(MultiCore, NoneFabricSharesOnlyTheLlc)
{
    SystemConfig cfg = smallConfig();
    cfg.fabric = CoherenceKind::None;
    SimEngine sys(cfg, mtWorkload());
    const RunResult r = sys.run();
    EXPECT_EQ(r.probes, 0u);
    EXPECT_EQ(r.ownerSupplies, 0u);
    EXPECT_EQ(sys.fabric(), nullptr);
    EXPECT_EQ(sys.directory(), nullptr);
    EXPECT_TRUE(sys.checkDirectoryInvariant());
    EXPECT_GT(r.l1Accesses, 0u);
}

TEST(MultiCore, PiptAndWayPredictedRunUnderDirectoryCoherence)
{
    // Every L1 design must work at any core count: the two designs
    // the single-core System never ran multi-core before.
    for (L1Kind kind : {L1Kind::Pipt, L1Kind::ViptWayPredicted}) {
        SystemConfig cfg = smallConfig();
        cfg.l1Kind = kind;
        SimEngine sys(cfg, mtWorkload());
        const RunResult r = sys.run();
        EXPECT_GT(r.probes, 0u) << static_cast<int>(kind);
        EXPECT_GT(r.probeHits, 0u) << static_cast<int>(kind);
        EXPECT_TRUE(sys.checkDirectoryInvariant())
            << static_cast<int>(kind);
    }
}

TEST(MultiCore, DeterministicAcrossRuns)
{
    const RunResult a = SimEngine(smallConfig(), mtWorkload()).run();
    const RunResult b = SimEngine(smallConfig(), mtWorkload()).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_DOUBLE_EQ(a.energyTotalNj, b.energyTotalNj);
    EXPECT_TRUE(a == b);
}

} // namespace
} // namespace seesaw
