/** @file Tests for the coherence probe generator. */

#include <gtest/gtest.h>

#include "cache/baseline_caches.hh"
#include "coherence/probe_engine.hh"
#include "core/seesaw_cache.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kKB = 1024;

LatencyTable &
latencyTable()
{
    static LatencyTable table;
    return table;
}

TEST(ResidentLineTracker, NoteAndSample)
{
    ResidentLineTracker tracker(8);
    EXPECT_TRUE(tracker.empty());
    Rng rng(1);
    EXPECT_EQ(tracker.sample(rng), 0u);

    tracker.note(0x1044); // stored line-aligned
    EXPECT_EQ(tracker.size(), 1u);
    EXPECT_EQ(tracker.sample(rng), 0x1040u);
}

TEST(ResidentLineTracker, RingWrapsAtCapacity)
{
    ResidentLineTracker tracker(4);
    for (Addr a = 0; a < 100; ++a)
        tracker.note(a << 6);
    EXPECT_EQ(tracker.size(), 4u);
}

TEST(SnoopBus, DirectoryGeneratesOnlyDirectedProbes)
{
    SnoopBus bus(CoherenceKind::Directory, 3.0, 5);
    ResidentLineTracker tracker(16);
    tracker.note(0x1000);
    const auto probes = bus.generate(10, 0.5, tracker);
    EXPECT_EQ(probes.size(), 10u);
    for (const auto &p : probes)
        EXPECT_TRUE(p.expectedResident);
}

TEST(SnoopBus, SnoopyAddsAbsentBroadcasts)
{
    SnoopBus bus(CoherenceKind::Snoopy, 3.0, 5);
    ResidentLineTracker tracker(16);
    tracker.note(0x1000);
    const auto probes = bus.generate(10, 0.5, tracker);
    EXPECT_EQ(probes.size(), 10u + 30u);
    unsigned absent = 0;
    for (const auto &p : probes)
        absent += p.expectedResident ? 0 : 1;
    EXPECT_EQ(absent, 30u);
}

TEST(SnoopBus, EmptyTrackerYieldsNothing)
{
    SnoopBus bus(CoherenceKind::Directory, 3.0, 5);
    ResidentLineTracker tracker(16);
    EXPECT_TRUE(bus.generate(10, 0.5, tracker).empty());
}

class ProbeEngineTest : public ::testing::Test
{
  protected:
    ProbeEngineTest()
        : sram_(TechNode::Intel22), energy_(sram_)
    {
        BaselineL1Config c;
        c.sizeBytes = 32 * kKB;
        c.assoc = 8;
        vipt_ = std::make_unique<ViptCache>(
            c, latencyTable().basePageCycles(c.sizeBytes, c.assoc, 1.33));
    }

    SramModel sram_;
    EnergyModel energy_;
    std::unique_ptr<ViptCache> vipt_;
};

TEST_F(ProbeEngineTest, RateScalesWithSharingThreads)
{
    ProbeEngineParams single;
    single.remoteThreads = 0;
    ProbeEngineParams multi = single;
    multi.remoteThreads = 7;
    multi.sharedFraction = 0.4;

    ProbeEngine pe1(single, *vipt_, energy_);
    ProbeEngine pe8(multi, *vipt_, energy_);
    EXPECT_GT(pe8.directedRate(), pe1.directedRate());
}

TEST_F(ProbeEngineTest, TickIssuesProbesAndChargesCoherenceEnergy)
{
    ProbeEngineParams params;
    params.systemProbesPerKiloInstr = 50.0; // dense for the test
    ProbeEngine engine(params, *vipt_, energy_);

    // Populate the cache + tracker.
    for (Addr a = 0; a < 64; ++a) {
        const Addr pa = a << 6;
        vipt_->access({pa, pa, PageSize::Base4KB, AccessType::Write});
        engine.noteResident(pa);
    }

    engine.tick(100000);
    EXPECT_GT(engine.probes(), 0u);
    EXPECT_GT(energy_.l1CoherenceDynamicNj(), 0.0);
    EXPECT_EQ(energy_.l1CpuDynamicNj(), 0.0);
    EXPECT_GT(engine.stats().get("probe_hits"), 0.0);
    // Every line was written, so read probes that hit supply dirty
    // data (cache-to-cache transfers).
    EXPECT_GT(engine.dirtySupplies(), 0u);
    EXPECT_LE(engine.dirtySupplies(), engine.probeHits());
}

TEST_F(ProbeEngineTest, NoResidencyNoProbes)
{
    ProbeEngineParams params;
    params.systemProbesPerKiloInstr = 50.0;
    ProbeEngine engine(params, *vipt_, energy_);
    engine.tick(100000);
    EXPECT_EQ(engine.probes(), 0u);
}

TEST_F(ProbeEngineTest, SeesawProbesCostLessThanVipt)
{
    // The Fig 11 mechanism: identical probe streams cost 4-way energy
    // on SEESAW and 8-way on the baseline.
    SeesawConfig sc;
    sc.sizeBytes = 32 * kKB;
    sc.assoc = 8;
    sc.freqGhz = 1.33;
    SeesawCache seesaw(sc, latencyTable());

    EnergyModel e_vipt(sram_), e_seesaw(sram_);
    ProbeEngineParams params;
    params.systemProbesPerKiloInstr = 50.0;
    ProbeEngine pe_vipt(params, *vipt_, e_vipt);
    ProbeEngine pe_seesaw(params, seesaw, e_seesaw);

    for (Addr a = 0; a < 64; ++a) {
        const Addr pa = a << 6;
        vipt_->access({pa, pa, PageSize::Base4KB, AccessType::Read});
        seesaw.access({pa, pa, PageSize::Base4KB, AccessType::Read});
        pe_vipt.noteResident(pa);
        pe_seesaw.noteResident(pa);
    }
    pe_vipt.tick(100000);
    pe_seesaw.tick(100000);

    ASSERT_EQ(pe_vipt.probes(), pe_seesaw.probes());
    EXPECT_LT(e_seesaw.l1CoherenceDynamicNj(),
              e_vipt.l1CoherenceDynamicNj() * 0.7);
}

TEST_F(ProbeEngineTest, InvalidatingProbesRemoveLines)
{
    ProbeEngineParams params;
    params.systemProbesPerKiloInstr = 100.0;
    params.invalidatingFraction = 1.0;
    ProbeEngine engine(params, *vipt_, energy_);
    for (Addr a = 0; a < 64; ++a) {
        const Addr pa = a << 6;
        vipt_->access({pa, pa, PageSize::Base4KB, AccessType::Read});
        engine.noteResident(pa);
    }
    engine.tick(100000);
    EXPECT_GT(engine.stats().get("invalidations"), 0.0);
    EXPECT_LT(vipt_->tags().validLines(), 64u);
}

} // namespace
} // namespace seesaw
