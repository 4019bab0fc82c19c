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

/** Ten directed probes per tick(1000), none invalidating. */
ProbeEngineParams
tenPerKilo(CoherenceKind fabric)
{
    ProbeEngineParams params;
    params.systemProbesPerKiloInstr = 10.0;
    params.invalidatingFraction = 0.0;
    params.fabric = fabric;
    params.snoopAbsentFactor = 3.0;
    return params;
}

TEST_F(ProbeEngineTest, DirectoryIssuesOnlyDirectedProbes)
{
    ProbeEngine engine(tenPerKilo(CoherenceKind::Directory), *vipt_,
                       energy_);
    vipt_->access({0x1000, 0x1000, PageSize::Base4KB, AccessType::Read});
    engine.noteResident(0x1000);
    engine.tick(1000);
    // Every probe is directed at the one resident line.
    EXPECT_EQ(engine.probes(), 10u);
    EXPECT_EQ(engine.probeHits(), 10u);
}

TEST_F(ProbeEngineTest, SnoopyAddsAbsentBroadcasts)
{
    ProbeEngine engine(tenPerKilo(CoherenceKind::Snoopy), *vipt_,
                       energy_);
    vipt_->access({0x1000, 0x1000, PageSize::Base4KB, AccessType::Read});
    engine.noteResident(0x1000);
    engine.tick(1000);
    // Ten directed hits plus three absent-line broadcasts per directed
    // probe, each of which misses.
    EXPECT_EQ(engine.probes(), 10u + 30u);
    EXPECT_EQ(engine.probeHits(), 10u);
}

TEST_F(ProbeEngineTest, EmptyTrackerIssuesNothingOnEitherFabric)
{
    for (CoherenceKind fabric :
         {CoherenceKind::Directory, CoherenceKind::Snoopy}) {
        ProbeEngine engine(tenPerKilo(fabric), *vipt_, energy_);
        engine.tick(1000);
        EXPECT_EQ(engine.probes(), 0u) << static_cast<int>(fabric);
    }
}

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
