/** @file Tests for the baseline VIPT and PIPT L1 designs. */

#include <gtest/gtest.h>

#include "cache/baseline_caches.hh"
#include "model/latency_table.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kKB = 1024;

LatencyTable &
latencyTable()
{
    static LatencyTable table;
    return table;
}

BaselineL1Config
config32k()
{
    BaselineL1Config c;
    c.sizeBytes = 32 * kKB;
    c.assoc = 8;
    return c;
}

constexpr double kFreqGhz = 1.33;

/** VIPT is the full-set cache at the Table III baseline latency. */
ViptCache
viptCache(const BaselineL1Config &cfg)
{
    return ViptCache(cfg, latencyTable().basePageCycles(
                              cfg.sizeBytes, cfg.assoc, kFreqGhz));
}

TEST(ViptCache, HitLatencyMatchesTableIII)
{
    ViptCache cache = viptCache(config32k());
    EXPECT_EQ(cache.baseHitCycles(), 2u);
    EXPECT_EQ(cache.fastHitCycles(), 2u); // no fast path on baseline
}

TEST(ViptCache, MissThenHitReadsAllWays)
{
    ViptCache cache = viptCache(config32k());
    L1Access req{0x1000, 0x5000, PageSize::Base4KB, AccessType::Read};
    auto miss = cache.access(req);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.waysRead, 8u);
    EXPECT_EQ(miss.installWays, 8u);
    EXPECT_EQ(miss.latencyCycles, 2u);
    EXPECT_FALSE(miss.fastPath);

    auto hit = cache.access(req);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.waysRead, 8u);
    EXPECT_TRUE(hit.fastPath);
}

TEST(ViptCache, WriteMakesLineModified)
{
    ViptCache cache = viptCache(config32k());
    L1Access wr{0x0, 0x40, PageSize::Base4KB, AccessType::Write};
    cache.access(wr);
    const CacheLine *line = cache.tags().findLine(0x40);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Modified);
}

TEST(ViptCache, WriteHitUpgradesCleanLine)
{
    ViptCache cache = viptCache(config32k());
    L1Access rd{0x0, 0x40, PageSize::Base4KB, AccessType::Read};
    cache.access(rd);
    EXPECT_EQ(cache.tags().findLine(0x40)->state,
              CoherenceState::Exclusive);
    L1Access wr{0x0, 0x40, PageSize::Base4KB, AccessType::Write};
    cache.access(wr);
    EXPECT_EQ(cache.tags().findLine(0x40)->state,
              CoherenceState::Modified);
}

TEST(ViptCache, ProbeReadsFullSet)
{
    ViptCache cache = viptCache(config32k());
    L1Access req{0x0, 0x40, PageSize::Base4KB, AccessType::Write};
    cache.access(req);

    auto probe = cache.probe(0x40, /*invalidating=*/false);
    EXPECT_TRUE(probe.hit);
    EXPECT_TRUE(probe.wasDirty);
    EXPECT_EQ(probe.waysRead, 8u);
    // Downgrade from M keeps ownership as Owned.
    EXPECT_EQ(cache.tags().findLine(0x40)->state,
              CoherenceState::Owned);
}

TEST(ViptCache, InvalidatingProbeDropsLine)
{
    ViptCache cache = viptCache(config32k());
    L1Access req{0x0, 0x40, PageSize::Base4KB, AccessType::Read};
    cache.access(req);
    auto probe = cache.probe(0x40, /*invalidating=*/true);
    EXPECT_TRUE(probe.hit);
    EXPECT_FALSE(probe.wasDirty);
    EXPECT_EQ(cache.tags().findLine(0x40), nullptr);
}

TEST(ViptCache, ProbeMiss)
{
    ViptCache cache = viptCache(config32k());
    auto probe = cache.probe(0xdead40, false);
    EXPECT_FALSE(probe.hit);
    EXPECT_EQ(probe.waysRead, 8u);
}

TEST(ViptCache, StatsCountAccesses)
{
    ViptCache cache = viptCache(config32k());
    L1Access req{0x0, 0x40, PageSize::Base4KB, AccessType::Read};
    cache.access(req);
    cache.access(req);
    cache.access(req);
    EXPECT_EQ(cache.stats().get("accesses"), 3.0);
    EXPECT_EQ(cache.stats().get("misses"), 1.0);
    EXPECT_EQ(cache.stats().get("hits"), 2.0);
}

TEST(ViptCacheWp, CorrectPredictionReadsOneWay)
{
    auto cfg = config32k();
    cfg.wayPrediction = true;
    ViptCache cache = viptCache(cfg);
    L1Access req{0x0, 0x40, PageSize::Base4KB, AccessType::Read};
    cache.access(req); // miss, fills and trains predictor

    auto hit = cache.access(req);
    EXPECT_TRUE(hit.hit);
    EXPECT_TRUE(hit.wpUsed);
    EXPECT_TRUE(hit.wpCorrect);
    EXPECT_EQ(hit.waysRead, 1u);
    EXPECT_EQ(hit.latencyCycles, 2u);
    EXPECT_TRUE(hit.fastPath);
}

TEST(ViptCacheWp, MispredictionPaysExtraDataAccess)
{
    auto cfg = config32k();
    cfg.wayPrediction = true;
    ViptCache cache = viptCache(cfg);
    // Two lines in the same set: alternate so MRU always mispredicts.
    const Addr a = 0x40, b = 0x40 + 64 * 64;
    cache.access({0x0, a, PageSize::Base4KB, AccessType::Read});
    cache.access({0x0, b, PageSize::Base4KB, AccessType::Read});

    auto res = cache.access({0x0, a, PageSize::Base4KB,
                             AccessType::Read});
    EXPECT_TRUE(res.hit);
    EXPECT_FALSE(res.wpCorrect);
    // Tags compare in parallel; the mispredict re-reads only the
    // correct way's data: 2 data ways, +1 cycle, scheduler bubble.
    EXPECT_EQ(res.waysRead, 2u);
    EXPECT_EQ(res.latencyCycles, 2u + 1u);
    EXPECT_FALSE(res.fastPath);
    EXPECT_FALSE(res.lateDiscovery);
}

TEST(ViptCacheWp, PredictorAccuracyExposed)
{
    auto cfg = config32k();
    cfg.wayPrediction = true;
    ViptCache cache = viptCache(cfg);
    ASSERT_NE(cache.wayPredictor(), nullptr);
    L1Access req{0x0, 0x40, PageSize::Base4KB, AccessType::Read};
    cache.access(req);
    cache.access(req);
    EXPECT_GT(cache.wayPredictor()->predictions(), 0u);
}

/** PIPT is the full-set cache built at the serial-TLB latency. */
ViptCache
piptCache(const BaselineL1Config &cfg, unsigned tlb_latency_cycles)
{
    return ViptCache(cfg, latencyTable().piptCycles(cfg.sizeBytes,
                                                    cfg.assoc, kFreqGhz,
                                                    tlb_latency_cycles));
}

TEST(PiptCache, LatencyIncludesSerialTlb)
{
    auto cfg = config32k();
    cfg.assoc = 4; // PIPT can pick a lower associativity
    ViptCache cache = piptCache(cfg, /*tlb_latency_cycles=*/2);
    const unsigned array =
        latencyTable().sram().accessLatencyCycles(32 * kKB, 4, 1.33);
    EXPECT_EQ(cache.baseHitCycles(), 2 + array);
}

TEST(PiptCache, BasicHitMissBehaviour)
{
    auto cfg = config32k();
    cfg.assoc = 4;
    ViptCache cache = piptCache(cfg, 2);
    L1Access req{0x1000, 0x5000, PageSize::Base4KB, AccessType::Read};
    EXPECT_FALSE(cache.access(req).hit);
    const auto hit = cache.access(req);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.waysRead, 4u);
}

TEST(PiptCache, SweepRegionWorks)
{
    auto cfg = config32k();
    ViptCache cache = piptCache(cfg, 2);
    cache.access({0x0, 0x40, PageSize::Base4KB, AccessType::Read});
    EXPECT_EQ(cache.sweepRegion(0x0, 4096), 1u);
    EXPECT_FALSE(cache.tags().peek(0x40).hit);
}

} // namespace
} // namespace seesaw
