/** @file Tests for the SIPT related-work baseline (§VII). */

#include <gtest/gtest.h>

#include "cache/sipt_cache.hh"

namespace seesaw {
namespace {

constexpr std::uint64_t kKB = 1024;

LatencyTable &
latencyTable()
{
    static LatencyTable table;
    return table;
}

SiptConfig
config32k()
{
    SiptConfig c;
    c.sizeBytes = 32 * kKB;
    c.assoc = 2; // 256 sets: 2 index bits above the page offset
    c.freqGhz = 1.33;
    return c;
}

/** A 2MB-backed translation (index bits survive). */
Addr
superPa(Addr va, Addr region)
{
    return (region << 21) | (va & ((2ULL << 20) - 1));
}

TEST(SiptCache, GeometryExceedsViptCeiling)
{
    SiptCache cache(config32k(), latencyTable());
    EXPECT_EQ(cache.tags().numSets(), 256u);
    EXPECT_EQ(cache.speculativeBits(), 2u);
    // The 2-way array is faster than the 8-way VIPT baseline's.
    EXPECT_LT(cache.fastHitCycles(),
              latencyTable().basePageCycles(32 * kKB, 8, 1.33) + 1);
}

TEST(SiptCache, RejectsViptLegalGeometry)
{
    // 32KB 8-way has 64 sets: no speculative bits — SIPT pointless.
    SiptConfig cfg = config32k();
    cfg.assoc = 8;
    EXPECT_DEATH({ SiptCache cache(cfg, latencyTable()); },
                 "more sets");
}

TEST(SiptCache, SuperpageSpeculationAlwaysCorrect)
{
    SiptCache cache(config32k(), latencyTable());
    const Addr va = (9ULL << 21) | 0x3440;
    const Addr pa = superPa(va, 0x42);

    cache.access({va, pa, PageSize::Super2MB, AccessType::Read});
    const auto res =
        cache.access({va, pa, PageSize::Super2MB, AccessType::Read});
    EXPECT_TRUE(res.hit);
    EXPECT_TRUE(res.fastPath);
    EXPECT_FALSE(res.lateDiscovery);
    EXPECT_EQ(res.latencyCycles, cache.fastHitCycles());
    EXPECT_EQ(res.waysRead, 2u);
}

TEST(SiptCache, BasePageMispeculationPaysReplay)
{
    SiptCache cache(config32k(), latencyTable());
    const Addr va = 0x7003440;
    // Force PA index bits (13:12) to differ from the VA's.
    Addr pa = 0x0440;
    if (((pa >> 12) & 3) == ((va >> 12) & 3))
        pa ^= (1ULL << 12);

    // First touch: the untrained predictor speculates identity bits —
    // wrong here.
    const auto first =
        cache.access({va, pa, PageSize::Base4KB, AccessType::Read});
    EXPECT_FALSE(first.fastPath);
    EXPECT_TRUE(first.lateDiscovery);
    EXPECT_GT(first.latencyCycles, cache.fastHitCycles());
    EXPECT_EQ(first.waysRead, 4u); // both sets read

    // The predictor learned the page's bits: subsequent accesses are
    // correct.
    const auto second =
        cache.access({va, pa, PageSize::Base4KB, AccessType::Read});
    EXPECT_TRUE(second.hit);
    EXPECT_TRUE(second.fastPath);
    EXPECT_EQ(second.waysRead, 2u);
    EXPECT_GT(cache.predictionAccuracy(), 0.0);
    EXPECT_EQ(cache.specWrong(), 1u); // only the untrained access
}

TEST(SiptCache, LinesLiveAtPhysicalIndexSoProbesAreDirect)
{
    SiptCache cache(config32k(), latencyTable());
    const Addr va = 0x7003440;
    Addr pa = 0x0440;
    if (((pa >> 12) & 3) == ((va >> 12) & 3))
        pa ^= (1ULL << 12);
    cache.access({va, pa, PageSize::Base4KB, AccessType::Write});

    const auto probe = cache.probe(pa, /*invalidating=*/false);
    EXPECT_TRUE(probe.hit);
    EXPECT_TRUE(probe.wasDirty);
    EXPECT_EQ(probe.waysRead, 2u); // small physical-indexed set
}

TEST(SiptCache, NoDuplicatesAcrossSpeculationOutcomes)
{
    // Mispeculation must never install a second copy: placement is
    // purely physical.
    SiptCache cache(config32k(), latencyTable());
    const Addr pa = 0x2440;
    const Addr va1 = 0x5002440; // matching bits
    Addr va2 = 0x9001440;       // conflicting bits
    if (((va2 >> 12) & 3) == ((pa >> 12) & 3))
        va2 ^= (1ULL << 12);

    cache.access({va1, pa, PageSize::Base4KB, AccessType::Read});
    cache.access({va2, pa, PageSize::Base4KB, AccessType::Read});
    // Exactly one copy: a probe hit plus a single valid line for pa.
    unsigned copies = 0;
    cache.tags().forEachValidLine([&](Addr line_addr, const CacheLine &) {
        copies += line_addr == (pa >> 6) ? 1 : 0;
    });
    EXPECT_EQ(copies, 1u);
}

} // namespace
} // namespace seesaw
