/**
 * @file
 * SimEngine unification tests:
 *  - cores=1 reproduces the pre-refactor single-core System
 *    bit-for-bit (golden stats captured from the last System build);
 *  - per-core seeds are decorrelated (SplitMix64 regression for the
 *    old `seed ^ (salt + core)` scheme);
 *  - multi-core runs honor tftAssoc, warmupInstructions and coreKind,
 *    which the old MultiCoreSystem silently ignored;
 *  - every L1 design (PIPT, SIPT, both way-predicted designs, SEESAW
 *    under 4way-8way, and a 4-core snoopy SEESAW) is pinned bit for
 *    bit, so the shared L1 skeleton cannot drift any of them.
 */

#include <gtest/gtest.h>

#include <bit>

#include "sim/sim_engine.hh"

namespace seesaw {
namespace {

WorkloadSpec
goldenWorkload()
{
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 32ULL << 20;
    w.hotSetBytes = 2ULL << 20;
    return w;
}

SystemConfig
goldenConfig(L1Kind kind, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.l1Kind = kind;
    cfg.instructions = 60'000;
    cfg.warmupInstructions = 30'000;
    cfg.os.memBytes = 1ULL << 30;
    cfg.seed = seed;
    return cfg;
}

struct GoldenRow
{
    L1Kind kind;
    std::uint64_t seed;
    std::uint64_t instructions;
    std::uint64_t cycles;
    double ipc;
    std::uint64_t l1Accesses;
    std::uint64_t l1Hits;
    std::uint64_t l1Misses;
    std::uint64_t fastHits;
    std::uint64_t l2Accesses;
    std::uint64_t llcAccesses;
    std::uint64_t dramAccesses;
    std::uint64_t tftLookups;
    std::uint64_t tftHits;
    std::uint64_t superpageRefs;
    double energyTotalNj;
    double superpageCoverage;
    std::uint64_t squashes;
    std::uint64_t probes;
    std::uint64_t probeHits;
};

constexpr L1Kind SeesawKind = L1Kind::Seesaw;
constexpr L1Kind ViptKind = L1Kind::ViptBaseline;

// Captured from the pre-refactor System (sim/system.cc at commit
// 8b47152) on goldenWorkload()/goldenConfig(). The unified engine at
// cores=1 must reproduce every field exactly, doubles included.
const GoldenRow kGolden[] = {
    {SeesawKind, 1ULL, 60000ULL, 40666ULL, 1.4754340235085821,
     21856ULL, 19775ULL, 2081ULL, 21851ULL, 2081ULL, 1199ULL, 16ULL,
     21856ULL, 21851ULL, 21856ULL, 5308.5174311620785, 1, 2081ULL,
     2700ULL, 2445ULL},
    {SeesawKind, 2ULL, 60000ULL, 38321ULL, 1.565721145064064,
     21710ULL, 19848ULL, 1862ULL, 21707ULL, 1862ULL, 1233ULL, 15ULL,
     21710ULL, 21707ULL, 21710ULL, 5052.3264258863428, 0.9375,
     1862ULL, 2699ULL, 2430ULL},
    {SeesawKind, 3ULL, 60000ULL, 39524ULL, 1.5180649731808522,
     21609ULL, 19629ULL, 1980ULL, 21602ULL, 1980ULL, 1178ULL, 15ULL,
     21609ULL, 21602ULL, 21609ULL, 5193.4346813431557, 1, 1980ULL,
     2700ULL, 2477ULL},
    {ViptKind, 1ULL, 60000ULL, 39574ULL, 1.5161469651791579,
     21856ULL, 20031ULL, 1825ULL, 0ULL, 1825ULL, 1199ULL, 16ULL, 0ULL,
     0ULL, 0ULL, 5611.597450411351, 1, 1825ULL, 2700ULL, 2459ULL},
    {ViptKind, 2ULL, 60000ULL, 40029ULL, 1.498913287866297, 21710ULL,
     19854ULL, 1856ULL, 0ULL, 1856ULL, 1233ULL, 15ULL, 0ULL, 0ULL,
     0ULL, 5626.9119367895983, 0.9375, 1856ULL, 2699ULL, 2420ULL},
    {ViptKind, 3ULL, 60000ULL, 38715ULL, 1.5497869043006587,
     21609ULL, 19858ULL, 1751ULL, 0ULL, 1751ULL, 1178ULL, 15ULL, 0ULL,
     0ULL, 0ULL, 5523.3961416298825, 1, 1751ULL, 2700ULL, 2490ULL},
};

/** The RunResult fields every golden row pins. */
void
expectGolden(const RunResult &r, const GoldenRow &g, const std::string &tag)
{
    EXPECT_EQ(r.instructions, g.instructions) << tag;
    EXPECT_EQ(r.cycles, g.cycles) << tag;
    EXPECT_EQ(r.ipc, g.ipc) << tag; // exact: same division
    EXPECT_EQ(r.l1Accesses, g.l1Accesses) << tag;
    EXPECT_EQ(r.l1Hits, g.l1Hits) << tag;
    EXPECT_EQ(r.l1Misses, g.l1Misses) << tag;
    EXPECT_EQ(r.fastHits, g.fastHits) << tag;
    EXPECT_EQ(r.l2Accesses, g.l2Accesses) << tag;
    EXPECT_EQ(r.llcAccesses, g.llcAccesses) << tag;
    EXPECT_EQ(r.dramAccesses, g.dramAccesses) << tag;
    EXPECT_EQ(r.tftLookups, g.tftLookups) << tag;
    EXPECT_EQ(r.tftHits, g.tftHits) << tag;
    EXPECT_EQ(r.superpageRefs, g.superpageRefs) << tag;
    EXPECT_EQ(r.energyTotalNj, g.energyTotalNj) << tag; // exact
    EXPECT_EQ(r.superpageCoverage, g.superpageCoverage) << tag;
    EXPECT_EQ(r.squashes, g.squashes) << tag;
    EXPECT_EQ(r.probes, g.probes) << tag;
    EXPECT_EQ(r.probeHits, g.probeHits) << tag;
}

TEST(SimEngineGolden, SingleCoreIsBitIdenticalToPreRefactorSystem)
{
    for (const GoldenRow &g : kGolden) {
        SimEngine engine(goldenConfig(g.kind, g.seed),
                         goldenWorkload());
        const RunResult r = engine.run();
        const std::string tag =
            std::string(g.kind == SeesawKind ? "seesaw" : "vipt") +
            "/s" + std::to_string(g.seed);

        expectGolden(r, g, tag);
        EXPECT_EQ(r.cores, 1u) << tag;
        ASSERT_EQ(r.perCore.size(), 1u) << tag;
        EXPECT_EQ(r.perCore[0].cycles, g.cycles) << tag;
        EXPECT_EQ(r.perCore[0].instructions, g.instructions) << tag;
    }
}

/** One pinned L1 design: goldenConfig() plus the knobs that select it. */
struct DesignGoldenRow
{
    const char *name;
    InsertionPolicy policy;
    unsigned cores;
    CoherenceKind fabric;
    double wpAccuracy;
    GoldenRow golden;
};

// Captured before the L1 designs were collapsed onto one skeleton
// (parent of the change that made PIPT a VIPT constructed at the
// serial-TLB latency). Every field must reproduce exactly.
const DesignGoldenRow kDesignGolden[] = {
    {"pipt", InsertionPolicy::FourWay, 1, CoherenceKind::Directory, 0,
     {L1Kind::Pipt, 1ULL, 60000ULL, 42414ULL, 1.4146272457207525,
      21856ULL, 20031ULL, 1825ULL, 0ULL, 1825ULL, 1199ULL, 16ULL, 0ULL,
      0ULL, 0ULL, 5784.5598564263883, 1, 1825ULL, 2700ULL, 2459ULL}},
    {"sipt", InsertionPolicy::FourWay, 1, CoherenceKind::Directory, 0,
     {L1Kind::Sipt, 1ULL, 60000ULL, 44929ULL, 1.3354403614591912,
      21856ULL, 19555ULL, 2301ULL, 0ULL, 2301ULL, 1199ULL, 16ULL, 0ULL,
      0ULL, 0ULL, 5476.0113436091387, 1, 2301ULL, 2700ULL, 2367ULL}},
    {"vipt_wp", InsertionPolicy::FourWay, 1, CoherenceKind::Directory,
     0.76534746976205714,
     {L1Kind::ViptWayPredicted, 1ULL, 60000ULL, 43052ULL,
      1.39366347672582, 21856ULL, 20031ULL, 1825ULL, 0ULL, 1825ULL,
      1199ULL, 16ULL, 0ULL, 0ULL, 0ULL, 5029.2393239109988, 1, 1825ULL,
      2700ULL, 2459ULL}},
    {"seesaw_wp", InsertionPolicy::FourWay, 1, CoherenceKind::Directory,
     0.81363677908783472,
     {L1Kind::SeesawWayPredicted, 1ULL, 60000ULL, 42649ULL,
      1.4068325165889002, 21856ULL, 19775ULL, 2081ULL, 21851ULL,
      2081ULL, 1199ULL, 16ULL, 21856ULL, 21851ULL, 21856ULL,
      5059.2234333456863, 1, 2081ULL, 2700ULL, 2445ULL}},
    {"seesaw_4way8way", InsertionPolicy::FourWayEightWay, 1,
     CoherenceKind::Directory, 0,
     {L1Kind::Seesaw, 1ULL, 60000ULL, 40666ULL, 1.4754340235085821,
      21856ULL, 19775ULL, 2081ULL, 21851ULL, 2081ULL, 1199ULL, 16ULL,
      21856ULL, 21851ULL, 21856ULL, 5362.0598116149977, 1, 2081ULL,
      2700ULL, 2445ULL}},
    {"seesaw_snoopy_4c", InsertionPolicy::FourWay, 4,
     CoherenceKind::Snoopy, 0,
     {L1Kind::Seesaw, 1ULL, 240000ULL, 109160ULL, 2.1986075485525833,
      87436ULL, 73022ULL, 14414ULL, 87418ULL, 7741ULL, 5172ULL, 1481ULL,
      87436ULL, 87418ULL, 87436ULL, 41461.716045505658, 1, 14414ULL,
      53772ULL, 15009ULL}},
};

TEST(SimEngineGolden, EveryL1DesignIsPinned)
{
    for (const DesignGoldenRow &d : kDesignGolden) {
        SystemConfig cfg = goldenConfig(d.golden.kind, d.golden.seed);
        cfg.policy = d.policy;
        cfg.cores = d.cores;
        cfg.fabric = d.fabric;
        const RunResult r = SimEngine(cfg, goldenWorkload()).run();

        expectGolden(r, d.golden, d.name);
        EXPECT_EQ(r.wpAccuracy, d.wpAccuracy) << d.name; // exact
        EXPECT_EQ(r.cores, d.cores) << d.name;
    }
}

TEST(SimEngineSeeds, CoreZeroKeepsTheConfigSeed)
{
    EXPECT_EQ(SimEngine::coreSeed(42, 0), 42u);
    EXPECT_EQ(SimEngine::coreSeed(0xdeadbeef, 0), 0xdeadbeefULL);
}

TEST(SimEngineSeeds, AdjacentCoreSeedsAvalanche)
{
    // Regression for the old `seed ^ (0x7ead0 + c)` scheme, where
    // adjacent cores' seeds differed in one or two low bits. The
    // SplitMix64 finalizer must flip about half the bits.
    for (std::uint64_t seed : {1ULL, 5ULL, 0x123456789abcdefULL}) {
        for (unsigned c = 1; c < 16; ++c) {
            const std::uint64_t a = SimEngine::coreSeed(seed, c);
            const std::uint64_t b = SimEngine::coreSeed(seed, c + 1);
            const int flipped = std::popcount(a ^ b);
            EXPECT_GE(flipped, 16) << "seed " << seed << " core " << c;
            EXPECT_LE(flipped, 48) << "seed " << seed << " core " << c;
            EXPECT_NE(a, seed);
        }
    }
}

TEST(SimEngineSeeds, AdjacentCoreReferenceStreamsAreUncorrelated)
{
    // Two cores walk the same workload (same heap, same hot set), but
    // their private-access sequences must not be phase-locked: count
    // position-wise VA collisions over a window.
    const WorkloadSpec w = goldenWorkload();
    const Addr heap_base = Addr{1} << 40;
    const std::uint64_t seed = 5;
    ReferenceStream s1(w, heap_base,
                       SimEngine::coreSeed(seed, 1) ^ 0x57ea0ULL, 1);
    ReferenceStream s2(w, heap_base,
                       SimEngine::coreSeed(seed, 2) ^ 0x57ea0ULL, 2);
    const int n = 4096;
    int same = 0;
    for (int i = 0; i < n; ++i)
        same += s1.next().va == s2.next().va ? 1 : 0;
    // Shared-region references may collide by chance; lockstep streams
    // would collide at nearly 100%.
    EXPECT_LT(same, n / 20);
}

TEST(SimEngineConfig, MultiCoreHonorsTftAssoc)
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.instructions = 2'000;
    cfg.warmupInstructions = 0;
    cfg.os.memBytes = 512ULL << 20;
    cfg.tftAssoc = 4;
    SimEngine engine(cfg, goldenWorkload());
    for (unsigned c = 0; c < 4; ++c) {
        ASSERT_NE(engine.seesawL1(c), nullptr);
        EXPECT_EQ(engine.seesawL1(c)->tft().assoc(), 4u) << c;
    }
}

TEST(SimEngineConfig, MultiCoreHonorsWarmupInstructions)
{
    WorkloadSpec w = goldenWorkload();
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.instructions = 20'000;
    cfg.warmupInstructions = 0;
    cfg.os.memBytes = 512ULL << 20;
    const RunResult cold = SimEngine(cfg, w).run();
    cfg.warmupInstructions = 20'000;
    const RunResult warm = SimEngine(cfg, w).run();

    // Both runs measure exactly the per-core budget...
    for (const PerCoreResult &pc : cold.perCore)
        EXPECT_GE(pc.instructions, 20'000u);
    for (const PerCoreResult &pc : warm.perCore)
        EXPECT_GE(pc.instructions, 20'000u);
    // ...but warmed caches measurably change the measured window.
    EXPECT_NE(cold.cycles, warm.cycles);
    EXPECT_LT(warm.l1Misses, cold.l1Misses);
}

TEST(SimEngineConfig, MultiCoreHonorsCoreKind)
{
    WorkloadSpec w = goldenWorkload();
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.instructions = 10'000;
    cfg.warmupInstructions = 2'000;
    cfg.os.memBytes = 512ULL << 20;
    cfg.coreKind = CoreKind::InOrder;
    const RunResult inorder = SimEngine(cfg, w).run();
    cfg.coreKind = CoreKind::OutOfOrder;
    const RunResult ooo = SimEngine(cfg, w).run();

    // In-order pipelines have no speculative wakeup to squash, and
    // expose latencies the OoO window hides.
    EXPECT_EQ(inorder.squashes, 0u);
    EXPECT_GT(inorder.cycles, ooo.cycles);
}

} // namespace
} // namespace seesaw
