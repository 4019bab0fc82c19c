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
 *    bit, so the shared L1 skeleton cannot drift any of them;
 *  - the unified L1 TLB (32/64 entries, VIPT and SEESAW, in-order,
 *    Random victims) and a split hierarchy over a 1GB-page heap are
 *    pinned the same way, with the TLB hierarchy's hit/walk counters;
 *  - FIFO, SRRIP and Random victims, an associative TFT and the
 *    4way-8way insertion policy under base-page pressure are pinned
 *    the same way;
 *  - 4-core runs under the exact MOESI directory are pinned with the
 *    fabric's and the directory's own counters;
 *  - the L1I fetch path (VIPT and SEESAW) and a trace whose every
 *    region is demand paged are pinned with the L1I and page-fault
 *    counters, which no other row moves.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "demand_trace.hh"
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

/** The unified-TLB rows' load: an 8x larger heap on a host half
 *  fragmented by memhog, so the L1 TLB misses, evicts and refills
 *  4KB and 2MB entries side by side. */
void
tlbPressure(SystemConfig &c, WorkloadSpec &w)
{
    w.footprintBytes = 256ULL << 20;
    w.hotSetBytes = 32ULL << 20;
    c.memhogFraction = 0.5;
}

/** One pinned L1 TLB organisation: goldenConfig() and goldenWorkload()
 *  as @c configure leaves them, plus the hierarchy's own counters. */
struct TlbGoldenRow
{
    const char *name;
    void (*configure)(SystemConfig &, WorkloadSpec &);
    std::uint64_t l1TlbHits;
    std::uint64_t l2TlbHits;
    std::uint64_t walks;
    GoldenRow golden;
};

// Captured before the unified L1 TLB became a fully-associative Tlb.
// The Random row draws TLB victims from the unified TLB's own seed
// salt; the 1GB-heap row hits only the split 1GB L1 TLB, so SEESAW's
// fast path depends on its 2MB-region marks.
const TlbGoldenRow kTlbGolden[] = {
    {"unified32_vipt",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.unifiedL1Tlb = true;
         c.unifiedL1TlbEntries = 32;
     },
     31969ULL, 588ULL, 266ULL,
     {ViptKind, 1ULL, 60000ULL, 59037ULL, 1.0163118044616088, 21856ULL,
      19958ULL, 1898ULL, 0ULL, 1898ULL, 1268ULL, 195ULL, 0ULL, 0ULL,
      0ULL, 11675.569251915596, 0.1796875, 1898ULL, 2700ULL, 2441ULL}},
    {"unified32_seesaw",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.unifiedL1Tlb = true;
         c.unifiedL1TlbEntries = 32;
     },
     31969ULL, 588ULL, 266ULL,
     {SeesawKind, 1ULL, 60000ULL, 61271ULL, 0.97925609178893769,
      21856ULL, 19925ULL, 1931ULL, 17810ULL, 1931ULL, 1268ULL, 195ULL,
      21856ULL, 17810ULL, 17875ULL, 11425.843504683937, 0.1796875,
      1931ULL, 2700ULL, 2463ULL}},
    {"unified64_vipt",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.unifiedL1Tlb = true;
         c.unifiedL1TlbEntries = 64;
     },
     32376ULL, 182ULL, 265ULL,
     {ViptKind, 1ULL, 60000ULL, 56371ULL, 1.0643770733178408, 21856ULL,
      19958ULL, 1898ULL, 0ULL, 1898ULL, 1268ULL, 195ULL, 0ULL, 0ULL,
      0ULL, 11484.243838381784, 0.1796875, 1898ULL, 2700ULL, 2441ULL}},
    {"unified64_seesaw",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.unifiedL1Tlb = true;
         c.unifiedL1TlbEntries = 64;
     },
     32376ULL, 182ULL, 265ULL,
     {SeesawKind, 1ULL, 60000ULL, 56742ULL, 1.0574177857671565,
      21856ULL, 19925ULL, 1931ULL, 17810ULL, 1931ULL, 1268ULL, 195ULL,
      21856ULL, 17810ULL, 17875ULL, 11121.057188894549, 0.1796875,
      1931ULL, 2700ULL, 2463ULL}},
    {"unified64_seesaw_inorder",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.unifiedL1Tlb = true;
         c.coreKind = CoreKind::InOrder;
     },
     32376ULL, 182ULL, 265ULL,
     {SeesawKind, 1ULL, 60000ULL, 92194ULL, 0.65080157060112376,
      21856ULL, 19925ULL, 1931ULL, 17810ULL, 1931ULL, 1268ULL, 195ULL,
      21856ULL, 17810ULL, 17875ULL, 13280.163955811844, 0.1796875, 0ULL,
      2700ULL, 2463ULL}},
    {"unified64_seesaw_random",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.unifiedL1Tlb = true;
         c.replacement.kind = ReplacementKind::Random;
     },
     32125ULL, 429ULL, 269ULL,
     {SeesawKind, 1ULL, 60000ULL, 61344ULL, 0.97809076682316121,
      21856ULL, 19678ULL, 2178ULL, 17810ULL, 2178ULL, 1268ULL, 195ULL,
      21856ULL, 17810ULL, 17875ULL, 11599.527769345519, 0.1796875,
      2178ULL, 2700ULL, 2348ULL}},
    {"split_seesaw_1gb_heap",
     [](SystemConfig &c, WorkloadSpec &) {
         // 1GB pages are reserved at boot, before kernel allocations
         // fragment gigabyte contiguity.
         c.useOneGbHeap = true;
         c.os.memBytes = 4ULL << 30;
         c.os.kernelReservedFraction = 0.0;
         c.os.pollutedRegionFraction = 0.0;
     },
     32822ULL, 0ULL, 1ULL,
     {SeesawKind, 1ULL, 60000ULL, 40451ULL, 1.4832760623964798,
      21856ULL, 19775ULL, 2081ULL, 21851ULL, 2081ULL, 1199ULL, 16ULL,
      21856ULL, 21851ULL, 21856ULL, 5225.2234461996495, 1, 2081ULL,
      2700ULL, 2445ULL}},
};

TEST(SimEngineGolden, EveryTlbOrganisationIsPinned)
{
    for (const TlbGoldenRow &t : kTlbGolden) {
        SystemConfig cfg = goldenConfig(t.golden.kind, t.golden.seed);
        WorkloadSpec w = goldenWorkload();
        t.configure(cfg, w);
        SimEngine engine(cfg, w);
        const RunResult r = engine.run();

        expectGolden(r, t.golden, t.name);
        const StatGroup &tlb = engine.complex(0).tlb().stats();
        EXPECT_EQ(tlb.get("l1_hits"), static_cast<double>(t.l1TlbHits))
            << t.name;
        EXPECT_EQ(tlb.get("l2_hits"), static_cast<double>(t.l2TlbHits))
            << t.name;
        EXPECT_EQ(tlb.get("walks"), static_cast<double>(t.walks))
            << t.name;
    }
}

// Captured before the tag stores, TLBs and TFT were rebuilt on one
// set-associative table. Each non-LRU policy runs SEESAW with every
// structure drawing its victims from that policy; the TFT rows put 128
// superpage regions through an associative 16-entry TFT; the 4way8way
// rows mix base-page fills drawn from the whole set with
// partition-scoped superpage fills.
const TlbGoldenRow kPolicyGolden[] = {
    {"seesaw_fifo",
     [](SystemConfig &c, WorkloadSpec &) {
         c.replacement.kind = ReplacementKind::Fifo;
     },
     32812ULL, 0ULL, 11ULL,
     {SeesawKind, 1ULL, 60000ULL, 42882ULL, 1.3991884706870015,
      21856ULL, 19578ULL, 2278ULL, 21851ULL, 2278ULL, 1199ULL, 16ULL,
      21856ULL, 21851ULL, 21856ULL, 5557.3952296583011, 1, 2278ULL,
      2700ULL, 2391ULL}},
    {"seesaw_srrip",
     [](SystemConfig &c, WorkloadSpec &) {
         c.replacement.kind = ReplacementKind::Srrip;
     },
     32812ULL, 0ULL, 11ULL,
     {SeesawKind, 1ULL, 60000ULL, 39237ULL, 1.5291688967046411,
      21856ULL, 19902ULL, 1954ULL, 21851ULL, 1954ULL, 1199ULL, 16ULL,
      21856ULL, 21851ULL, 21856ULL, 5164.1737078538154, 1, 1954ULL,
      2700ULL, 2447ULL}},
    {"seesaw_random",
     [](SystemConfig &c, WorkloadSpec &) {
         c.replacement.kind = ReplacementKind::Random;
     },
     32812ULL, 0ULL, 11ULL,
     {SeesawKind, 1ULL, 60000ULL, 41858ULL, 1.4334177457116919,
      21856ULL, 19669ULL, 2187ULL, 21851ULL, 2187ULL, 1199ULL, 16ULL,
      21856ULL, 21851ULL, 21856ULL, 5459.276119883868, 1, 2187ULL,
      2700ULL, 2372ULL}},
    {"tft16x4_lru",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.tftAssoc = 4;
     },
     32491ULL, 66ULL, 266ULL,
     {SeesawKind, 1ULL, 60000ULL, 57851ULL, 1.0371471538953518,
      21856ULL, 19925ULL, 1931ULL, 17873ULL, 1931ULL, 1268ULL, 195ULL,
      21856ULL, 17873ULL, 17875ULL, 11197.108468187749, 0.1796875,
      1931ULL, 2700ULL, 2463ULL}},
    {"tft16x16_random",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.tftAssoc = 16;
         c.replacement.kind = ReplacementKind::Random;
     },
     32436ULL, 119ULL, 268ULL,
     {SeesawKind, 1ULL, 60000ULL, 61037ULL, 0.98301030522469979,
      21856ULL, 19678ULL, 2178ULL, 17873ULL, 2178ULL, 1268ULL, 195ULL,
      21856ULL, 17873ULL, 17875ULL, 11554.061454653762, 0.1796875,
      2178ULL, 2700ULL, 2348ULL}},
    {"seesaw_4way8way",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.policy = InsertionPolicy::FourWayEightWay;
     },
     32491ULL, 66ULL, 266ULL,
     {SeesawKind, 1ULL, 60000ULL, 57485ULL, 1.0437505436200749,
      21856ULL, 19964ULL, 1892ULL, 17810ULL, 1892ULL, 1268ULL, 195ULL,
      21856ULL, 17810ULL, 17875ULL, 11216.990745287316, 0.1796875,
      1892ULL, 2700ULL, 2466ULL}},
    {"seesaw_4way8way_random",
     [](SystemConfig &c, WorkloadSpec &w) {
         tlbPressure(c, w);
         c.policy = InsertionPolicy::FourWayEightWay;
         c.replacement.kind = ReplacementKind::Random;
     },
     32436ULL, 119ULL, 268ULL,
     {SeesawKind, 1ULL, 60000ULL, 60540ULL, 0.99108027750247774,
      21856ULL, 19729ULL, 2127ULL, 17810ULL, 2127ULL, 1268ULL, 195ULL,
      21856ULL, 17810ULL, 17875ULL, 11561.9527362646, 0.1796875,
      2127ULL, 2700ULL, 2396ULL}},
};

TEST(SimEngineGolden, EveryReplacementPolicyIsPinned)
{
    for (const TlbGoldenRow &t : kPolicyGolden) {
        SystemConfig cfg = goldenConfig(t.golden.kind, t.golden.seed);
        WorkloadSpec w = goldenWorkload();
        t.configure(cfg, w);
        SimEngine engine(cfg, w);
        const RunResult r = engine.run();
        expectGolden(r, t.golden, t.name);
        const StatGroup &tlb = engine.complex(0).tlb().stats();
        EXPECT_EQ(tlb.get("l1_hits"), static_cast<double>(t.l1TlbHits))
            << t.name;
        EXPECT_EQ(tlb.get("l2_hits"), static_cast<double>(t.l2TlbHits))
            << t.name;
        EXPECT_EQ(tlb.get("walks"), static_cast<double>(t.walks))
            << t.name;
    }
}

/** One pinned single-core path that no other row reaches:
 *  goldenConfig() as @c configure leaves it, plus the
 *  instruction-cache and demand-paging counters. */
struct PathGoldenRow
{
    const char *name;
    void (*configure)(SystemConfig &);
    std::uint64_t l1iAccesses;
    std::uint64_t l1iMisses;
    std::uint64_t pageFaults;
    GoldenRow golden;
};

// Captured when these paths were first pinned. The L1I rows fetch
// through an L1I of the L1D's design; the trace row replays
// test::writeDemandFaultingTrace(), whose every 2MB region faults on
// first touch, with no warmup so the faults land in the window.
const PathGoldenRow kPathGolden[] = {
    {"icache_vipt",
     [](SystemConfig &c) {
         c.modelInstructionCache = true;
     },
     15000ULL, 2442ULL, 0ULL,
     {ViptKind, 1ULL, 60000ULL, 51548ULL, 1.1639636843330488, 21856ULL,
      20031ULL, 1825ULL, 0ULL, 4267ULL, 2408ULL, 53ULL, 0ULL, 0ULL, 0ULL,
      9279.3384416705194, 1, 1825ULL, 2700ULL, 2459ULL}},
    {"icache_seesaw",
     [](SystemConfig &c) {
         c.modelInstructionCache = true;
     },
     15000ULL, 2488ULL, 0ULL,
     {SeesawKind, 1ULL, 60000ULL, 52707ULL, 1.1383687176276396,
      21856ULL, 19775ULL, 2081ULL, 21851ULL, 4569ULL, 2402ULL, 53ULL,
      21856ULL, 21851ULL, 21856ULL, 8690.2212634490352, 1, 2081ULL,
      2700ULL, 2445ULL}},
    {"trace_demand_faults_seesaw",
     [](SystemConfig &c) {
         c.tracePath = test::writeDemandFaultingTrace("golden_wild.trace");
         c.warmupInstructions = 0;
     },
     0ULL, 0ULL, 64ULL,
     {SeesawKind, 1ULL, 60000ULL, 388815ULL, 0.1543150341422013, 5455ULL,
      322ULL, 5133ULL, 0ULL, 5133ULL, 5119ULL, 3939ULL, 5455ULL, 0ULL,
      5115ULL, 84083.920132499421, 0.94999999999999996, 5133ULL,
      2699ULL, 327ULL}},
};

TEST(SimEngineGolden, InstructionCacheAndDemandFaultingTraceArePinned)
{
    for (const PathGoldenRow &p : kPathGolden) {
        SystemConfig cfg = goldenConfig(p.golden.kind, p.golden.seed);
        p.configure(cfg);
        const RunResult r = SimEngine(cfg, goldenWorkload()).run();
        if (!cfg.tracePath.empty())
            std::remove(cfg.tracePath.c_str());

        expectGolden(r, p.golden, p.name);
        EXPECT_EQ(r.l1iAccesses, p.l1iAccesses) << p.name;
        EXPECT_EQ(r.l1iMisses, p.l1iMisses) << p.name;
        EXPECT_EQ(r.pageFaults, p.pageFaults) << p.name;
    }
}

/** One pinned 4-core directory run: the RunResult fields, the
 *  fabric's invalidation and owner-supply counts, and the exact
 *  directory's own counters. */
struct DirectoryGoldenRow
{
    const char *name;
    const char *workload;
    std::uint64_t l1SizeBytes;
    unsigned l1Assoc;
    std::uint64_t probeInvalidations;
    std::uint64_t ownerSupplies;
    std::uint64_t ownerDowngrades;
    std::uint64_t exclusiveDowngrades;
    std::uint64_t writeInvalidations;
    std::uint64_t directoryFills;
    std::uint64_t directoryEvictions;
    GoldenRow golden;
};

// Captured before the directory became an open-addressed table and the
// tag stores a packed key array. The SEESAW rows are the benchmark's
// multicore_dir cells (64KB/16-way over tunk and olio); the VIPT row
// probes every way of the set.
const DirectoryGoldenRow kDirectoryGolden[] = {
    {"seesaw64k_tunk", "tunk", 64 * 1024, 16, 6309ULL, 7842ULL, 8772ULL,
     487ULL, 4558ULL, 31738ULL, 6243ULL,
     {SeesawKind, 1ULL, 240000ULL, 92563ULL, 2.5928286680423063,
      72464ULL, 59884ULL, 12580ULL, 72093ULL, 6150ULL, 5187ULL, 1366ULL,
      72464ULL, 72093ULL, 72464ULL, 36186.062258370031,
      0.97916666666666663, 12580ULL, 12591ULL, 12591ULL}},
    {"seesaw64k_olio", "olio", 64 * 1024, 16, 6227ULL, 7767ULL, 7993ULL,
     362ULL, 5915ULL, 47181ULL, 8813ULL,
     {SeesawKind, 1ULL, 240000ULL, 105851ULL, 2.2673380506561109,
      72506ULL, 58222ULL, 14284ULL, 70753ULL, 7974ULL, 6258ULL, 1964ULL,
      72506ULL, 70753ULL, 71781ULL, 47293.114831427098,
      0.97916666666666663, 14284ULL, 11885ULL, 11885ULL}},
    {"vipt32k_tunk", "tunk", 32 * 1024, 8, 6145ULL, 7632ULL, 8598ULL,
     492ULL, 4473ULL, 32318ULL, 9053ULL,
     {ViptKind, 1ULL, 240000ULL, 95499ULL, 2.5131153205792729, 72464ULL,
      59270ULL, 13194ULL, 0ULL, 6937ULL, 5377ULL, 1366ULL, 0ULL, 0ULL,
      0ULL, 38179.421769221713, 0.97916666666666663, 13194ULL, 12284ULL,
      12284ULL}},
};

TEST(SimEngineGolden, DirectoryFabricIsPinned)
{
    for (const DirectoryGoldenRow &d : kDirectoryGolden) {
        SystemConfig cfg = goldenConfig(d.golden.kind, d.golden.seed);
        cfg.cores = 4;
        cfg.fabric = CoherenceKind::Directory;
        cfg.l1SizeBytes = d.l1SizeBytes;
        cfg.l1Assoc = d.l1Assoc;
        SimEngine engine(cfg, findWorkload(d.workload));
        const RunResult r = engine.run();

        expectGolden(r, d.golden, d.name);
        EXPECT_EQ(r.cores, 4u) << d.name;
        EXPECT_EQ(r.probeInvalidations, d.probeInvalidations) << d.name;
        EXPECT_EQ(r.ownerSupplies, d.ownerSupplies) << d.name;
        const ExactDirectory *dir = engine.directory();
        ASSERT_NE(dir, nullptr) << d.name;
        EXPECT_EQ(dir->ownerDowngrades(), d.ownerDowngrades) << d.name;
        EXPECT_EQ(dir->exclusiveDowngrades(), d.exclusiveDowngrades)
            << d.name;
        EXPECT_EQ(dir->writeInvalidations(), d.writeInvalidations)
            << d.name;
        EXPECT_EQ(dir->fills(), d.directoryFills) << d.name;
        EXPECT_EQ(dir->evictions(), d.directoryEvictions) << d.name;
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
