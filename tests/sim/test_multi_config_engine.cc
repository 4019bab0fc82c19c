/**
 * @file
 * MultiConfigEngine one-pass tests:
 *  - an N-substrate pass is bit-identical to N serial SimEngine runs
 *    across all six L1 designs, mixed cache geometries over one shared
 *    TLB hierarchy, replacement and prefetch substrates (one pass per
 *    replacement kind), the L1I extension, a demand-faulting trace
 *    and multi-core coherence;
 *  - every substrate leaf of SystemConfig has an alternate value that
 *    shares the base's pass and matches its solo run, so a front end
 *    that read such a leaf fails; configs that differ in a front-end
 *    leaf, TLB geometry and replacement included, cannot share one;
 *  - OS events (promotion, splinter, unmap) broadcast to every
 *    substrate;
 *  - a desynced substrate trips its own src/check audit context while
 *    the healthy substrate stays clean.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "check/invariant_auditor.hh"
#include "config_leaves.hh"
#include "demand_trace.hh"
#include "sim/multi_config_engine.hh"
#include "sim/sim_engine.hh"

namespace seesaw {
namespace {

WorkloadSpec
testWorkload()
{
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 32ULL << 20;
    w.hotSetBytes = 2ULL << 20;
    return w;
}

SystemConfig
baseConfig(L1Kind kind)
{
    SystemConfig cfg;
    cfg.l1Kind = kind;
    cfg.instructions = 40'000;
    cfg.warmupInstructions = 20'000;
    cfg.os.memBytes = 1ULL << 30;
    cfg.seed = 1;
    return cfg;
}

/** Full-structure equality with a readable first-divergence report. */
void
expectSameResult(const RunResult &one_pass, const RunResult &serial,
                 const std::string &label)
{
    EXPECT_EQ(one_pass.instructions, serial.instructions) << label;
    EXPECT_EQ(one_pass.cycles, serial.cycles) << label;
    EXPECT_EQ(one_pass.l1Accesses, serial.l1Accesses) << label;
    EXPECT_EQ(one_pass.l1Hits, serial.l1Hits) << label;
    EXPECT_EQ(one_pass.l1Misses, serial.l1Misses) << label;
    EXPECT_EQ(one_pass.tftLookups, serial.tftLookups) << label;
    EXPECT_EQ(one_pass.tftHits, serial.tftHits) << label;
    EXPECT_EQ(one_pass.dramAccesses, serial.dramAccesses) << label;
    EXPECT_EQ(one_pass.squashes, serial.squashes) << label;
    EXPECT_EQ(one_pass.probes, serial.probes) << label;
    EXPECT_EQ(one_pass.promotions, serial.promotions) << label;
    EXPECT_EQ(one_pass.splinters, serial.splinters) << label;
    EXPECT_EQ(one_pass.energyTotalNj, serial.energyTotalNj) << label;
    EXPECT_EQ(one_pass.ipc, serial.ipc) << label;
    // ... and every remaining field, doubles included.
    EXPECT_TRUE(one_pass == serial) << label;
}

/** @return the one-pass results, each checked against its solo run;
 *  @p labels, when given, names each config in failure messages. */
std::vector<RunResult>
expectOnePassMatchesSerial(const std::vector<SystemConfig> &configs,
                           const WorkloadSpec &workload,
                           const std::vector<std::string> &labels = {})
{
    MultiConfigEngine engine(configs, workload);
    const std::vector<RunResult> one_pass = engine.run();
    if (one_pass.size() != configs.size()) {
        ADD_FAILURE() << one_pass.size() << " results for "
                      << configs.size() << " configs";
        return one_pass;
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const RunResult serial =
            SimEngine(configs[i], workload).run();
        expectSameResult(one_pass[i], serial,
                         "substrate " + std::to_string(i) +
                             (i < labels.size() ? " " + labels[i] : ""));
    }
    return one_pass;
}

TEST(MultiConfigEngine, BitIdenticalAcrossAllSixL1Designs)
{
    std::vector<SystemConfig> configs;
    for (L1Kind kind :
         {L1Kind::ViptBaseline, L1Kind::Pipt, L1Kind::Seesaw,
          L1Kind::ViptWayPredicted, L1Kind::SeesawWayPredicted,
          L1Kind::Sipt})
        configs.push_back(baseConfig(kind));
    expectOnePassMatchesSerial(configs, testWorkload());
}

TEST(MultiConfigEngine, MixedCacheGeometriesShareOneTlb)
{
    // Five substrates spanning L1 designs, sizes, partition widths,
    // insertion and scheduler-counter policies, frequencies and PIPT
    // TLB latencies: all of them look up through the first
    // substrate's TLB hierarchy.
    std::vector<SystemConfig> configs;

    SystemConfig a = baseConfig(L1Kind::Seesaw);
    a.l1SizeBytes = 64 * 1024;
    a.l1Assoc = 16;
    a.partitionWays = 8;
    configs.push_back(a);

    SystemConfig b = baseConfig(L1Kind::Seesaw);
    b.partitionWays = 2;
    b.policy = InsertionPolicy::FourWayEightWay;
    configs.push_back(b);

    SystemConfig c = baseConfig(L1Kind::Seesaw);
    c.schedulerCounterPolicy = false;
    configs.push_back(c);

    SystemConfig d = baseConfig(L1Kind::ViptBaseline);
    d.freqGhz = 2.80;
    configs.push_back(d);

    SystemConfig e = baseConfig(L1Kind::Pipt);
    e.piptTlbCycles = 3;
    configs.push_back(e);

    expectOnePassMatchesSerial(configs, testWorkload());

    MultiConfigEngine engine(configs, testWorkload());
    ASSERT_EQ(engine.substrates(), configs.size());
    for (unsigned s = 0; s < engine.substrates(); ++s) {
        EXPECT_EQ(&engine.tlb(s), &engine.complex(0).tlb())
            << "substrate " << s;
    }

    // One substrate looks up through its own hierarchy.
    SimEngine solo(a, testWorkload());
    EXPECT_EQ(&solo.complex(0).activeTlb(), &solo.complex(0).tlb());
}

TEST(MultiConfigEngine, InstructionCachePathIsBitIdentical)
{
    WorkloadSpec w = testWorkload();
    w.codeFootprintBytes = 8ULL << 20;

    std::vector<SystemConfig> configs;
    for (L1Kind kind : {L1Kind::Seesaw, L1Kind::ViptBaseline}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.modelInstructionCache = true;
        configs.push_back(cfg);
    }
    // A SEESAW L1D with a forced-VIPT L1I exercises the
    // keep-code-out-of-the-D-TFT routing.
    SystemConfig mixed = baseConfig(L1Kind::Seesaw);
    mixed.modelInstructionCache = true;
    mixed.icacheKind = SystemConfig::ICacheKind::Vipt;
    configs.push_back(mixed);

    expectOnePassMatchesSerial(configs, w);
}

TEST(MultiConfigEngine, DemandFaultingTraceIsBitIdentical)
{
    // The substrates share the trace reader and the demand-paging map
    // in the front end; with no warmup every fault lands in the window.
    const std::string path =
        test::writeDemandFaultingTrace("one_pass_wild.trace");
    std::vector<SystemConfig> configs;
    for (L1Kind kind : {L1Kind::ViptBaseline, L1Kind::Seesaw}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.tracePath = path;
        cfg.warmupInstructions = 0;
        configs.push_back(cfg);
    }
    configs.push_back(configs.back());
    configs.back().policy = InsertionPolicy::FourWayEightWay;

    const std::vector<RunResult> results = expectOnePassMatchesSerial(
        configs, testWorkload(), {"vipt", "seesaw", "seesaw_4way8way"});
    for (const RunResult &r : results)
        EXPECT_GT(r.pageFaults, 0u);
    std::remove(path.c_str());
}

TEST(MultiConfigEngine, MultiCoreCoherentFabricsStayIndependent)
{
    WorkloadSpec w = testWorkload();
    std::vector<SystemConfig> configs;
    for (L1Kind kind : {L1Kind::Seesaw, L1Kind::ViptBaseline}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.cores = 2;
        cfg.fabric = CoherenceKind::Directory;
        configs.push_back(cfg);
    }
    expectOnePassMatchesSerial(configs, w);
}

TEST(MultiConfigEngine, PolicyAndPrefetchSubstratesStayBitIdentical)
{
    // Replacement is front end (the shared TLBs own victim
    // side-state), so each kind runs its own pass; within it,
    // substrates differing in prefetcher and L1 design share the
    // front end, and every one must match its solo run exactly.
    for (ReplacementKind rk :
         {ReplacementKind::Lru, ReplacementKind::Fifo,
          ReplacementKind::Random, ReplacementKind::Srrip}) {
        std::vector<SystemConfig> configs;
        for (PrefetchKind pk :
             {PrefetchKind::None, PrefetchKind::NextLine,
              PrefetchKind::Stride}) {
            SystemConfig cfg = baseConfig(L1Kind::Seesaw);
            cfg.replacement.kind = rk;
            cfg.prefetch.kind = pk;
            configs.push_back(cfg);
        }
        SystemConfig combo = baseConfig(L1Kind::ViptBaseline);
        combo.replacement.kind = rk;
        combo.prefetch.kind = PrefetchKind::NextLine;
        configs.push_back(combo);

        SCOPED_TRACE("replacement kind " +
                     std::to_string(static_cast<int>(rk)));
        expectOnePassMatchesSerial(configs, testWorkload());
    }
}

TEST(MultiConfigEngine, RandomAndPrefetchAtFourCoresStayBitIdentical)
{
    // Four cores under the directory fabric, one pass per replacement
    // kind with and without next-line prefetch: the per-core seed
    // derivation (coreSeed ^ salt) and the prefetch fills' coherence
    // transitions must replicate exactly between shared and solo
    // execution.
    WorkloadSpec w = testWorkload();
    for (ReplacementKind rk :
         {ReplacementKind::Lru, ReplacementKind::Random}) {
        std::vector<SystemConfig> configs;
        for (PrefetchKind pk : {PrefetchKind::None, PrefetchKind::NextLine}) {
            SystemConfig cfg = baseConfig(L1Kind::Seesaw);
            cfg.cores = 4;
            cfg.fabric = CoherenceKind::Directory;
            cfg.replacement.kind = rk;
            cfg.prefetch.kind = pk;
            configs.push_back(cfg);
        }
        SCOPED_TRACE("replacement kind " +
                     std::to_string(static_cast<int>(rk)));
        expectOnePassMatchesSerial(configs, w);
    }
}

/** A base that exercises every shared front-end path: memhog
 *  fragmentation, promotions, splinters and context switches inside
 *  the window, and a SEESAW L1I beside the SEESAW L1D. */
SystemConfig
richBase(unsigned cores)
{
    SystemConfig cfg = baseConfig(L1Kind::Seesaw);
    cfg.modelInstructionCache = true;
    cfg.memhogFraction = 0.3;
    cfg.promotionInterval = 8'000;
    cfg.splinterInterval = 20'000;
    cfg.contextSwitchInterval = 12'000;
    cfg.instructions = 40'000;
    cfg.warmupInstructions = 10'000;
    cfg.cores = cores;
    cfg.fabric = CoherenceKind::Directory;
    return cfg;
}

/** One valid non-default value for a substrate leaf.
 *  Some leaves only take effect, or only stay valid, together with
 *  another: SEESAW needs sets x 64B = 4KB, so size and associativity
 *  move together, and design-specific knobs select their design. */
struct Alternate
{
    const char *leaf;
    void (*apply)(SystemConfig &);
};

const Alternate kAlternates[] = {
    {"l1Kind",
     [](SystemConfig &c) { c.l1Kind = L1Kind::ViptBaseline; }},
    {"l1SizeBytes",
     [](SystemConfig &c) {
         c.l1SizeBytes = 64 * 1024;
         c.l1Assoc = 16;
     }},
    {"l1Assoc",
     [](SystemConfig &c) {
         c.l1SizeBytes = 16 * 1024;
         c.l1Assoc = 4;
     }},
    {"partitionWays", [](SystemConfig &c) { c.partitionWays = 2; }},
    {"freqGhz", [](SystemConfig &c) { c.freqGhz = 2.80; }},
    {"policy",
     [](SystemConfig &c) { c.policy = InsertionPolicy::FourWayEightWay; }},
    {"tftEntries", [](SystemConfig &c) { c.tftEntries = 32; }},
    {"tftAssoc", [](SystemConfig &c) { c.tftAssoc = 4; }},
    {"piptTlbCycles",
     [](SystemConfig &c) {
         c.l1Kind = L1Kind::Pipt;
         c.piptTlbCycles = 3;
     }},
    {"siptAssoc",
     [](SystemConfig &c) {
         c.l1Kind = L1Kind::Sipt;
         c.siptAssoc = 4;
     }},
    {"prefetch.kind",
     [](SystemConfig &c) { c.prefetch.kind = PrefetchKind::NextLine; }},
    {"prefetch.degree",
     [](SystemConfig &c) {
         c.prefetch.kind = PrefetchKind::NextLine;
         c.prefetch.degree = 2;
     }},
    {"prefetch.tableEntries",
     [](SystemConfig &c) {
         c.prefetch.kind = PrefetchKind::Stride;
         c.prefetch.tableEntries = 16;
     }},
    {"outer.l2SizeBytes",
     [](SystemConfig &c) { c.outer.l2SizeBytes = 512 * 1024; }},
    {"outer.l2Assoc", [](SystemConfig &c) { c.outer.l2Assoc = 16; }},
    {"outer.l2LatencyNs",
     [](SystemConfig &c) { c.outer.l2LatencyNs = 4.5; }},
    {"outer.llcSizeBytes",
     [](SystemConfig &c) { c.outer.llcSizeBytes = 8ULL << 20; }},
    {"outer.llcAssoc", [](SystemConfig &c) { c.outer.llcAssoc = 8; }},
    {"outer.llcLatencyNs",
     [](SystemConfig &c) { c.outer.llcLatencyNs = 12.0; }},
    {"outer.dramLatencyNs",
     [](SystemConfig &c) { c.outer.dramLatencyNs = 70.0; }},
    {"schedulerCounterPolicy",
     [](SystemConfig &c) { c.schedulerCounterPolicy = false; }},
    {"shootdownCycles", [](SystemConfig &c) { c.shootdownCycles = 300; }},
    {"icacheKind",
     [](SystemConfig &c) { c.icacheKind = SystemConfig::ICacheKind::Vipt; }},
};

/** Each leaf's value as bytes, in test::forEachLeaf order. */
std::vector<std::string>
leafValues(SystemConfig c)
{
    std::vector<std::string> values;
    test::forEachLeaf(c, [&](const auto &leaf) {
        FieldWriter w;
        w.put(leaf);
        values.push_back(w.bytes());
    });
    return values;
}

TEST(MultiConfigEngine, EveryNonFrontEndLeafSharesOnePass)
{
    // The one-pass contract, tested directly: the base plus one
    // alternate per substrate leaf run as one pass,
    // and each result must equal that config's solo run. A front end
    // that read any of these leaves would follow the base's value and
    // diverge from the alternate's solo run.
    //
    // First tie the table to the registry, so that a new SystemConfig
    // field cannot skip this test.
    const SystemConfig base = richBase(1);
    const std::vector<std::string> base_values = leafValues(base);
    std::vector<bool> covered(base_values.size(), false);
    for (const Alternate &alt : kAlternates) {
        SystemConfig c = base;
        alt.apply(c);
        const std::vector<std::string> values = leafValues(c);
        EXPECT_NE(values, base_values) << alt.leaf << " moves no leaf";
        for (std::size_t i = 0; i < values.size(); ++i)
            covered[i] = covered[i] || values[i] != base_values[i];
    }
    SystemConfig probe = base;
    const auto base_roles = test::roleBytes(probe);
    std::size_t index = 0;
    test::forEachLeaf(probe, [&](auto &leaf) {
        const auto saved = leaf;
        test::perturb(leaf);
        const auto roles = test::roleBytes(probe);
        leaf = saved;
        const bool front_end =
            roles[test::kFrontEnd] != base_roles[test::kFrontEnd];
        const bool forks =
            roles[test::kSubstrate] != base_roles[test::kSubstrate];
        if (forks && !front_end) {
            EXPECT_TRUE(covered[index])
                << "leaf " << index
                << " (in declaration order) has no alternate";
        }
        ++index;
    });

    WorkloadSpec w = testWorkload();
    for (unsigned cores : {1u, 2u}) {
        std::vector<SystemConfig> configs = {richBase(cores)};
        std::vector<std::string> labels = {"(base)"};
        for (const Alternate &alt : kAlternates) {
            configs.push_back(configs.front());
            alt.apply(configs.back());
            labels.push_back(alt.leaf);
            EXPECT_EQ(MultiConfigEngine::frontEndKey(configs.back()),
                      MultiConfigEngine::frontEndKey(configs.front()))
                << alt.leaf << " at cores=" << cores;
        }
        SCOPED_TRACE("cores=" + std::to_string(cores));
        const std::vector<RunResult> results =
            expectOnePassMatchesSerial(configs, w, labels);
        // The window really contains the OS events the base asks for.
        ASSERT_FALSE(results.empty());
        EXPECT_GT(results[0].promotions, 0u);
        EXPECT_GT(results[0].splinters, 0u);
        EXPECT_GT(results[0].l1iAccesses, 0u);
    }
}

TEST(MultiConfigEngine, FrontEndKeyIsExact)
{
    // Memhog pressures a hair apart fragment memory differently, so
    // they must not share a front end.
    SystemConfig a = baseConfig(L1Kind::Seesaw);
    a.memhogFraction = 0.6;
    SystemConfig b = a;
    b.memhogFraction = 0.6000001;
    EXPECT_FALSE(MultiConfigEngine::compatibleFrontEnds(a, b));
    EXPECT_DEATH(MultiConfigEngine({a, a, b}, testWorkload()),
                 "config 2 differs from config 0");
}

TEST(MultiConfigEngine, ReplacementKindSplitsThePass)
{
    // A pass has one TLB hierarchy per core, and its replacement policy
    // owns victim side-state: configs that differ only in victim
    // selection need a pass each.
    SystemConfig lru = baseConfig(L1Kind::Seesaw);
    SystemConfig fifo = lru;
    fifo.replacement.kind = ReplacementKind::Fifo;
    EXPECT_FALSE(MultiConfigEngine::compatibleFrontEnds(lru, fifo));
    EXPECT_DEATH(MultiConfigEngine({lru, fifo}, testWorkload()),
                 "incompatible front ends");
}

TEST(MultiConfigEngine, OsEventsBroadcastToEverySubstrate)
{
    // Aggressive OS-event schedule: several promotions and splinters
    // land inside the budget, and the pass must still match every solo
    // run exactly — proof the events reached each substrate at the
    // same instruction boundary.
    WorkloadSpec w = testWorkload();
    std::vector<SystemConfig> configs;
    for (L1Kind kind :
         {L1Kind::Seesaw, L1Kind::SeesawWayPredicted,
          L1Kind::ViptBaseline}) {
        SystemConfig cfg = baseConfig(kind);
        cfg.promotionInterval = 5'000;
        cfg.splinterInterval = 15'000;
        cfg.contextSwitchInterval = 20'000;
        configs.push_back(cfg);
    }

    MultiConfigEngine engine(configs, w);
    const std::vector<RunResult> one_pass = engine.run();
    ASSERT_EQ(one_pass.size(), configs.size());
    EXPECT_GT(one_pass[0].promotions, 0u);
    EXPECT_GT(one_pass[0].splinters, 0u);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const RunResult serial = SimEngine(configs[i], w).run();
        expectSameResult(one_pass[i], serial,
                         "substrate " + std::to_string(i));
    }
}

TEST(MultiConfigEngine, UnmapBroadcastReachesEverySubstrate)
{
    WorkloadSpec w = testWorkload();
    std::vector<SystemConfig> configs;
    for (unsigned ways : {2u, 4u}) {
        SystemConfig cfg = baseConfig(L1Kind::Seesaw);
        cfg.partitionWays = ways;
        configs.push_back(cfg);
    }

    MultiConfigEngine engine(configs, w);
    engine.run();

    const Addr heap = Addr{1} << 40;
    const std::uint64_t bytes = 8ULL << 20;
    engine.unmapBroadcast(heap, bytes);

    for (unsigned s = 0; s < engine.substrates(); ++s) {
        // The unmapped VAs fault in the substrate's (shared) TLB view.
        const TlbLookupResult tr =
            engine.tlb(s).lookup(engine.asid(), heap);
        EXPECT_TRUE(tr.fault) << "substrate " << s;
        // And its TFT dropped every region under the unmap.
        SeesawCache *cache = engine.complex(s).seesawL1();
        ASSERT_NE(cache, nullptr);
        for (Addr va = heap; va < heap + bytes; va += 2 * 1024 * 1024)
            EXPECT_FALSE(cache->tft().lookup(va))
                << "substrate " << s << " va " << va;
    }
}

TEST(MultiConfigEngine, DesyncedSubstrateTripsItsOwnAudits)
{
    // thpEligibleFraction=0 keeps the heap base-paged, so marking any
    // heap region in one substrate's TFT fabricates a superpage that
    // the page table disavows — exactly the desync the per-substrate
    // audit contexts exist to catch.
    WorkloadSpec w = testWorkload();
    w.thpEligibleFraction = 0.0;

    std::vector<SystemConfig> configs;
    for (unsigned ways : {2u, 4u}) {
        SystemConfig cfg = baseConfig(L1Kind::Seesaw);
        cfg.promotionInterval = 0; // keep the heap base-paged
        cfg.audit.mode = check::AuditMode::End;
        configs.push_back(cfg);
        configs.back().partitionWays = ways;
    }

    MultiConfigEngine engine(configs, w);
    ASSERT_NE(engine.auditor(0), nullptr);
    ASSERT_NE(engine.auditor(1), nullptr);

    std::uint64_t violations[2] = {0, 0};
    for (unsigned s = 0; s < 2; ++s) {
        engine.auditor(s)->setViolationHandler(
            [&violations, s](const check::Violation &) {
                ++violations[s];
            });
    }

    engine.complex(1).seesawL1()->tft().markRegion(Addr{1} << 40);

    engine.auditor(0)->runAll(0);
    engine.auditor(1)->runAll(0);
    EXPECT_EQ(violations[0], 0u) << "healthy substrate flagged";
    EXPECT_GT(violations[1], 0u) << "desynced substrate not caught";
}

} // namespace
} // namespace seesaw
