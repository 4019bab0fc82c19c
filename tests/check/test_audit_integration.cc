/**
 * @file
 * End-to-end audit coverage: paranoid-mode runs over every paper
 * workload must complete without a single invariant violation (the
 * default handler aborts the process on one), the audit layer must
 * stay out of the way when disabled, and a seeded whole-system
 * corruption — a splinter applied behind the simulator's back — must
 * be caught by the TFT/TLB audits.
 */

#include <gtest/gtest.h>

#include "check/invariant_auditor.hh"
#include "sim/sim_engine.hh"

namespace seesaw {
namespace {

/** A footprint small enough that paranoid cadence stays fast. */
WorkloadSpec
shrunk(const WorkloadSpec &spec)
{
    WorkloadSpec w = spec;
    w.footprintBytes = std::min<std::uint64_t>(w.footprintBytes,
                                               4ULL << 20);
    w.hotSetBytes = std::min(w.hotSetBytes, w.footprintBytes / 2);
    w.codeFootprintBytes =
        std::min<std::uint64_t>(w.codeFootprintBytes, 1ULL << 20);
    return w;
}

SystemConfig
paranoidConfig(L1Kind kind)
{
    SystemConfig cfg;
    cfg.l1Kind = kind;
    cfg.instructions = 6'000;
    cfg.warmupInstructions = 3'000;
    cfg.audit.mode = check::AuditMode::Paranoid;
    return cfg;
}

TEST(AuditIntegrationTest, ParanoidRunsCleanOverAllPaperWorkloads)
{
    for (L1Kind kind : {L1Kind::Seesaw, L1Kind::ViptBaseline}) {
        for (const WorkloadSpec &spec : paperWorkloads()) {
            SimEngine system(paranoidConfig(kind), shrunk(spec));
            system.run(); // a violation would abort the process
            ASSERT_NE(system.auditor(), nullptr);
            EXPECT_GT(system.auditor()->auditsRun(), 0u)
                << spec.name;
            EXPECT_EQ(system.auditor()->violations(), 0u)
                << spec.name;
        }
    }
}

TEST(AuditIntegrationTest, ParanoidRunsCleanWithAnInstructionCache)
{
    SystemConfig cfg = paranoidConfig(L1Kind::Seesaw);
    cfg.modelInstructionCache = true;
    SimEngine system(cfg, shrunk(findWorkload("nutch")));
    system.run();
    ASSERT_NE(system.auditor(), nullptr);
    EXPECT_EQ(system.auditor()->violations(), 0u);
}

TEST(AuditIntegrationTest, OffModeInstantiatesNoAuditor)
{
    SystemConfig cfg;
    cfg.instructions = 1'000;
    cfg.warmupInstructions = 0;
    cfg.audit.mode = check::AuditMode::Off;
    SimEngine system(cfg, shrunk(findWorkload("redis")));
    EXPECT_EQ(system.auditor(), nullptr);
    system.run();
}

TEST(AuditIntegrationTest, EndModeAuditsExactlyOnce)
{
    SystemConfig cfg;
    cfg.instructions = 5'000;
    cfg.warmupInstructions = 1'000;
    cfg.audit.mode = check::AuditMode::End;
    SimEngine system(cfg, shrunk(findWorkload("mcf")));
    system.run();
    ASSERT_NE(system.auditor(), nullptr);
    EXPECT_EQ(system.auditor()->auditsRun(), 1u);
    EXPECT_EQ(system.auditor()->violations(), 0u);
}

TEST(AuditIntegrationTest, CatchesTftDesyncAfterHiddenSplinter)
{
    SystemConfig cfg;
    cfg.instructions = 20'000;
    cfg.warmupInstructions = 5'000;
    cfg.audit.mode = check::AuditMode::End;
    SimEngine system(cfg, shrunk(findWorkload("redis")));
    system.run();

    SeesawCache *l1 = system.seesawL1();
    ASSERT_NE(l1, nullptr);
    const auto supers = system.os().superpageVas(system.asid());
    ASSERT_FALSE(supers.empty());

    // The issue's seeded corruption: splinter a superpage the TFT
    // vouches for WITHOUT the invlpg applySplinter() would send — a
    // later TFT hit would commit the L1 to a partition the (now
    // base-paged) translation no longer guarantees.
    const Addr victim = supers.front();
    l1->tft().markRegion(victim);
    ASSERT_TRUE(
        system.os().splinter(system.asid(), victim).has_value());

    std::vector<check::Violation> seen;
    auto *auditor = system.auditor();
    ASSERT_NE(auditor, nullptr);
    auditor->setViolationHandler(
        [&seen](const check::Violation &v) { seen.push_back(v); });
    auditor->runAll(0);

    bool tft_violation = false;
    for (const auto &v : seen)
        tft_violation |= v.check == "l1.tft";
    EXPECT_TRUE(tft_violation);
}

TEST(AuditIntegrationTest, MultiCoreParanoidRunsClean)
{
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.instructions = 4'000;
    cfg.warmupInstructions = 1'000;
    cfg.audit.mode = check::AuditMode::Paranoid;
    SimEngine system(cfg, shrunk(findWorkload("cann")));
    system.run();
    ASSERT_NE(system.auditor(), nullptr);
    EXPECT_GT(system.auditor()->auditsRun(), 0u);
    EXPECT_EQ(system.auditor()->violations(), 0u);
    EXPECT_TRUE(system.checkDirectoryInvariant());
}

TEST(AuditIntegrationTest, MultiCorePromotionSweepsAuditClean)
{
    // Half the host fragmented by memhog leaves regions that fault in
    // as base pages; frequent promotion passes then migrate them, and
    // every sweep must retire the swept lines' directory records
    // through recordEviction() or the paranoid audits would fire.
    SystemConfig cfg = paranoidConfig(L1Kind::Seesaw);
    cfg.cores = 4;
    cfg.fabric = CoherenceKind::Directory;
    cfg.instructions = 1'000;
    cfg.warmupInstructions = 500;
    cfg.os.memBytes = 512ULL << 20;
    cfg.memhogFraction = 0.5;
    cfg.promotionInterval = 400;
    WorkloadSpec w = findWorkload("tunk");
    w.footprintBytes = 16ULL << 20;
    w.hotSetBytes = 1ULL << 20;
    SimEngine system(cfg, w);
    const RunResult r = system.run();
    ASSERT_NE(system.auditor(), nullptr);
    EXPECT_GT(r.promotions, 0u);
    ASSERT_NE(system.directory(), nullptr);
    EXPECT_GT(system.directory()->evictions(), 0u);
    EXPECT_GT(system.auditor()->auditsRun(), 0u);
    EXPECT_EQ(system.auditor()->violations(), 0u);
    EXPECT_TRUE(system.checkDirectoryInvariant());
}

/** Run @p cfg under @p mode. */
RunResult
runUnder(SystemConfig cfg, check::AuditMode mode, const WorkloadSpec &w)
{
    cfg.audit.mode = mode;
    return SimEngine(cfg, w).run();
}

TEST(AuditIntegrationTest, ModeNeverChangesTheResult)
{
    // Audits only observe: a paranoid run, which audits after every
    // event, must match the run that builds no auditor at all.
    const WorkloadSpec w = shrunk(findWorkload("redis"));
    for (L1Kind kind :
         {L1Kind::ViptBaseline, L1Kind::Pipt, L1Kind::Seesaw,
          L1Kind::ViptWayPredicted, L1Kind::SeesawWayPredicted,
          L1Kind::Sipt}) {
        SystemConfig cfg = paranoidConfig(kind);
        cfg.modelInstructionCache = true;
        EXPECT_EQ(runUnder(cfg, check::AuditMode::Off, w),
                  runUnder(cfg, check::AuditMode::Paranoid, w))
            << static_cast<int>(kind);
    }

    SystemConfig four = paranoidConfig(L1Kind::Seesaw);
    four.cores = 4;
    four.fabric = CoherenceKind::Directory;
    four.instructions = 500;
    four.warmupInstructions = 100;
    const WorkloadSpec mt = shrunk(findWorkload("cann"));
    EXPECT_EQ(runUnder(four, check::AuditMode::Off, mt),
              runUnder(four, check::AuditMode::Paranoid, mt));
}

/** Push the first resident line of core @p core's L1 past its LRU
 *  clock, then run every registered check and collect the reports. */
std::vector<check::Violation>
auditWithAgedLine(SimEngine &system, unsigned core)
{
    SetAssocCache &tags = system.l1(core).tags();
    bool aged = false;
    for (unsigned set = 0; set < tags.numSets() && !aged; ++set) {
        for (unsigned way = 0; way < tags.assoc() && !aged; ++way) {
            if (tags.validAt(set, way)) {
                tags.replacementPolicy().debugStateAt(set, way) += 100;
                aged = true;
            }
        }
    }
    EXPECT_TRUE(aged) << "core " << core << " holds no line";
    std::vector<check::Violation> seen;
    system.auditor()->setViolationHandler(
        [&seen](const check::Violation &v) { seen.push_back(v); });
    system.auditor()->runAll(0);
    return seen;
}

TEST(AuditIntegrationTest, SystemChecksKeepTheirNamesOrderAndCore)
{
    // One core, SEESAW L1D and L1I: every layer's check, in
    // registration order, and reports carry no core.
    SystemConfig one = paranoidConfig(L1Kind::Seesaw);
    one.audit.mode = check::AuditMode::End;
    one.modelInstructionCache = true;
    SimEngine single(one, shrunk(findWorkload("nutch")));
    single.run();
    ASSERT_NE(single.auditor(), nullptr);
    EXPECT_EQ(single.auditor()->checkNames(),
              (std::vector<std::string>{
                  "l1.tags", "tlb", "mem.tcache", "l1.partition",
                  "l1.prefetch", "l1.tft", "l1i.tags", "l1i.partition",
                  "l1i.tft"}));
    const auto single_seen = auditWithAgedLine(single, 0);
    ASSERT_EQ(single_seen.size(), 1u);
    EXPECT_EQ(single_seen[0].check, "l1.tags");
    EXPECT_EQ(single_seen[0].core, -1);

    // Four VIPT cores under the directory: the per-core checks name
    // the core they caught.
    SystemConfig four = paranoidConfig(L1Kind::ViptBaseline);
    four.audit.mode = check::AuditMode::End;
    four.cores = 4;
    four.fabric = CoherenceKind::Directory;
    SimEngine multi(four, shrunk(findWorkload("cann")));
    multi.run();
    ASSERT_NE(multi.auditor(), nullptr);
    EXPECT_EQ(multi.auditor()->checkNames(),
              (std::vector<std::string>{"directory", "l1.tags", "tlb",
                                        "mem.tcache", "outer.tags"}));
    const auto multi_seen = auditWithAgedLine(multi, 2);
    ASSERT_EQ(multi_seen.size(), 1u);
    EXPECT_EQ(multi_seen[0].check, "l1.tags");
    EXPECT_EQ(multi_seen[0].core, 2);
}

TEST(AuditIntegrationTest, MultiCoreAuditCatchesSeededDirectoryDrift)
{
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.instructions = 4'000;
    cfg.warmupInstructions = 1'000;
    cfg.audit.mode = check::AuditMode::End;
    SimEngine system(cfg, shrunk(findWorkload("cann")));
    system.run();
    ASSERT_TRUE(system.checkDirectoryInvariant());

    // Flip one sharer bit: pick any line core 0 holds and make the
    // directory forget it.
    Addr victim = 0;
    bool found = false;
    const SetAssocCache &tags = system.l1(0).tags();
    unsigned line_bits = 0;
    while ((1U << line_bits) < tags.lineBytes())
        ++line_bits;
    tags.forEachValidLine([&](Addr line_addr, const CacheLine &) {
        if (!found) {
            victim = line_addr << line_bits;
            found = true;
        }
    });
    ASSERT_TRUE(found);
    ASSERT_NE(system.directory(), nullptr);
    system.directory()->recordEviction(0, victim);
    EXPECT_FALSE(system.checkDirectoryInvariant());
}

} // namespace
} // namespace seesaw
