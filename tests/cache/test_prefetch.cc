/**
 * @file
 * Prefetch-engine tests: candidate generation (next-line, stride),
 * determinism, and the SEESAW legality rule end to end — a prefetch
 * may cross a 4KB frontier only when a superpage translation covers
 * both sides, so an all-base-page address space must drop every
 * crossing candidate while a THP-backed one legalises them.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/prefetch/prefetch.hh"
#include "sim/sim_engine.hh"

namespace seesaw {
namespace {

constexpr unsigned kLine = 64;

std::unique_ptr<PrefetchEngine>
make(PrefetchKind kind, unsigned degree = 1,
     unsigned table_entries = 64)
{
    PrefetchParams params;
    params.kind = kind;
    params.degree = degree;
    params.tableEntries = table_entries;
    return PrefetchEngine::create(params, kLine);
}

TEST(Prefetch, NoneHasNoEngine)
{
    EXPECT_EQ(make(PrefetchKind::None), nullptr);
}

TEST(Prefetch, NextLineEmitsOnlyOnMisses)
{
    auto p = make(PrefetchKind::NextLine, 2);
    std::vector<Addr> out;
    p->observe(0x1008, /*miss=*/false, out);
    EXPECT_TRUE(out.empty());
    p->observe(0x1008, /*miss=*/true, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x1040u); // line-aligned successor of 0x1000
    EXPECT_EQ(out[1], 0x1080u);
}

TEST(Prefetch, NextLineCandidatesIgnorePageFrontiers)
{
    // The engine is VA-only: the last line of a 4KB page yields the
    // first line of the next page. Whether that candidate is *issued*
    // is the legality layer's call, not the engine's.
    auto p = make(PrefetchKind::NextLine);
    std::vector<Addr> out;
    p->observe(0x1fc0, /*miss=*/true, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x2000u);
}

TEST(Prefetch, StrideTrainsThenStreams)
{
    auto p = make(PrefetchKind::Stride, 1);
    std::vector<Addr> out;
    // First touch allocates, second sets the stride, third confirms
    // it; only then do candidates flow.
    p->observe(0x10000, true, out);
    p->observe(0x10100, true, out);
    EXPECT_TRUE(out.empty());
    p->observe(0x10200, true, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x10300u);

    // The stream keeps its entry across a 4KB frontier.
    out.clear();
    std::vector<Addr> tail;
    for (Addr va = 0x10300; va < 0x13000; va += 0x100) {
        tail.clear();
        p->observe(va, true, tail);
    }
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0], 0x13000u);
}

TEST(Prefetch, StrideIsDeterministic)
{
    auto a = make(PrefetchKind::Stride, 2, 8);
    auto b = make(PrefetchKind::Stride, 2, 8);
    std::vector<Addr> oa, ob;
    // Two interleaved streams plus noise: replay must be identical.
    for (int i = 0; i < 200; ++i) {
        const Addr va = (i % 2) ? 0x200000 + i * 0x40
                                : 0x800000 + i * 0x180;
        a->observe(va, i % 3 == 0, oa);
        b->observe(va, i % 3 == 0, ob);
    }
    EXPECT_EQ(oa, ob);
    EXPECT_FALSE(oa.empty());
}

/** Simulation-level fixture for the legality rule and counters. */
SystemConfig
prefetchConfig(PrefetchKind kind)
{
    SystemConfig cfg;
    cfg.l1Kind = L1Kind::Seesaw;
    cfg.instructions = 40'000;
    cfg.warmupInstructions = 20'000;
    cfg.os.memBytes = 1ULL << 30;
    cfg.seed = 1;
    cfg.prefetch.kind = kind;
    return cfg;
}

TEST(Prefetch, BasePagesDropCrossingCandidatesSuperpagesLegaliseThem)
{
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 32ULL << 20;
    w.hotSetBytes = 2ULL << 20;

    // All-base-page address space: every candidate beyond its 4KB
    // page is an illegal crossing and must be dropped, never filled.
    WorkloadSpec base_paged = w;
    base_paged.thpEligibleFraction = 0.0;
    SystemConfig cfg = prefetchConfig(PrefetchKind::NextLine);
    cfg.promotionInterval = 0;
    const RunResult base = SimEngine(cfg, base_paged).run();
    EXPECT_GT(base.prefetchIssued, 0u);
    EXPECT_GT(base.prefetchIllegalCrossing, 0u);

    // THP-backed: superpage translations cover the 4KB frontiers, so
    // nearly every crossing becomes legal and more prefetches issue.
    const RunResult thp =
        SimEngine(prefetchConfig(PrefetchKind::NextLine), w).run();
    EXPECT_GT(thp.prefetchIssued, base.prefetchIssued);
    EXPECT_LT(thp.prefetchIllegalCrossing,
              base.prefetchIllegalCrossing);
}

TEST(Prefetch, ParanoidAuditsStayCleanWithPrefetchOn)
{
    // The paranoid cadence aborts on any violation, so surviving the
    // run is the assertion — including the prefetch-placement audit
    // over every prefetched line.
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 16ULL << 20;
    w.hotSetBytes = 2ULL << 20;
    for (PrefetchKind kind :
         {PrefetchKind::NextLine, PrefetchKind::Stride}) {
        SystemConfig cfg = prefetchConfig(kind);
        cfg.instructions = 20'000;
        cfg.warmupInstructions = 5'000;
        cfg.audit.mode = check::AuditMode::Paranoid;
        const RunResult r = SimEngine(cfg, w).run();
        EXPECT_GT(r.prefetchIssued, 0u)
            << static_cast<int>(kind);
    }
}

TEST(Prefetch, RunsAreDeterministicAndUsefulPrefetchesAppear)
{
    WorkloadSpec w = findWorkload("redis");
    w.footprintBytes = 32ULL << 20;
    w.hotSetBytes = 2ULL << 20;
    const SystemConfig cfg = prefetchConfig(PrefetchKind::Stride);
    const RunResult a = SimEngine(cfg, w).run();
    const RunResult b = SimEngine(cfg, w).run();
    EXPECT_TRUE(a == b);
    EXPECT_GT(a.prefetchIssued, 0u);
    EXPECT_GT(a.prefetchUseful, 0u);
}

} // namespace
} // namespace seesaw
