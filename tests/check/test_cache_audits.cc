/**
 * @file
 * Mutation tests for the tag-store and SEESAW-partition audits: each
 * seeded corruption must fire exactly the check that guards it, and
 * uncorrupted stores must audit clean.
 */

#include <gtest/gtest.h>

#include "check/cache_audits.hh"
#include "check/invariant_auditor.hh"

namespace seesaw::check {
namespace {

/** Run @p fn as a one-off check and collect its violations. */
std::vector<Violation>
collect(const std::function<void(AuditContext &)> &fn)
{
    InvariantAuditor auditor;
    std::vector<Violation> seen;
    auditor.setViolationHandler(
        [&seen](const Violation &v) { seen.push_back(v); });
    auditor.registerCheck("under-test", fn);
    auditor.runAll(0);
    return seen;
}

std::vector<Violation>
auditTags(const SetAssocCache &tags, bool allow_duplicates = false)
{
    return collect([&](AuditContext &ctx) {
        auditTagStoreSanity(tags, ctx, allow_duplicates);
    });
}

/** The way holding @p pa (which must be resident). */
unsigned
wayOf(const SetAssocCache &tags, Addr pa)
{
    const TagLookup look = tags.peek(pa);
    EXPECT_TRUE(look.hit) << "line not resident: " << pa;
    return look.way;
}

/** The stored line address of resident @p pa, for seeding a corrupt
 *  tag. */
Addr &
tagOf(SetAssocCache &tags, Addr pa)
{
    return tags.debugLineAddrAt(tags.setIndex(pa), wayOf(tags, pa));
}

TEST(CacheAuditsTest, PopulatedStoreAuditsClean)
{
    SetAssocCache tags(32 * 1024, 8);
    for (Addr pa = 0; pa < 64 * 1024; pa += 64)
        tags.insert(pa, SetAssocCache::InsertScope::FullSet,
                    CoherenceState::Exclusive, PageSize::Base4KB);
    for (Addr pa = 0; pa < 8 * 1024; pa += 128)
        tags.lookup(pa);
    EXPECT_TRUE(auditTags(tags).empty());
}

TEST(CacheAuditsTest, CatchesLineInTheWrongSet)
{
    SetAssocCache tags(32 * 1024, 8); // 64 sets, lineBits 6
    tags.insert(0x1000, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Exclusive, PageSize::Base4KB);
    // Corrupt the tag so the stored line address names another set.
    tagOf(tags, 0x1000) ^= 0x1;
    const auto seen = auditTags(tags);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_NE(seen[0].detail.find("unreachable"), std::string::npos);
}

TEST(CacheAuditsTest, CatchesDuplicateLinesWithinASet)
{
    SetAssocCache tags(32 * 1024, 8);
    tags.insert(0x2000, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Exclusive, PageSize::Base4KB);
    // Same set (same bits 11:6), different tag — then corrupt it to
    // collide with the first line.
    const Addr alias = 0x2000 + 32 * 1024;
    tags.insert(alias, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Exclusive, PageSize::Base4KB);
    tagOf(tags, alias) = 0x2000 >> 6;

    const auto seen = auditTags(tags);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_NE(seen[0].detail.find("also valid in way"),
              std::string::npos);

    // The same aliasing is legal under 4way-8way.
    EXPECT_TRUE(auditTags(tags, /*allow_duplicates=*/true).empty());
}

TEST(CacheAuditsTest, CatchesAmbiguousLruTimestamps)
{
    SetAssocCache tags(32 * 1024, 8);
    tags.insert(0x3000, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Exclusive, PageSize::Base4KB);
    const Addr alias = 0x3000 + 32 * 1024;
    tags.insert(alias, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Exclusive, PageSize::Base4KB);
    // Corrupt the policy side-state: two ways sharing one timestamp
    // makes the recency order ambiguous.
    ReplacementPolicy &policy = tags.replacementPolicy();
    const unsigned set = tags.setIndex(0x3000);
    policy.debugStateAt(set, wayOf(tags, alias)) =
        policy.debugStateAt(set, wayOf(tags, 0x3000));

    const auto seen = auditTags(tags);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_NE(seen[0].detail.find("duplicate LRU timestamp"),
              std::string::npos);
}

TEST(CacheAuditsTest, CatchesLruClockRunningBehindALine)
{
    SetAssocCache tags(32 * 1024, 8);
    tags.insert(0x4000, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Exclusive, PageSize::Base4KB);
    tags.replacementPolicy().debugStateAt(
        tags.setIndex(0x4000), wayOf(tags, 0x4000)) += 100;
    const auto seen = auditTags(tags);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_NE(seen[0].detail.find("exceeds use clock"),
              std::string::npos);
}

TEST(CacheAuditsTest, CatchesSrripRrpvOutOfRange)
{
    ReplacementParams params;
    params.kind = ReplacementKind::Srrip;
    params.rripBits = 2; // RRPVs 0..3
    SetAssocCache tags(32 * 1024, 8, 64, 1, params);
    tags.insert(0x7000, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Exclusive, PageSize::Base4KB);
    EXPECT_TRUE(auditTags(tags).empty());
    tags.replacementPolicy().debugStateAt(
        tags.setIndex(0x7000), wayOf(tags, 0x7000)) = 99;
    const auto seen = auditTags(tags);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_NE(seen[0].detail.find("out of range"), std::string::npos);
}

TEST(CacheAuditsTest, RandomPolicyStoreAuditsClean)
{
    ReplacementParams params;
    params.kind = ReplacementKind::Random;
    params.seed = 7;
    SetAssocCache tags(32 * 1024, 8, 64, 1, params);
    for (Addr pa = 0; pa < 64 * 1024; pa += 64)
        tags.insert(pa, SetAssocCache::InsertScope::FullSet,
                    CoherenceState::Exclusive, PageSize::Base4KB);
    EXPECT_TRUE(auditTags(tags).empty());
}

TEST(CacheAuditsTest, CatchesValidLineInStateInvalid)
{
    SetAssocCache tags(32 * 1024, 8);
    tags.insert(0x5000, SetAssocCache::InsertScope::FullSet,
                CoherenceState::Shared, PageSize::Base4KB);
    tags.findLine(0x5000)->state = CoherenceState::Invalid;
    const auto seen = auditTags(tags);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_NE(seen[0].detail.find("state Invalid"), std::string::npos);
}

// ------------------------------------------------------------------
// SEESAW partition placement.

SeesawConfig
seesawConfig(InsertionPolicy policy)
{
    SeesawConfig c;
    c.sizeBytes = 32 * 1024;
    c.assoc = 8;
    c.partitionWays = 4; // 2 partitions; partition bit = PA bit 12
    c.policy = policy;
    return c;
}

std::vector<Violation>
auditPlacement(const SeesawCache &cache)
{
    return collect([&](AuditContext &ctx) {
        auditSeesawPlacement(cache, ctx);
    });
}

TEST(CacheAuditsTest, SeesawPlacementAuditsCleanAfterTraffic)
{
    LatencyTable latency;
    SeesawCache cache(seesawConfig(InsertionPolicy::FourWay), latency);
    for (Addr va = 0; va < 256 * 1024; va += 64) {
        L1Access req;
        req.va = va;
        req.pa = va; // identity 2MB mapping
        req.pageSize = PageSize::Super2MB;
        cache.access(req);
    }
    EXPECT_TRUE(auditPlacement(cache).empty());
}

TEST(CacheAuditsTest, CatchesLineMovedOutOfItsPaPartition)
{
    LatencyTable latency;
    SeesawCache cache(seesawConfig(InsertionPolicy::FourWay), latency);
    L1Access req;
    req.va = 0x1000;
    req.pa = 0x1000;
    req.pageSize = PageSize::Base4KB;
    cache.access(req);

    // The issue's seeded corruption: rename a resident 4KB line so its
    // PA names the other partition while the line stays in this one —
    // flip the partition bit (bit 12 = lineAddr bit 6) only.
    tagOf(cache.tags(), 0x1000) ^= 1ULL << 6;

    const auto seen = auditPlacement(cache);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_NE(seen[0].detail.find("names partition"),
              std::string::npos);
}

TEST(CacheAuditsTest, FourWayEightWayConstrainsOnlySuperpageLines)
{
    LatencyTable latency;
    SeesawCache cache(
        seesawConfig(InsertionPolicy::FourWayEightWay), latency);

    // A base-page line out of its PA partition: allowed (set-wide
    // victims for base pages).
    L1Access base;
    base.va = 0x1000;
    base.pa = 0x1000;
    base.pageSize = PageSize::Base4KB;
    cache.access(base);
    tagOf(cache.tags(), 0x1000) ^= 1ULL << 6;
    EXPECT_TRUE(auditPlacement(cache).empty());

    // But a superpage line must still honour the invariant.
    L1Access super;
    super.va = 0x40000000;
    super.pa = 0x40000000;
    super.pageSize = PageSize::Super2MB;
    cache.access(super);
    tagOf(cache.tags(), 0x40000000) ^= 1ULL << 6;
    EXPECT_EQ(auditPlacement(cache).size(), 1u);
}

// ------------------------------------------------------------------
// Prefetched-line placement (partition-scoped fills, every policy).

std::vector<Violation>
auditPrefetch(const SeesawCache &cache)
{
    return collect([&](AuditContext &ctx) {
        auditPrefetchPlacement(cache, ctx);
    });
}

TEST(CacheAuditsTest, PrefetchPlacementAuditsCleanAfterFills)
{
    LatencyTable latency;
    SeesawCache cache(seesawConfig(InsertionPolicy::FourWayEightWay),
                      latency);
    for (Addr pa = 0; pa < 64 * 1024; pa += 64)
        cache.prefetchFill(pa, PageSize::Base4KB);
    EXPECT_TRUE(auditPrefetch(cache).empty());
}

TEST(CacheAuditsTest, CatchesPrefetchedLineOutsideItsPartition)
{
    LatencyTable latency;
    SeesawCache cache(seesawConfig(InsertionPolicy::FourWayEightWay),
                      latency);
    cache.prefetchFill(0x1000, PageSize::Base4KB);
    CacheLine *line = cache.tags().findLine(0x1000);
    ASSERT_NE(line, nullptr);
    ASSERT_TRUE(line->prefetched);
    tagOf(cache.tags(), 0x1000) ^= 1ULL << 6; // flip the partition bit

    // Base-page lines are exempt from the general 4way-8way placement
    // rule, but a *prefetched* line never is.
    EXPECT_TRUE(auditPlacement(cache).empty());
    const auto seen = auditPrefetch(cache);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_NE(seen[0].detail.find("illegal prefetch crossing"),
              std::string::npos);
}

} // namespace
} // namespace seesaw::check
