#include "tlb/tlb_hierarchy.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace seesaw {

namespace {

/** The translation @p e gives the page holding @p va. */
Translation
translationOf(const TlbEntry &e, Addr va)
{
    return Translation{e.paBase, alignDown(va, pageBytes(e.size)),
                       e.size};
}

} // namespace

TlbHierarchyParams
TlbHierarchyParams::sandybridge()
{
    TlbHierarchyParams p;
    p.l1Entries4k = 128;
    p.l1Assoc4k = 4;
    p.l1Entries2m = 16;
    p.l1Assoc2m = 4;
    p.l1Entries1g = 4;
    p.l1Assoc1g = 4;
    p.l2Entries = 512;
    p.l2Assoc = 4;
    p.l2Holds2m = true;
    return p;
}

TlbHierarchyParams
TlbHierarchyParams::atom()
{
    TlbHierarchyParams p;
    p.l1Entries4k = 64;
    p.l1Assoc4k = 4;
    p.l1Entries2m = 32;
    p.l1Assoc2m = 4;
    p.l1Entries1g = 4;
    p.l1Assoc1g = 4;
    p.l2Entries = 512;
    p.l2Assoc = 4;
    p.l2Holds2m = true;
    return p;
}

TlbHierarchyParams
TlbHierarchyParams::unified(unsigned entries)
{
    TlbHierarchyParams p;
    p.unifiedL1Entries = entries;
    return p;
}

TlbHierarchy::TlbHierarchy(const TlbHierarchyParams &params,
                           const PageTable &page_table)
    : params_(params), walker_(page_table, params.walkCyclesPerLevel),
      stats_("tlb"),
      stLookups_(&stats_.scalar("lookups")),
      stL1Hits_(&stats_.scalar("l1_hits")),
      stL2Lookups_(&stats_.scalar("l2_lookups")),
      stL2Hits_(&stats_.scalar("l2_hits")),
      stWalks_(&stats_.scalar("walks")),
      stFaults_(&stats_.scalar("faults")),
      stInvlpg_(&stats_.scalar("invlpg"))
{
    const ReplacementParams &r = params_.replacement;
    l1_.reserve(3);
    if (params_.unifiedL1Entries) {
        l1_.push_back({"l1.unified",
                       Tlb("l1tlb_unified", params_.unifiedL1Entries,
                           params_.unifiedL1Entries,
                           {PageSize::Base4KB, PageSize::Super2MB,
                            PageSize::Super1GB},
                           withSeedSalt(r, 0x1fULL))});
    } else {
        l1_.push_back({"l1.4k", Tlb("l1tlb_4k", params_.l1Entries4k,
                                    params_.l1Assoc4k, PageSize::Base4KB,
                                    withSeedSalt(r, 0x11ULL))});
        l1_.push_back({"l1.2m", Tlb("l1tlb_2m", params_.l1Entries2m,
                                    params_.l1Assoc2m, PageSize::Super2MB,
                                    withSeedSalt(r, 0x12ULL))});
        l1_.push_back({"l1.1g", Tlb("l1tlb_1g", params_.l1Entries1g,
                                    params_.l1Assoc1g, PageSize::Super1GB,
                                    withSeedSalt(r, 0x13ULL))});
    }
    l2_.reserve(2);
    l2_.push_back({"l2.4k", Tlb("l2tlb_4k", params_.l2Entries,
                                params_.l2Assoc, PageSize::Base4KB,
                                withSeedSalt(r, 0x24ULL))});
    if (params_.l2Holds2m) {
        const unsigned entries2m =
            std::max(params_.l2Assoc, params_.l2Entries / 4);
        l2_.push_back({"l2.2m", Tlb("l2tlb_2m", entries2m,
                                    params_.l2Assoc, PageSize::Super2MB,
                                    withSeedSalt(r, 0x22ULL))});
    }
}

const Tlb &
TlbHierarchy::l1For(PageSize size) const
{
    for (const Level &l : l1_) {
        if (l.tlb.holds(size))
            return l.tlb;
    }
    SEESAW_PANIC("no L1 TLB holds this page size");
}

const TlbEntry *
TlbHierarchy::probe(std::vector<Level> &levels, Asid asid, Addr va)
{
    for (Level &l : levels) {
        if (const TlbEntry *e = l.tlb.lookup(asid, va))
            return e;
    }
    return nullptr;
}

void
TlbHierarchy::fill(std::vector<Level> &levels, Asid asid,
                   const Translation &t)
{
    for (Level &l : levels) {
        if (l.tlb.holds(t.size)) {
            l.tlb.insert(asid, t.vaBase, t.paBase, t.size);
            return;
        }
    }
}

void
TlbHierarchy::markRegion(Asid asid, const Translation &t, Addr va)
{
    // The TFT tracks 2MB regions; any 2MB-aligned region inside a 1GB
    // page is superpage-backed (>=21 page-offset bits), so the design
    // "generalizes readily to 1GB superpages" (§IV) by marking the
    // region around the access.
    if (isSuperpage(t.size) && on2mFill_)
        on2mFill_(asid, alignDown(va, 2 * 1024 * 1024));
}

TlbLookupResult
TlbHierarchy::lookup(Asid asid, Addr va)
{
    TlbLookupResult res;
    ++*stLookups_;

    // All L1 TLBs are probed in parallel, hidden under the L1 cache's
    // set access.
    if (const TlbEntry *e = probe(l1_, asid, va)) {
        res.l1Hit = true;
        res.translation = translationOf(*e, va);
        ++*stL1Hits_;
        if (params_.refreshOn2mHit)
            markRegion(asid, res.translation, va);
        return res;
    }

    res.penaltyCycles += params_.l2LatencyCycles;
    ++*stL2Lookups_;
    if (const TlbEntry *e = probe(l2_, asid, va)) {
        res.l2Hit = true;
        res.translation = translationOf(*e, va);
        ++*stL2Hits_;
    } else {
        auto walk = walker_.walk(asid, va);
        if (!walk) {
            res.fault = true;
            ++*stFaults_;
            return res;
        }
        res.walked = true;
        ++*stWalks_;
        res.penaltyCycles += walk->cycles;
        res.translation = walk->translation;
        fill(l2_, asid, res.translation);
    }
    fill(l1_, asid, res.translation);
    markRegion(asid, res.translation, va);
    return res;
}

void
TlbHierarchy::invalidatePage(Asid asid, Addr va)
{
    for (std::vector<Level> *levels : {&l1_, &l2_}) {
        for (Level &l : *levels)
            l.tlb.invalidatePage(asid, va);
    }
    ++*stInvlpg_;
}

void
TlbHierarchy::flushAll()
{
    for (std::vector<Level> *levels : {&l1_, &l2_}) {
        for (Level &l : *levels)
            l.tlb.flushAll();
    }
}

void
TlbHierarchy::forEachValidEntry(
    const std::function<void(const char *level, const TlbEntry &)> &fn)
    const
{
    for (const std::vector<Level> *levels : {&l1_, &l2_}) {
        for (const Level &l : *levels) {
            l.tlb.forEachValidEntry(
                [&](const TlbEntry &e) { fn(l.name, e); });
        }
    }
}

} // namespace seesaw
