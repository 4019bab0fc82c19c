/**
 * @file
 * The two-level TLB hierarchy of Table II: split per-page-size L1 TLBs
 * (Intel style) or one unified L1 TLB (ARM/SPARC style), backed by a
 * unified L2 TLB and a hardware page walker.
 *
 * The hierarchy exposes the hook SEESAW builds on: a callback fired on
 * every superpage L1 TLB fill, which the TFT uses to mark superpage
 * regions (Fig 5), and the superpage-TLB occupancy counter the
 * out-of-order scheduler policy reads (Section IV-B3).
 */

#ifndef SEESAW_TLB_TLB_HIERARCHY_HH
#define SEESAW_TLB_TLB_HIERARCHY_HH

#include <functional>
#include <vector>

#include "common/stats.hh"
#include "tlb/page_walker.hh"
#include "tlb/tlb.hh"

namespace seesaw {

/** Geometry/latency parameters of the TLB hierarchy. */
struct TlbHierarchyParams
{
    unsigned l1Entries4k = 128;
    unsigned l1Assoc4k = 4;
    unsigned l1Entries2m = 16;
    unsigned l1Assoc2m = 4;
    unsigned l1Entries1g = 4;
    unsigned l1Assoc1g = 4;

    unsigned l2Entries = 512;
    unsigned l2Assoc = 4;
    bool l2Holds2m = true; //!< modern STLBs also cache 2MB entries

    unsigned l2LatencyCycles = 7;
    unsigned walkCyclesPerLevel = 12;

    /**
     * Refresh the 2MB-fill hook on superpage L1 TLB *hits* as well as
     * fills. The paper's Fig 5 marks the TFT only on L1 TLB fills;
     * with that policy alone, a TFT entry displaced by a direct-mapped
     * conflict is never restored while its TLB entry stays resident,
     * and hot regions degrade to permanent TFT misses. The TLB hit
     * signal already carries the page size, so refreshing on hits is a
     * one-gate change; it is what Fig 13's >90% TFT coverage requires.
     */
    bool refreshOn2mHit = true;

    /**
     * Entries of one fully-associative L1 TLB shared across page sizes
     * (ARM/SPARC style); 0 selects the Intel-style split L1 TLBs above.
     * The paper's design works with either (Fig 4).
     */
    unsigned unifiedL1Entries = 0;

    /** Victim policy for every level; each structure decorrelates the
     *  Random seed with its own salt. */
    ReplacementParams replacement;

    /** ~Intel Sandybridge (Table II): split 128/16-entry L1s. */
    static TlbHierarchyParams sandybridge();

    /** ARM/SPARC-style fully-associative unified L1 TLB. */
    static TlbHierarchyParams unified(unsigned entries = 64);

    /** ~Intel Atom (Table II): 64/32-entry L1s, 512-entry L2. */
    static TlbHierarchyParams atom();
};

/** Outcome of a full hierarchy lookup. */
struct TlbLookupResult
{
    bool fault = false;  //!< no mapping exists (demand-page and retry)
    bool l1Hit = false;
    bool l2Hit = false;
    bool walked = false;
    Translation translation; //!< valid when !fault
    /** Cycles beyond the L1-TLB probe that VIPT hides under the cache
     *  access: L2 latency and/or the page walk. */
    unsigned penaltyCycles = 0;
};

/**
 * L1 TLBs (split per size, or unified) + L2 TLB + page walker.
 */
class TlbHierarchy
{
  public:
    TlbHierarchy(const TlbHierarchyParams &params,
                 const PageTable &page_table);

    /** Translate @p va, filling TLB levels on the way. */
    TlbLookupResult lookup(Asid asid, Addr va);

    /** Register the TFT-marking hook: fired with a 2MB-aligned VA
     *  whenever a superpage translation (2MB, or the 2MB region of an
     *  accessed 1GB page) is filled into — or, with refreshOn2mHit,
     *  hits in — an L1 TLB. */
    void
    setOn2MBFill(std::function<void(Asid, Addr)> hook)
    {
        on2mFill_ = std::move(hook);
    }

    /** invlpg: drop the translation for @p va everywhere. */
    void invalidatePage(Asid asid, Addr va);

    /** Full flush (e.g., non-ASID context switch models). */
    void flushAll();

    /** Valid superpage entries in the L1 TLB that holds 2MB pages
     *  (scheduler counter). */
    unsigned
    superpageL1ValidCount() const
    {
        return l1For(PageSize::Super2MB).superpageValidCount();
    }

    /** Superpage capacity at the L1 level: the entries of the L1 TLB
     *  that holds 2MB pages. */
    unsigned
    superpageL1Capacity() const
    {
        return l1For(PageSize::Super2MB).entries();
    }

    /**
     * The §IV-B3 scheduler counter policy: are superpages plentiful
     * enough for the scheduler to assume the fast hit time? Split
     * TLBs use the paper's rule (>= a quarter of a dedicated
     * superpage TLB's entries valid; a single resident 1GB entry
     * already covers a gigabyte of fast-path heap); a unified TLB has
     * no dedicated structure, so the equivalent signal is superpage
     * entries holding at least a third of the valid pool.
     */
    bool
    superpagesAmple() const
    {
        if (params_.unifiedL1Entries) {
            const Tlb &u = l1_.front().tlb;
            return u.superpageValidCount() * 3 >= u.validCount();
        }
        for (const Level &l : l1_) {
            if (l.tlb.superpageValidCount() * 4 >= l.tlb.entries())
                return true;
        }
        return false;
    }

    const TlbHierarchyParams &params() const { return params_; }

    /** Visit every valid entry of every level; @p fn receives the
     *  level's name ("l1.4k", "l1.2m", "l1.1g", "l1.unified",
     *  "l2.4k", "l2.2m") and the entry (invariant audits). */
    void forEachValidEntry(
        const std::function<void(const char *level, const TlbEntry &)>
            &fn) const;

    const PageWalker &walker() const { return walker_; }

    /** Lookups that missed every L1 TLB and probed the L2. */
    std::uint64_t l2Lookups() const { return stL2Lookups_->count(); }

    /** invlpg operations serviced (shootdown receive side). */
    std::uint64_t invlpgs() const { return stInvlpg_->count(); }

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

  private:
    /** One TLB structure and its audit name. */
    struct Level
    {
        const char *name;
        Tlb tlb;
    };

    TlbHierarchyParams params_;
    /** In probe order: {4KB, 2MB, 1GB} split, or {unified}. */
    std::vector<Level> l1_;
    /** The unified L2 is modelled as parallel per-size views sharing
     *  one latency: {4KB} plus {2MB} when it holds 2MB entries;
     *  capacity is split in proportion to typical occupancy. */
    std::vector<Level> l2_;
    PageWalker walker_;
    std::function<void(Asid, Addr)> on2mFill_;
    StatGroup stats_;

    // Hot-path stat handles (registered once; see common/stats.hh).
    StatScalar *stLookups_;
    StatScalar *stL1Hits_;
    StatScalar *stL2Lookups_;
    StatScalar *stL2Hits_;
    StatScalar *stWalks_;
    StatScalar *stFaults_;
    StatScalar *stInvlpg_;

    /** The L1 TLB holding @p size pages (one always does). */
    const Tlb &l1For(PageSize size) const;

    /** Probe @p levels in order. @return The first hit, or nullptr. */
    static const TlbEntry *probe(std::vector<Level> &levels, Asid asid,
                                 Addr va);

    /** Install @p t in the level of @p levels that holds its size, if
     *  any. */
    static void fill(std::vector<Level> &levels, Asid asid,
                     const Translation &t);

    /** The one hook rule: a superpage translation marks the 2MB
     *  region around the accessing address @p va (inside a 1GB page,
     *  any 2MB-aligned region is superpage-backed). */
    void markRegion(Asid asid, const Translation &t, Addr va);
};

} // namespace seesaw

#endif // SEESAW_TLB_TLB_HIERARCHY_HH
