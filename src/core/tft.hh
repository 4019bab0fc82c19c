/**
 * @file
 * The Translation Filter Table (TFT) — SEESAW's page-size predictor
 * (Section IV-A2, Fig 5).
 *
 * The TFT is a small list of 2MB virtual regions known to be backed by
 * superpages. It is probed in parallel with the L1 TLBs (in about a
 * quarter of a 1.33GHz cycle); a hit *guarantees* the access is to a
 * superpage, so the L1 can commit to reading a single partition. The
 * TFT never hits for base-page accesses: entries are only inserted when
 * a superpage translation is filled into the L1 TLB and are invalidated
 * when the OS splinters the superpage (invlpg) or on a context switch
 * (the TFT is not ASID-tagged; Section IV-C3 measured ASID tags as not
 * worth their area).
 *
 * The paper uses a direct-mapped TFT and notes that "set-associative
 * implementations are possible"; both are supported here (assoc = 1 is
 * the paper's design). A 16-entry TFT stores 43-bit region tags: 86
 * bytes per core.
 */

#ifndef SEESAW_CORE_TFT_HH
#define SEESAW_CORE_TFT_HH

#include <cstdint>
#include <functional>

#include "cache/set_table.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace seesaw {

/**
 * Direct-mapped or set-associative translation filter table.
 */
class Tft
{
  public:
    /**
     * @param entries Number of entries (paper: 16).
     * @param assoc Ways per set: 1 (paper's direct-mapped design) up
     *        to @p entries (fully associative). Must divide entries.
     * @param replacement Victim policy for associative tables
     *        (irrelevant at assoc 1, exactly as the paper observes).
     */
    explicit Tft(unsigned entries = 16, unsigned assoc = 1,
                 ReplacementParams replacement = {});

    /**
     * Probe for the 2MB region containing @p va.
     * @return True when the region is known to be superpage-backed.
     */
    bool lookup(Addr va);

    /** Non-mutating, non-counting probe. */
    bool peek(Addr va) const;

    /** Mark the 2MB region of @p va as superpage-backed (fired on
     *  every superpage L1 TLB fill). Direct-mapped tables displace the
     *  previous occupant; associative ones evict LRU. */
    void markRegion(Addr va);

    /** Invalidate the entry for @p va's region if present (invlpg on
     *  a splintered superpage). @return True if an entry was dropped. */
    bool invalidateRegion(Addr va);

    /** Flush everything (context switch; the TFT has no ASID tags). */
    void flush();

    unsigned entries() const { return numSets() * assoc(); }
    unsigned assoc() const { return table_.ways(); }
    unsigned numSets() const { return table_.numSets(); }

    /** Valid-entry count (for area/occupancy reporting). */
    unsigned validCount() const;

    /** Visit the 2MB-aligned virtual base of every valid entry
     *  (invariant audits: each must still be superpage-backed). */
    void forEachValidRegion(
        const std::function<void(Addr va_base)> &fn) const;

    /** Storage footprint in bytes: 43-bit tags + valid bit (plus
     *  replacement side-state bits when associative). */
    double storageBytes() const;

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

  private:
    /** An entry is its region tag (va >> 21, 43 significant bits),
     *  held as the SetTable key; nothing else is stored. */
    struct NoPayload
    {
    };

    ReplacementParams replacement_; //!< for storageBytes()
    SetTable<NoPayload> table_;
    StatGroup stats_;

    // Hot-path stat handles (registered once; see common/stats.hh).
    StatScalar *stLookups_;
    StatScalar *stHits_;
    StatScalar *stMisses_;
    StatScalar *stFills_;
    StatScalar *stConflictEvictions_;
    StatScalar *stInvalidations_;
    StatScalar *stFlushes_;

    static Addr regionOf(Addr va) { return va >> 21; }

    unsigned
    setOf(Addr region) const
    {
        // The paper's hash: VA(63:21) MOD (#sets).
        return static_cast<unsigned>(region % numSets());
    }

    /** @return The way of @p region's set holding it, or
     *  SetTable::kNoWay. */
    unsigned
    find(Addr region) const
    {
        return table_.find(setOf(region), region);
    }
};

} // namespace seesaw

#endif // SEESAW_CORE_TFT_HH
