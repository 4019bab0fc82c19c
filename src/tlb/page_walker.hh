/**
 * @file
 * An x86-64 radix page-table walker cost model.
 *
 * A 4KB leaf needs 4 levels (PML4, PDPT, PD, PT); 2MB leaves stop at
 * the PD (3 levels) and 1GB leaves at the PDPT (2 levels). Upper
 * levels usually hit in the page-walk caches; we charge a per-level
 * latency that reflects that mix.
 */

#ifndef SEESAW_TLB_PAGE_WALKER_HH
#define SEESAW_TLB_PAGE_WALKER_HH

#include <optional>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/page_table.hh"

namespace seesaw {

/** Outcome of a page walk. */
struct WalkResult
{
    Translation translation;
    unsigned cycles = 0;   //!< total walk latency
    unsigned levels = 0;   //!< radix levels touched
};

/**
 * Walks a PageTable and reports latency.
 */
class PageWalker
{
  public:
    /**
     * @param table The OS page table to walk.
     * @param cycles_per_level Average latency per radix level
     *        (page-walk-cache hits keep this well under DRAM latency).
     */
    explicit PageWalker(const PageTable &table,
                        unsigned cycles_per_level = 12);

    /** Walk for @p va. @return nullopt when unmapped (page fault). */
    std::optional<WalkResult> walk(Asid asid, Addr va);

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

  private:
    const PageTable &table_;
    unsigned cyclesPerLevel_;
    StatGroup stats_;
    StatScalar *stWalks_;
    StatScalar *stFaults_;
    StatScalar *stWalkCycles_;
};

} // namespace seesaw

#endif // SEESAW_TLB_PAGE_WALKER_HH
