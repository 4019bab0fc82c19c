/**
 * @file
 * Per-process (per-ASID) page tables supporting x86-64's 4KB, 2MB and
 * 1GB page sizes, with an x86-style radix-walk cost model.
 */

#ifndef SEESAW_MEM_PAGE_TABLE_HH
#define SEESAW_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/translation_cache.hh"

namespace seesaw {

/** The result of a successful translation. */
struct Translation
{
    Addr paBase;     //!< physical base of the containing page
    Addr vaBase;     //!< virtual base of the containing page
    PageSize size;   //!< page size of the mapping

    /** Translate @p va (must lie inside this page). */
    Addr
    translate(Addr va) const
    {
        return paBase + (va - vaBase);
    }
};

/**
 * A multi-page-size page table for one or more address spaces.
 *
 * Mappings are stored per size class; map() rejects overlapping ranges
 * so that at most one mapping covers any virtual byte of an ASID.
 */
class PageTable
{
  public:
    /**
     * Install a mapping of one page of @p size at @p va_base -> @p
     * pa_base (both must be size-aligned).
     * @return False if any part of the range is already mapped.
     */
    bool map(Asid asid, Addr va_base, Addr pa_base, PageSize size);

    /** Remove the mapping of the page at @p va_base.
     *  @return The removed translation, if one existed. */
    std::optional<Translation> unmap(Asid asid, Addr va_base,
                                     PageSize size);

    /** Look up the translation covering @p va. Fast path: one probe
     *  of the software translation cache; falls back to (and refills
     *  from) the hash tables on a miss. */
    std::optional<Translation>
    translate(Asid asid, Addr va) const
    {
        if (const TranslationCacheEntry *e = tcache_.lookup(asid, va))
            return Translation{e->paBase, e->vaBase, e->size};
        return translateMissing(asid, va);
    }

    /** The uncached probe of the per-size hash tables. Authoritative;
     *  the audit layer replays it against every live cache entry. */
    std::optional<Translation> translateSlow(Asid asid, Addr va) const;

    /** The software translation cache fronting translate() (audits,
     *  tests; mutable so tests can seed corruption). */
    const TranslationCache &translationCache() const { return tcache_; }
    TranslationCache &translationCache() { return tcache_; }

    /** @return Number of radix levels an x86-64 walk touches for a leaf
     *  of @p size (4 for 4KB, 3 for 2MB, 2 for 1GB). */
    static unsigned walkLevels(PageSize size);

    /** Iterate over every 4KB mapping of @p asid inside the 2MB virtual
     *  region based at @p region_va (for promotion scans). */
    void forEachBaseMappingIn2MBRegion(
        Asid asid, Addr region_va,
        const std::function<void(Addr va, Addr pa)> &fn) const;

    /** Count of 4KB mappings inside the 2MB region at @p region_va. */
    unsigned baseMappingsIn2MBRegion(Asid asid, Addr region_va) const;

    /** Every mapping of @p asid by pages of @p size, in VA order. */
    std::vector<Translation> mappings(Asid asid, PageSize size) const;

    /** Total mapped bytes for @p asid. */
    std::uint64_t mappedBytes(Asid asid) const;

    /** Mapped bytes backed by pages of @p size for @p asid. */
    std::uint64_t mappedBytes(Asid asid, PageSize size) const;

    /** Drop every mapping of @p asid. */
    void clearAsid(Asid asid);

  private:
    struct AddressSpace
    {
        // Key: va >> pageOffsetBits(size); value: pa base.
        std::unordered_map<Addr, Addr> base4k;
        std::unordered_map<Addr, Addr> super2m;
        std::unordered_map<Addr, Addr> super1g;
    };

    std::unordered_map<Asid, AddressSpace> spaces_;

    /** Flattens the triple-hash translate() probe to one array load;
     *  invalidated by generation bump on unmap()/clearAsid(). Mutable:
     *  it memoises const lookups. */
    mutable TranslationCache tcache_;

    /** Slow-path translate + cache refill (out of line). */
    std::optional<Translation> translateMissing(Asid asid,
                                                Addr va) const;

    const AddressSpace *space(Asid asid) const;

    /** True if any existing mapping overlaps [va, va + bytes). */
    bool overlaps(const AddressSpace &as, Addr va,
                  std::uint64_t bytes) const;
};

} // namespace seesaw

#endif // SEESAW_MEM_PAGE_TABLE_HH
