#include "tlb/tlb.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace seesaw {

namespace {

/** Sets of an @p entries-entry, @p assoc-way TLB; asserts the
 *  geometry is buildable. */
unsigned
checkedSets(unsigned entries, unsigned assoc)
{
    SEESAW_ASSERT(entries > 0 && assoc > 0 && entries % assoc == 0,
                  "bad TLB geometry");
    const unsigned sets = entries / assoc;
    SEESAW_ASSERT(sets == 1 || isPowerOfTwo(sets),
                  "TLB set count must be a power of two");
    return sets;
}

} // namespace

Tlb::Tlb(std::string name, unsigned entries, unsigned assoc,
         std::initializer_list<PageSize> sizes,
         ReplacementParams replacement)
    : name_(std::move(name)),
      table_(checkedSets(entries, assoc), assoc, replacement),
      stats_(name_),
      stLookups_(&stats_.scalar("lookups")),
      stHits_(&stats_.scalar("hits")),
      stMisses_(&stats_.scalar("misses")),
      stFills_(&stats_.scalar("fills")),
      stEvictions_(&stats_.scalar("evictions")),
      stInvalidations_(&stats_.scalar("invalidations"))
{
    SEESAW_ASSERT(sizes.size() > 0, "TLB holds no page size");
    for (PageSize size : sizes)
        sizeMask_ |= static_cast<std::uint8_t>(
            1U << static_cast<unsigned>(size));
    SEESAW_ASSERT(sizes.size() == 1 || numSets() == 1,
                  "a TLB holding several page sizes must be fully "
                  "associative");
    multiSize_ = sizes.size() > 1;
    indexShift_ = pageOffsetBits(*sizes.begin());
}

unsigned
Tlb::find(unsigned set, Asid asid, Addr va) const
{
    // Every entry of a one-size TLB shares the set index's page size,
    // so it shifts once; a multi-size TLB shifts per way.
    const Addr vpn = va >> indexShift_;
    return table_.find(set, [&](const TlbEntry &e) {
        return e.asid == asid &&
               e.vpn == (multiSize_ ? va >> pageOffsetBits(e.size) : vpn);
    });
}

const TlbEntry *
Tlb::lookup(Asid asid, Addr va)
{
    ++*stLookups_;
    const unsigned set = setOf(va);
    const unsigned way = find(set, asid, va);
    if (way == SetTable<TlbEntry>::kNoWay) {
        ++*stMisses_;
        return nullptr;
    }
    ++*stHits_;
    table_.touch(set, way);
    return &table_.at(set, way);
}

void
Tlb::insert(Asid asid, Addr va, Addr pa_base, PageSize size)
{
    SEESAW_ASSERT(holds(size), "TLB fill of a page size it does not hold");
    SEESAW_ASSERT(pa_base % pageBytes(size) == 0, "unaligned TLB fill");
    const TlbEntry fill{true, asid, va >> pageOffsetBits(size), pa_base,
                        size};

    const unsigned set = setOf(va);
    superpageCount_ += isSuperpage(size) ? 1 : 0;
    if (const unsigned way = find(set, asid, va);
        way != SetTable<TlbEntry>::kNoWay) {
        // Refresh in place. In a multi-size TLB the covering entry may
        // be of another size; the fill rewrites it.
        TlbEntry &existing = table_.at(set, way);
        superpageCount_ -= isSuperpage(existing.size) ? 1 : 0;
        existing = fill;
        table_.touch(set, way);
        return;
    }

    const TlbEntry victim = table_.place(set, 0, assoc(), fill);
    if (victim.valid) {
        ++*stEvictions_;
        superpageCount_ -= isSuperpage(victim.size) ? 1 : 0;
    } else {
        ++validCount_;
    }
    ++*stFills_;
}

bool
Tlb::invalidatePage(Asid asid, Addr va)
{
    const unsigned set = setOf(va);
    const unsigned way = find(set, asid, va);
    if (way == SetTable<TlbEntry>::kNoWay)
        return false;
    superpageCount_ -= isSuperpage(table_.at(set, way).size) ? 1 : 0;
    --validCount_;
    table_.drop(set, way);
    ++*stInvalidations_;
    return true;
}

void
Tlb::flushAll()
{
    table_.clear();
    validCount_ = 0;
    superpageCount_ = 0;
}

void
Tlb::forEachValidEntry(
    const std::function<void(const TlbEntry &)> &fn) const
{
    table_.forEachValid(
        [&](unsigned, unsigned, const TlbEntry &e) { fn(e); });
}

} // namespace seesaw
