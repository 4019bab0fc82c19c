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
    indexSize_ = *sizes.begin();
    indexShift_ = pageOffsetBits(indexSize_);
}

unsigned
Tlb::find(unsigned set, Asid asid, Addr va) const
{
    // A VPN beyond kMaxVpn has no key, so no fill can have stored it.
    if (!multiSize_) {
        // Every entry of a one-size TLB shares the set index's page
        // size: one key to compare.
        const Addr vpn = va >> indexShift_;
        return vpn > kMaxVpn ? Table::kNoWay
                             : table_.find(set, keyOf(vpn, asid,
                                                      indexSize_));
    }
    // A multi-size TLB compares each way's key against the key @p va
    // would have at that way's own page size. kEmpty stands for "no
    // such key": findIf() never offers a free way.
    std::uint64_t wanted[4] = {Table::kEmpty, Table::kEmpty,
                               Table::kEmpty, Table::kEmpty};
    for (PageSize size :
         {PageSize::Base4KB, PageSize::Super2MB, PageSize::Super1GB}) {
        const Addr vpn = va >> pageOffsetBits(size);
        if (holds(size) && vpn <= kMaxVpn)
            wanted[static_cast<unsigned>(size)] =
                keyOf(vpn, asid, size);
    }
    return table_.findIf(set, [&](std::uint64_t key) {
        return key == wanted[static_cast<unsigned>(sizeOfKey(key))];
    });
}

const TlbEntry *
Tlb::lookup(Asid asid, Addr va)
{
    ++*stLookups_;
    const unsigned set = setOf(va);
    const unsigned way = find(set, asid, va);
    if (way == Table::kNoWay) {
        ++*stMisses_;
        return nullptr;
    }
    ++*stHits_;
    table_.touch(set, way);
    hit_ = unpackKey(table_.key(set, way), table_.payload(set, way));
    return &hit_;
}

void
Tlb::insert(Asid asid, Addr va, Addr pa_base, PageSize size)
{
    SEESAW_ASSERT(holds(size), "TLB fill of a page size it does not hold");
    SEESAW_ASSERT(pa_base % pageBytes(size) == 0, "unaligned TLB fill");
    const std::uint64_t key =
        packKey(va >> pageOffsetBits(size), asid, size);

    const unsigned set = setOf(va);
    superpageCount_ += isSuperpage(size) ? 1 : 0;
    if (const unsigned way = find(set, asid, va); way != Table::kNoWay) {
        // Refresh in place. In a multi-size TLB the covering entry may
        // be of another size; the fill rewrites it.
        superpageCount_ -=
            isSuperpage(sizeOfKey(table_.key(set, way))) ? 1 : 0;
        table_.overwrite(set, way, key, pa_base);
        table_.touch(set, way);
        return;
    }

    const Table::Entry victim = table_.place(set, 0, assoc(), key, pa_base);
    if (victim.valid()) {
        ++*stEvictions_;
        superpageCount_ -= isSuperpage(sizeOfKey(victim.key)) ? 1 : 0;
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
    if (way == Table::kNoWay)
        return false;
    superpageCount_ -= isSuperpage(sizeOfKey(table_.key(set, way))) ? 1 : 0;
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
        [&](unsigned, unsigned, std::uint64_t key, Addr pa_base) {
            fn(unpackKey(key, pa_base));
        });
}

} // namespace seesaw
