#include "tlb/tlb.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace seesaw {

Tlb::Tlb(std::string name, unsigned entries, unsigned assoc,
         std::initializer_list<PageSize> sizes,
         ReplacementParams replacement)
    : name_(std::move(name)), entries_(entries), assoc_(assoc),
      slots_(entries), stats_(name_),
      stLookups_(&stats_.scalar("lookups")),
      stHits_(&stats_.scalar("hits")),
      stMisses_(&stats_.scalar("misses")),
      stFills_(&stats_.scalar("fills")),
      stEvictions_(&stats_.scalar("evictions")),
      stInvalidations_(&stats_.scalar("invalidations"))
{
    SEESAW_ASSERT(entries_ > 0 && assoc_ > 0 && entries_ % assoc_ == 0,
                  "bad TLB geometry");
    numSets_ = entries_ / assoc_;
    SEESAW_ASSERT(numSets_ == 1 || isPowerOfTwo(numSets_),
                  "TLB set count must be a power of two");
    SEESAW_ASSERT(sizes.size() > 0, "TLB holds no page size");
    for (PageSize size : sizes)
        sizeMask_ |= static_cast<std::uint8_t>(
            1U << static_cast<unsigned>(size));
    SEESAW_ASSERT(sizes.size() == 1 || numSets_ == 1,
                  "a TLB holding several page sizes must be fully "
                  "associative");
    multiSize_ = sizes.size() > 1;
    indexShift_ = pageOffsetBits(*sizes.begin());
    policy_.emplace(replacement, numSets_, assoc_);
}

std::size_t
Tlb::slotOf(const TlbEntry *e) const
{
    return static_cast<std::size_t>(e - slots_.data());
}

TlbEntry *
Tlb::find(Asid asid, Addr va)
{
    TlbEntry *base = &slots_[std::size_t{setOf(va)} * assoc_];
    // Every entry of a one-size TLB shares the set index's page size,
    // so it shifts once; a multi-size TLB shifts per way.
    const Addr vpn = va >> indexShift_;
    for (unsigned way = 0; way < assoc_; ++way) {
        TlbEntry &e = base[way];
        if (e.valid && e.asid == asid &&
            e.vpn == (multiSize_ ? va >> pageOffsetBits(e.size) : vpn))
            return &e;
    }
    return nullptr;
}

const TlbEntry *
Tlb::lookup(Asid asid, Addr va)
{
    ++*stLookups_;
    TlbEntry *e = find(asid, va);
    if (!e) {
        ++*stMisses_;
        return nullptr;
    }
    ++*stHits_;
    policy_->touchAt(slotOf(e));
    return e;
}

void
Tlb::insert(Asid asid, Addr va, Addr pa_base, PageSize size)
{
    SEESAW_ASSERT(holds(size), "TLB fill of a page size it does not hold");
    SEESAW_ASSERT(pa_base % pageBytes(size) == 0, "unaligned TLB fill");
    const TlbEntry fill{true, asid, va >> pageOffsetBits(size), pa_base,
                        size};

    if (TlbEntry *existing = find(asid, va)) {
        // Refresh in place. In a multi-size TLB the covering entry may
        // be of another size; the fill rewrites it.
        superpageCount_ += isSuperpage(size) ? 1 : 0;
        superpageCount_ -= isSuperpage(existing->size) ? 1 : 0;
        *existing = fill;
        policy_->touchAt(slotOf(existing));
        return;
    }

    const unsigned set = setOf(va);
    const unsigned way = policy_->victim(set, 0, assoc_);
    TlbEntry &victim = slots_[std::size_t{set} * assoc_ + way];
    if (victim.valid) {
        ++*stEvictions_;
        superpageCount_ -= isSuperpage(victim.size) ? 1 : 0;
    } else {
        ++validCount_;
    }
    superpageCount_ += isSuperpage(size) ? 1 : 0;
    victim = fill;
    policy_->fill(set, way);
    ++*stFills_;
}

void
Tlb::drop(TlbEntry &e)
{
    e.valid = false;
    policy_->invalidateAt(slotOf(&e));
    --validCount_;
    superpageCount_ -= isSuperpage(e.size) ? 1 : 0;
}

bool
Tlb::invalidatePage(Asid asid, Addr va)
{
    TlbEntry *e = find(asid, va);
    if (!e)
        return false;
    drop(*e);
    ++*stInvalidations_;
    return true;
}

void
Tlb::flushAll()
{
    for (TlbEntry &e : slots_) {
        if (e.valid)
            drop(e);
    }
}

void
Tlb::forEachValidEntry(
    const std::function<void(const TlbEntry &)> &fn) const
{
    for (const auto &e : slots_) {
        if (e.valid)
            fn(e);
    }
}

} // namespace seesaw
