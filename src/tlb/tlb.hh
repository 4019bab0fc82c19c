/**
 * @file
 * A set-associative (or fully-associative) TLB for one or more page
 * size classes, with ASID tags and a pluggable replacement policy
 * (LRU by default).
 */

#ifndef SEESAW_TLB_TLB_HH
#define SEESAW_TLB_TLB_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>

#include "cache/set_table.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace seesaw {

/** One TLB translation, unpacked from its SetTable key (vpn, asid,
 *  page size) and payload (the physical base). */
struct TlbEntry
{
    Asid asid = 0;
    Addr vpn = 0;     //!< va >> pageOffsetBits(size)
    Addr paBase = 0;  //!< physical base of the page
    PageSize size = PageSize::Base4KB;
};

/**
 * A TLB caching translations of one or more page size classes. Each
 * way matches at its own entry's page size.
 *
 * Intel-style split L1 TLBs (Table II) instantiate one of these per
 * size, indexed by that size. An ARM/SPARC-style unified L1 TLB is one
 * fully-associative Tlb holding every size, so a superpage-heavy phase
 * can fill the whole structure with superpage entries, and vice versa.
 *
 * Each entry's tag is one SetTable key: the page size in bits [1:0],
 * the ASID in bits [17:2] and the VPN above them. A lookup compares
 * whole keys; a TLB holding several sizes decodes each way's size from
 * its key. The physical base is the payload.
 */
class Tlb
{
  public:
    /**
     * @param name Statistic prefix.
     * @param entries Total entry count.
     * @param assoc Ways (entries == sets*assoc); pass entries for a
     *        fully-associative structure.
     * @param sizes The page size classes cached here. Sets are indexed
     *        by the page number of the one size; a TLB holding several
     *        sizes must be fully associative.
     * @param replacement Victim policy (default LRU).
     */
    Tlb(std::string name, unsigned entries, unsigned assoc,
        std::initializer_list<PageSize> sizes,
        ReplacementParams replacement = {});

    /** A TLB for the one page size @p size. */
    Tlb(std::string name, unsigned entries, unsigned assoc,
        PageSize size, ReplacementParams replacement = {})
        : Tlb(std::move(name), entries, assoc, {size}, replacement)
    {
    }

    /** Probe for the translation of @p va; touches the policy on hit.
     *  @return The entry (valid until the next lookup or mutation), or
     *  nullptr on a miss. */
    const TlbEntry *lookup(Asid asid, Addr va);

    /** Install the translation of the @p size page holding @p va
     *  (policy victim within the set; a refresh if an entry already
     *  covers @p va). */
    void insert(Asid asid, Addr va, Addr pa_base, PageSize size);

    /** Invalidate the entry covering @p va (invlpg). @return hit? */
    bool invalidatePage(Asid asid, Addr va);

    /** Drop everything. */
    void flushAll();

    /** Whether entries of @p size are cached here. */
    bool holds(PageSize size) const
    {
        return (sizeMask_ >> static_cast<unsigned>(size)) & 1U;
    }

    /** Number of currently valid entries (scheduler counter, §IV-B3). */
    unsigned validCount() const { return validCount_; }

    /** Valid entries caching superpage (2MB/1GB) translations. */
    unsigned superpageValidCount() const { return superpageCount_; }

    /** Visit every valid entry (invariant audits against the page
     *  table, dumps). */
    void forEachValidEntry(
        const std::function<void(const TlbEntry &)> &fn) const;

    unsigned entries() const { return numSets() * assoc(); }
    unsigned assoc() const { return table_.ways(); }
    unsigned numSets() const { return table_.numSets(); }

    /** Valid entries displaced by fills. */
    std::uint64_t evictions() const { return stEvictions_->count(); }

    /** @name Key packing. */
    /// @{
    static constexpr unsigned kAsidShift = 2;
    static constexpr unsigned kVpnShift = kAsidShift + 16;
    /** The largest VPN a key holds: a 4KB page number of a
     *  kVirtualAddressBits-wide VA. */
    static constexpr Addr kMaxVpn = ~Addr{0} >> kVpnShift;
    static_assert(kVpnShift + kVirtualAddressBits -
                          pageOffsetBits(PageSize::Base4KB) == 64,
                  "a TLB key must hold every modelled 4KB page number");

    /** The key of (@p vpn, @p asid, @p size); @p vpn must not exceed
     *  kMaxVpn. Never SetTable's empty key: size bits 3 name no size. */
    static std::uint64_t
    packKey(Addr vpn, Asid asid, PageSize size)
    {
        SEESAW_ASSERT(vpn <= kMaxVpn, "TLB VPN ", vpn,
                      " does not fit the packed key");
        return keyOf(vpn, asid, size);
    }

    /** The translation a (@p key, @p pa_base) entry holds. */
    static TlbEntry
    unpackKey(std::uint64_t key, Addr pa_base)
    {
        return TlbEntry{static_cast<Asid>(key >> kAsidShift),
                        key >> kVpnShift, pa_base, sizeOfKey(key)};
    }

    static PageSize
    sizeOfKey(std::uint64_t key)
    {
        return static_cast<PageSize>(key & ((1U << kAsidShift) - 1));
    }
    /// @}

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

  private:
    using Table = SetTable<Addr>; //!< payload: the physical base

    std::string name_;
    Table table_;
    std::uint8_t sizeMask_ = 0; //!< bit i: PageSize value i is held
    bool multiSize_ = false;
    PageSize indexSize_ = PageSize::Base4KB; //!< the set index's size
    unsigned indexShift_ = 0;   //!< page offset bits of the set index
    TlbEntry hit_;              //!< the entry lookup() last returned
    // Maintained incrementally: the scheduler reads both per access.
    unsigned validCount_ = 0;
    unsigned superpageCount_ = 0;
    StatGroup stats_;

    // Hot-path stat handles, registered once at construction so the
    // per-access path never touches the string-keyed stat map.
    StatScalar *stLookups_;
    StatScalar *stHits_;
    StatScalar *stMisses_;
    StatScalar *stFills_;
    StatScalar *stEvictions_;
    StatScalar *stInvalidations_;

    /** packKey() for a @p vpn already checked against kMaxVpn. */
    static std::uint64_t
    keyOf(Addr vpn, Asid asid, PageSize size)
    {
        return vpn << kVpnShift |
               static_cast<std::uint64_t>(asid) << kAsidShift |
               static_cast<std::uint64_t>(size);
    }

    unsigned setOf(Addr va) const
    {
        return static_cast<unsigned>((va >> indexShift_) &
                                     (numSets() - 1));
    }
    /** @return The way of @p set covering @p va, or
     *  SetTable::kNoWay. */
    unsigned find(unsigned set, Asid asid, Addr va) const;
};

} // namespace seesaw

#endif // SEESAW_TLB_TLB_HH
