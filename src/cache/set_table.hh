/**
 * @file
 * The one set-associative table under every tag store, TLB and TFT.
 *
 * A SetTable owns `sets × ways` entries and the ReplacementPolicy that
 * ranks them, and is the only code that scans a way range for a
 * matching entry, places a fill, or drops, clears and visits entries.
 * Validity lives in the entries alone (`Entry::valid`); the policy
 * keeps victim side-state only, so there is no second copy of which
 * ways are free for anything to disagree with.
 *
 * Way ranges are half-open [begin, end): SEESAW's partition-scoped
 * searches and fills use a partition's ways, everything else the
 * whole set.
 */

#ifndef SEESAW_CACHE_SET_TABLE_HH
#define SEESAW_CACHE_SET_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cache/replacement.hh"
#include "common/logging.hh"

namespace seesaw {

/**
 * @tparam Entry A default-constructible entry with a `bool valid`
 *         member; a default entry is an empty way.
 */
template <typename Entry>
class SetTable
{
  public:
    /** find()'s miss result. */
    static constexpr unsigned kNoWay = ~0U;

    SetTable(unsigned num_sets, unsigned ways,
             const ReplacementParams &replacement)
        : ways_(ways),
          entries_(static_cast<std::size_t>(num_sets) * ways),
          policy_(replacement, num_sets, ways)
    {
    }

    unsigned numSets() const { return policy_.numSets(); }
    unsigned ways() const { return ways_; }

    Entry &at(unsigned set, unsigned way) { return setBase(set)[way]; }
    const Entry &
    at(unsigned set, unsigned way) const
    {
        return setBase(set)[way];
    }

    /** @return The first way of [begin, end) of @p set whose entry is
     *  valid and satisfies @p match, or kNoWay. */
    template <typename Match>
    unsigned
    find(unsigned set, unsigned begin, unsigned end,
         const Match &match) const
    {
        const Entry *base = setBase(set);
        for (unsigned way = begin; way < end; ++way) {
            if (base[way].valid && match(base[way]))
                return way;
        }
        return kNoWay;
    }

    /** find() over the whole set. */
    template <typename Match>
    unsigned
    find(unsigned set, const Match &match) const
    {
        return find(set, 0, ways_, match);
    }

    /** A valid way was hit by a demand access. */
    void touch(unsigned set, unsigned way) { policy_.touch(set, way); }

    /**
     * Install @p incoming into ways [begin, end) of @p set: the first
     * invalid way of the range if there is one, else the policy's
     * victim. @return The entry it displaced (not valid when the way
     * was free).
     */
    Entry
    place(unsigned set, unsigned begin, unsigned end,
          const Entry &incoming)
    {
        SEESAW_ASSERT(incoming.valid, "placing an invalid entry");
        Entry *base = setBase(set);
        unsigned way = begin;
        while (way < end && base[way].valid)
            ++way;
        if (way == end)
            way = policy_.victim(set, begin, end);
        const Entry displaced = base[way];
        base[way] = incoming;
        policy_.fill(set, way);
        return displaced;
    }

    /** Empty the way (set, way). */
    void drop(unsigned set, unsigned way) { at(set, way) = Entry{}; }

    /** Drop every valid entry that @p pred accepts.
     *  @return How many were dropped. */
    template <typename Pred>
    unsigned
    dropIf(const Pred &pred)
    {
        unsigned dropped = 0;
        for (Entry &e : entries_) {
            if (e.valid && pred(e)) {
                e = Entry{};
                ++dropped;
            }
        }
        return dropped;
    }

    /** Empty every way. */
    void clear() { std::fill(entries_.begin(), entries_.end(), Entry{}); }

    /** Visit every valid entry as fn(set, way, entry), in set order. */
    template <typename Fn>
    void
    forEachValid(const Fn &fn) const
    {
        for (unsigned set = 0; set < numSets(); ++set) {
            const Entry *base = setBase(set);
            for (unsigned way = 0; way < ways_; ++way) {
                if (base[way].valid)
                    fn(set, way, base[way]);
            }
        }
    }

    /** Run the policy's own audit over @p set's valid ways. */
    void
    auditSet(unsigned set, const ReplacementPolicy::AuditFail &fail) const
    {
        policy_.auditSet(
            set, [&](unsigned way) { return at(set, way).valid; }, fail);
    }

    ReplacementPolicy &policy() { return policy_; }
    const ReplacementPolicy &policy() const { return policy_; }

  private:
    unsigned ways_;
    std::vector<Entry> entries_;
    ReplacementPolicy policy_;

    Entry *
    setBase(unsigned set)
    {
        return &entries_[static_cast<std::size_t>(set) * ways_];
    }
    const Entry *
    setBase(unsigned set) const
    {
        return &entries_[static_cast<std::size_t>(set) * ways_];
    }
};

} // namespace seesaw

#endif // SEESAW_CACHE_SET_TABLE_HH
