/**
 * @file
 * The one set-associative table under every tag store, TLB and TFT.
 *
 * A SetTable owns `sets × ways` entries and the ReplacementPolicy that
 * ranks them, and is the only code that scans a way range for a
 * matching entry, places a fill, or drops, clears and visits entries.
 *
 * Each entry is split in two. Its 64-bit key (the line address, the
 * TFT region tag, the packed TLB tag) sits in a per-set contiguous key
 * array, and the rest of the entry (the payload) in a parallel array.
 * Validity is folded into the key: kEmpty marks a free way, so a
 * search compares one contiguous run of keys and touches a payload
 * only on a hit. The policy keeps victim side-state only, so there is
 * no second copy of which ways are free for anything to disagree with.
 *
 * Way ranges are half-open [begin, end): SEESAW's partition-scoped
 * searches and fills use a partition's ways, everything else the
 * whole set.
 */

#ifndef SEESAW_CACHE_SET_TABLE_HH
#define SEESAW_CACHE_SET_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "common/logging.hh"

namespace seesaw {

/**
 * @tparam Payload A default-constructible per-entry payload; a free
 *         way holds a default payload.
 */
template <typename Payload>
class SetTable
{
  public:
    /** An entry's tag. No structure's tag encoding produces kEmpty. */
    using Key = std::uint64_t;

    /** The key of a free way. */
    static constexpr Key kEmpty = ~Key{0};

    /** find()'s miss result. */
    static constexpr unsigned kNoWay = ~0U;

    /** A whole entry, handed back by place(). */
    struct Entry
    {
        Key key = kEmpty;
        Payload payload{};

        bool valid() const { return key != kEmpty; }
    };

    SetTable(unsigned num_sets, unsigned ways,
             const ReplacementParams &replacement)
        : ways_(ways),
          keys_(static_cast<std::size_t>(num_sets) * ways, kEmpty),
          payloads_(static_cast<std::size_t>(num_sets) * ways),
          policy_(replacement, num_sets, ways)
    {
    }

    unsigned numSets() const { return policy_.numSets(); }
    unsigned ways() const { return ways_; }

    Key key(unsigned set, unsigned way) const
    {
        return keys_[slot(set, way)];
    }
    bool valid(unsigned set, unsigned way) const
    {
        return key(set, way) != kEmpty;
    }

    Payload &
    payload(unsigned set, unsigned way)
    {
        return payloads_[slot(set, way)];
    }
    const Payload &
    payload(unsigned set, unsigned way) const
    {
        return payloads_[slot(set, way)];
    }

    /** @return The first way of [begin, end) of @p set holding @p key,
     *  or kNoWay. */
    unsigned
    find(unsigned set, unsigned begin, unsigned end, Key key) const
    {
        const Key *keys = &keys_[slot(set, 0)];
        for (unsigned way = begin; way < end; ++way) {
            if (keys[way] == key)
                return way;
        }
        return kNoWay;
    }

    /** find() over the whole set. */
    unsigned
    find(unsigned set, Key key) const
    {
        return find(set, 0, ways_, key);
    }

    /** @return The first way of @p set whose key is valid and
     *  satisfies @p match (a TLB holding several page sizes decodes
     *  each way's size from its key), or kNoWay. */
    template <typename Match>
    unsigned
    findIf(unsigned set, const Match &match) const
    {
        const Key *keys = &keys_[slot(set, 0)];
        for (unsigned way = 0; way < ways_; ++way) {
            if (keys[way] != kEmpty && match(keys[way]))
                return way;
        }
        return kNoWay;
    }

    /** A valid way was hit by a demand access. */
    void touch(unsigned set, unsigned way) { policy_.touch(set, way); }

    /**
     * Install (@p key, @p payload) into ways [begin, end) of @p set:
     * the first free way of the range if there is one, else the
     * policy's victim. @return The entry it displaced (not valid when
     * the way was free).
     */
    Entry
    place(unsigned set, unsigned begin, unsigned end, Key key,
          const Payload &payload)
    {
        SEESAW_ASSERT(key != kEmpty, "placing an empty key");
        const std::size_t base = slot(set, 0);
        unsigned way = begin;
        while (way < end && keys_[base + way] != kEmpty)
            ++way;
        if (way == end)
            way = policy_.victim(set, begin, end);
        const Entry displaced{keys_[base + way], payloads_[base + way]};
        keys_[base + way] = key;
        payloads_[base + way] = payload;
        policy_.fill(set, way);
        return displaced;
    }

    /** Rewrite the valid way (set, way) in place: no victim is drawn
     *  and the policy is not told (the caller touches if it wants). */
    void
    overwrite(unsigned set, unsigned way, Key key, const Payload &payload)
    {
        SEESAW_ASSERT(key != kEmpty, "overwriting with an empty key");
        keys_[slot(set, way)] = key;
        payloads_[slot(set, way)] = payload;
    }

    /** Free the way (set, way). */
    void
    drop(unsigned set, unsigned way)
    {
        keys_[slot(set, way)] = kEmpty;
        payloads_[slot(set, way)] = Payload{};
    }

    /** Drop every valid entry that @p pred(key, payload) accepts.
     *  @return How many were dropped. */
    template <typename Pred>
    unsigned
    dropIf(const Pred &pred)
    {
        unsigned dropped = 0;
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmpty && pred(keys_[i], payloads_[i])) {
                keys_[i] = kEmpty;
                payloads_[i] = Payload{};
                ++dropped;
            }
        }
        return dropped;
    }

    /** Free every way. */
    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), kEmpty);
        std::fill(payloads_.begin(), payloads_.end(), Payload{});
    }

    /** Visit every valid entry as fn(set, way, key, payload), in set
     *  order. */
    template <typename Fn>
    void
    forEachValid(const Fn &fn) const
    {
        for (unsigned set = 0; set < numSets(); ++set) {
            for (unsigned way = 0; way < ways_; ++way) {
                const std::size_t i = slot(set, way);
                if (keys_[i] != kEmpty)
                    fn(set, way, keys_[i], payloads_[i]);
            }
        }
    }

    /** Run the policy's own audit over @p set's valid ways. */
    void
    auditSet(unsigned set, const ReplacementPolicy::AuditFail &fail) const
    {
        policy_.auditSet(
            set, [&](unsigned way) { return valid(set, way); }, fail);
    }

    ReplacementPolicy &policy() { return policy_; }
    const ReplacementPolicy &policy() const { return policy_; }

    /**
     * Test-only access to a way's key. Mutation tests corrupt a tag
     * here to prove the tag-store audits fire.
     */
    Key &debugKeyAt(unsigned set, unsigned way)
    {
        return keys_[slot(set, way)];
    }

  private:
    unsigned ways_;
    std::vector<Key> keys_;         //!< sets × ways, kEmpty when free
    std::vector<Payload> payloads_; //!< parallel to keys_
    ReplacementPolicy policy_;

    std::size_t
    slot(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }
};

} // namespace seesaw

#endif // SEESAW_CACHE_SET_TABLE_HH
