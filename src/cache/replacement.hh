/**
 * @file
 * Pluggable replacement policies over contiguous way ranges.
 *
 * SEESAW's insertion policies (Section IV-B1) differ only in the way
 * range a victim is drawn from: the line's partition (`4way`) or the
 * whole set (`4way-8way` for base pages). Victim *selection* within
 * that range is a separate axis; a ReplacementPolicy owns the per-set
 * side-state (recency stamps, fill order, RRPVs) so the tag stores,
 * TLBs and the TFT can share one substrate while sweeping policies.
 *
 * The policy keeps victim side-state only. Validity lives in the
 * keys of the SetTable that owns the policy (cache/set_table.hh),
 * and the table applies the "first invalid way wins" rule before it
 * asks for a victim, so victim() only ever ranks full ranges.
 *
 * The class is deliberately concrete: touch() and fill() sit on the
 * demand-hit path of every cache, TLB and TFT probe, so the per-kind
 * behaviour is dispatched by an inline switch on the (fixed) kind tag
 * rather than a vtable. Selecting a policy is a construction-time
 * decision; per-access indirect calls would tax the default LRU
 * configuration for a flexibility no caller uses dynamically.
 */

#ifndef SEESAW_CACHE_REPLACEMENT_HH
#define SEESAW_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace seesaw {

/** Coherence state of a cached line (MOESI). */
enum class CoherenceState : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,
    Owned,
    Modified,
};

/** @return True when the state implies the local copy is dirty. */
constexpr bool
isDirtyState(CoherenceState s)
{
    return s == CoherenceState::Modified || s == CoherenceState::Owned;
}

/**
 * The payload of one tag-store line. Its line address (physical
 * address >> log2(line size)) is the line's SetTable key, which alone
 * says whether the way holds a line (cache/set_table.hh).
 */
struct CacheLine
{
    CoherenceState state = CoherenceState::Invalid;
    bool prefetched = false; //!< installed by a prefetch, not yet
                             //!< demanded
    PageSize pageSize = PageSize::Base4KB; //!< page the line came from
};

/** Victim-selection policy for a tag store. */
enum class ReplacementKind : std::uint8_t {
    Lru,    //!< least-recently-used (the pinned default)
    Fifo,   //!< oldest fill, touches ignored
    Random, //!< uniform over the range, seeded deterministically
    Srrip,  //!< static re-reference interval prediction
};

/** Replacement configuration, shared by caches, TLBs and the TFT. */
struct ReplacementParams
{
    ReplacementKind kind = ReplacementKind::Lru;
    unsigned rripBits = 2;      //!< RRPV width for Srrip
    std::uint64_t seed = 1;     //!< base seed for Random; construction
                                //!< sites decorrelate per structure
};

/** @return @p params with its Random seed decorrelated by @p salt, so
 *  sibling structures (D/I tags, TFT, each TLB level) sharing one
 *  configured seed still draw independent streams. */
inline ReplacementParams
withSeedSalt(ReplacementParams params, std::uint64_t salt)
{
    params.seed ^= salt;
    return params;
}

/**
 * Per-structure replacement state: one instance per tag store, owning
 * all side-state (the tag store keeps none). Victim ranges are
 * half-open [begin, end) so SEESAW's partition-scoped draws work
 * unchanged.
 */
class ReplacementPolicy
{
  public:
    ReplacementPolicy(const ReplacementParams &params, unsigned num_sets,
                      unsigned assoc);

    ReplacementKind kind() const { return kind_; }
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** A resident way was hit by a demand access. */
    void
    touch(unsigned set, unsigned way)
    {
        if (singleWay_)
            return; // one way per set: the victim is fixed, stamps dead
        switch (kind_) {
          case ReplacementKind::Lru:
            state_[slot(set, way)] = ++clock_;
            return;
          case ReplacementKind::Fifo:
          case ReplacementKind::Random:
            return; // reuse never reorders these
          case ReplacementKind::Srrip:
            state_[slot(set, way)] = 0; // near-immediate re-reference
            return;
        }
    }

    /** A line was installed into @p way. */
    void
    fill(unsigned set, unsigned way)
    {
        if (singleWay_)
            return;
        const std::size_t s = slot(set, way);
        switch (kind_) {
          case ReplacementKind::Lru:
          case ReplacementKind::Fifo:
            state_[s] = ++clock_;
            return;
          case ReplacementKind::Random:
            return;
          case ReplacementKind::Srrip:
            state_[s] = maxRrpv_ - 1; // long re-reference
            return;
        }
    }

    /**
     * Choose a victim among ways [begin, end) of @p set, every one of
     * which holds a valid entry. Defined inline: it sits on the miss
     * path of every insert, and the LRU scan used to live inside the
     * tag store's insert loop.
     */
    unsigned
    victim(unsigned set, unsigned begin, unsigned end)
    {
        SEESAW_ASSERT(begin < end, "empty victim range");
        // A single-way range has a fixed victim: no stamp to compare,
        // no Random draw, no SRRIP aging.
        if (end - begin == 1)
            return begin;
        const std::size_t slot0 = static_cast<std::size_t>(set) * assoc_;
        if (kind_ == ReplacementKind::Lru ||
            kind_ == ReplacementKind::Fifo) {
            // Strictly-oldest stamp scanned from `begin` — for LRU
            // this is bit-identical to the old selectLruVictim() given
            // the same touch/fill sequence.
            unsigned victim = begin;
            std::uint64_t oldest = ~std::uint64_t{0};
            for (unsigned way = begin; way < end; ++way) {
                if (state_[slot0 + way] < oldest) {
                    oldest = state_[slot0 + way];
                    victim = way;
                }
            }
            return victim;
        }
        return victimSlow(slot0, begin, end);
    }

    /** Violation sink for auditSet(): (way, detail). */
    using AuditFail =
        std::function<void(unsigned way, const std::string &detail)>;

    /** Validity of a way of the audited set, read from its entry. */
    using WayValid = std::function<bool(unsigned way)>;

    /**
     * Check the policy's own invariant over @p set's side-state (e.g.
     * LRU/FIFO stamp uniqueness and clock bounds, RRPV range) for the
     * ways @p valid names, and report each violation through @p fail.
     */
    void auditSet(unsigned set, const WayValid &valid,
                  const AuditFail &fail) const;

    /**
     * Test-only access to the per-way side-state word (recency/fill
     * stamp for LRU/FIFO, RRPV for SRRIP; unused by Random). Mutation
     * tests seed corruption here to prove auditSet() fires.
     */
    std::uint64_t &
    debugStateAt(unsigned set, unsigned way)
    {
        return state_[slot(set, way)];
    }

  private:
    std::size_t
    slot(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * assoc_ + way;
    }

    /** Random/SRRIP victim selection over a full range. */
    unsigned victimSlow(std::size_t slot0, unsigned begin, unsigned end);

    ReplacementKind kind_;
    bool singleWay_; //!< assoc == 1: every policy degenerates to fixed
    unsigned numSets_;
    unsigned assoc_;
    std::uint64_t clock_ = 0;  //!< LRU/FIFO stamp source
    std::uint64_t maxRrpv_;    //!< SRRIP saturation value
    std::vector<std::uint64_t> state_; //!< stamps (LRU/FIFO) or RRPVs
    Rng rng_; //!< Random's victim stream; idle for other kinds
};

} // namespace seesaw

#endif // SEESAW_CACHE_REPLACEMENT_HH
