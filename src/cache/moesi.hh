/**
 * @file
 * MOESI coherence-protocol state transitions (Table II: MOESI
 * directory).
 *
 * The one home of the line-state rules: every L1 design (through the
 * L1Cache skeleton's fill, write and probe paths) and both coherence
 * fabrics (read-fill downgrade, snoopy write upgrade) derive line
 * states from these functions, which are unit-tested against the
 * MOESI truth table. A tag store drops a line by resetting its way to
 * a default CacheLine, whose Invalid state is what onDrop() names.
 */

#ifndef SEESAW_CACHE_MOESI_HH
#define SEESAW_CACHE_MOESI_HH

#include "cache/replacement.hh"
#include "common/types.hh"

namespace seesaw {

/**
 * Stateless MOESI transition rules.
 */
class MoesiProtocol
{
  public:
    /** Local load fill: Exclusive when no remote sharer, else Shared. */
    static CoherenceState
    onLocalReadFill(bool remote_sharers)
    {
        return remote_sharers ? CoherenceState::Shared
                              : CoherenceState::Exclusive;
    }

    /** Local load hit: state is unchanged. */
    static CoherenceState
    onLocalReadHit(CoherenceState s)
    {
        return s;
    }

    /** Local store (hit or fill): always ends Modified. Stores to
     *  S/O lines first invalidate remote copies (upgrade). */
    static CoherenceState
    onLocalWrite(CoherenceState)
    {
        return CoherenceState::Modified;
    }

    /** Local miss fill as the L1 sees it. The L1 cannot see remote
     *  sharers, so a load fills Exclusive; the fabric downgrades it
     *  with onLocalReadFill(true) when other copies exist. */
    static CoherenceState
    onLocalFill(AccessType type)
    {
        return type == AccessType::Write
                   ? onLocalWrite(CoherenceState::Invalid)
                   : onLocalReadFill(/*remote_sharers=*/false);
    }

    /** @return True when a store to state @p s must send an upgrade
     *  (remote copies may exist). */
    static bool
    writeNeedsUpgrade(CoherenceState s)
    {
        return s == CoherenceState::Shared || s == CoherenceState::Owned;
    }

    /** Remote read probe hits our line: M/O keep ownership as Owned
     *  (we supply data); E/S drop to Shared. */
    static CoherenceState
    onRemoteRead(CoherenceState s)
    {
        switch (s) {
          case CoherenceState::Modified:
          case CoherenceState::Owned:
            return CoherenceState::Owned;
          case CoherenceState::Exclusive:
          case CoherenceState::Shared:
            return CoherenceState::Shared;
          case CoherenceState::Invalid:
            return CoherenceState::Invalid;
        }
        return CoherenceState::Invalid;
    }

    /** @return True when the probed line must supply data (dirty). */
    static bool
    suppliesData(CoherenceState s)
    {
        return isDirtyState(s);
    }

    /** Remote write/upgrade probe: we invalidate. */
    static CoherenceState
    onRemoteWrite(CoherenceState)
    {
        return CoherenceState::Invalid;
    }

    /** A line leaving the cache (invalidated, or swept by a page
     *  promotion) ends Invalid. */
    static CoherenceState
    onDrop(CoherenceState)
    {
        return CoherenceState::Invalid;
    }

    /** @return True when @p s may silently drop on eviction (clean). */
    static bool
    cleanEviction(CoherenceState s)
    {
        return !isDirtyState(s);
    }
};

} // namespace seesaw

#endif // SEESAW_CACHE_MOESI_HH
