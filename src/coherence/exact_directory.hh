/**
 * @file
 * An exact MOESI directory for the multi-core system (Table II:
 * "Coherence: MOESI directory"). Tracks, per cached line, the set of
 * cores holding it and the owning core (if the line is dirty), and
 * produces the precise probe lists each access requires — unlike the
 * stochastic ProbeEngine used for single-core runs, every coherence
 * lookup here corresponds to a real sharer.
 *
 * The per-line records live in one flat open-addressed table keyed by
 * line address: linear probing, deletion by backward shift (so no
 * tombstones build up), and doubling whenever a fill would take the
 * load past one half. Keys and records sit in parallel arrays, so a
 * probe sequence reads only keys. Nothing is allocated per fill or
 * eviction once the table has grown to the working set.
 */

#ifndef SEESAW_COHERENCE_EXACT_DIRECTORY_HH
#define SEESAW_COHERENCE_EXACT_DIRECTORY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace seesaw {

/**
 * Directory state for the private L1s of up to 64 cores.
 */
class ExactDirectory
{
  public:
    explicit ExactDirectory(unsigned num_cores);

    /** Probes the directory instructs the requester to send. */
    struct ProbeList
    {
        /** Cores to probe: bit c names core c. Probes go out in
         *  core-id order. */
        std::uint64_t targets = 0;
        bool invalidating = false;
        /** A dirty owner will supply the data (cache-to-cache). */
        bool ownerSupplies = false;
    };

    /**
     * Core @p core is about to read the line of @p pa and missed in
     * its L1. @return The probes required: downgrade the dirty owner
     * (it supplies the data), or downgrade a possible silent-E holder
     * — a sole clean sharer may cache the line Exclusive, and E means
     * "only copy", so it must fall to Shared before a second copy
     * exists. Call recordFill() after the fill completes.
     */
    ProbeList onReadMiss(CoreId core, Addr pa);

    /**
     * Core @p core is about to write the line (miss, or a hit on a
     * Shared/Owned copy). @return Invalidating probes for every other
     * sharer.
     */
    ProbeList onWrite(CoreId core, Addr pa);

    /** Record that @p core now caches the line (dirty = writer).
     *  @return The line's sharer mask after the fill. */
    std::uint64_t recordFill(CoreId core, Addr pa, bool dirty);

    /** @p core silently evicted the line. */
    void recordEviction(CoreId core, Addr pa);

    /** Does the directory believe @p core holds the line? */
    bool holds(CoreId core, Addr pa) const;

    /** Sharer count for the line (0 when untracked). */
    unsigned sharerCount(Addr pa) const;

    /** The dirty owner, or -1. */
    int owner(Addr pa) const;

    /** Number of tracked lines. */
    std::size_t trackedLines() const { return size_; }

    unsigned numCores() const { return numCores_; }

    /** Visit every tracked line: physical line-base address, sharer
     *  bitmask, dirty owner (-1 if clean) — invariant audits. */
    void forEachEntry(
        const std::function<void(Addr pa, std::uint64_t sharers,
                                 int owner)> &fn) const;

    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

    /** Dirty owners downgraded to supply read misses. */
    std::uint64_t ownerDowngrades() const
    {
        return stOwnerDowngrades_->count();
    }

    /** Silent-E holders downgraded before a second copy filled. */
    std::uint64_t exclusiveDowngrades() const
    {
        return stExclusiveDowngrades_->count();
    }

    /** Writes that invalidated at least one remote sharer copy. */
    std::uint64_t writeInvalidations() const
    {
        return stWriteInvalidations_->count();
    }

    /** Fills recorded (lines gaining a sharer). */
    std::uint64_t fills() const { return stFills_->count(); }

    /** Silent evictions recorded. */
    std::uint64_t evictions() const { return stEvictions_->count(); }

  private:
    struct Entry
    {
        std::uint64_t sharers = 0; //!< bitmask over cores
        std::int8_t owner = -1;    //!< core holding M/O, or -1
        /** The sole clean sharer may hold the line Exclusive; a second
         *  reader must downgrade it before filling (MOESI: at most one
         *  E/M copy system-wide). Cleared by any downgrade. */
        bool exclusive = false;
    };

    /** The key of a free slot; no line address (pa >> 6) reaches it. */
    static constexpr Addr kEmpty = ~Addr{0};

    /** Slots a new directory starts with (a power of two). */
    static constexpr std::size_t kInitialCapacity = 64;

    unsigned numCores_;
    std::vector<Addr> keys_;     //!< line address (pa >> 6) per slot
    std::vector<Entry> entries_; //!< parallel to keys_
    std::size_t size_ = 0;       //!< occupied slots
    std::size_t mask_;           //!< slots - 1
    unsigned hashShift_;         //!< 64 - log2(slots)
    StatGroup stats_;

    // Hot-path stat handles (registered once; see common/stats.hh).
    StatScalar *stOwnerDowngrades_;
    StatScalar *stExclusiveDowngrades_;
    StatScalar *stWriteInvalidations_;
    StatScalar *stFills_;
    StatScalar *stEvictions_;

    static Addr lineOf(Addr pa) { return pa >> 6; }

    /** @return The slot holding @p line, or the free slot where its
     *  probe sequence ends. */
    std::size_t
    probe(Addr line) const
    {
        std::size_t slot = slotOf(line);
        while (keys_[slot] != line && keys_[slot] != kEmpty)
            slot = (slot + 1) & mask_;
        return slot;
    }

    /** @return @p line's record, or nullptr when untracked. */
    Entry *
    find(Addr line)
    {
        const std::size_t slot = probe(line);
        return keys_[slot] == line ? &entries_[slot] : nullptr;
    }
    const Entry *
    find(Addr line) const
    {
        return const_cast<ExactDirectory *>(this)->find(line);
    }

    std::size_t slotOf(Addr line) const;

    /** @return @p line's record, created empty if untracked. */
    Entry &findOrInsert(Addr line);

    /** Free the occupied @p slot, shifting later records of its probe
     *  run back so every record stays reachable from its home slot. */
    void eraseAt(std::size_t slot);

    /** Resize to @p capacity slots and rehash every record. */
    void rehash(std::size_t capacity);
};

} // namespace seesaw

#endif // SEESAW_COHERENCE_EXACT_DIRECTORY_HH
