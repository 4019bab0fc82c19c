#include "coherence/exact_directory.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"

namespace seesaw {

ExactDirectory::ExactDirectory(unsigned num_cores)
    : numCores_(num_cores), stats_("directory"),
      stOwnerDowngrades_(&stats_.scalar("owner_downgrades")),
      stExclusiveDowngrades_(&stats_.scalar("exclusive_downgrades")),
      stWriteInvalidations_(&stats_.scalar("write_invalidations")),
      stFills_(&stats_.scalar("fills")),
      stEvictions_(&stats_.scalar("evictions"))
{
    SEESAW_ASSERT(num_cores >= 1 && num_cores <= 64,
                  "directory supports 1-64 cores");
    rehash(kInitialCapacity);
}

namespace {

/** Fibonacci hashing: the top bits of the golden-ratio product mix
 *  every address bit into the slot index. */
std::size_t
hashLine(Addr line, unsigned shift)
{
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ULL) >>
                                    shift);
}

} // namespace

std::size_t
ExactDirectory::slotOf(Addr line) const
{
    return hashLine(line, hashShift_);
}

ExactDirectory::Entry &
ExactDirectory::findOrInsert(Addr line)
{
    std::size_t slot = probe(line);
    if (keys_[slot] == line)
        return entries_[slot];
    // Keep the load at or under one half so probe runs stay short and
    // every probe sequence ends at a free slot.
    if (2 * (size_ + 1) > keys_.size()) {
        rehash(2 * keys_.size());
        slot = probe(line);
    }
    keys_[slot] = line;
    entries_[slot] = Entry{};
    ++size_;
    return entries_[slot];
}

void
ExactDirectory::eraseAt(std::size_t slot)
{
    std::size_t hole = slot;
    for (std::size_t next = (hole + 1) & mask_; keys_[next] != kEmpty;
         next = (next + 1) & mask_) {
        // The record at `next` may fill the hole only if the hole lies
        // on its probe sequence: cyclically in [home, next).
        const std::size_t home = slotOf(keys_[next]);
        if (((next - home) & mask_) >= ((next - hole) & mask_)) {
            keys_[hole] = keys_[next];
            entries_[hole] = entries_[next];
            hole = next;
        }
    }
    keys_[hole] = kEmpty;
    entries_[hole] = Entry{};
    --size_;
}

void
ExactDirectory::rehash(std::size_t capacity)
{
    std::vector<Addr> old_keys(capacity, kEmpty);
    std::vector<Entry> old_entries(capacity);
    old_keys.swap(keys_);
    old_entries.swap(entries_);
    mask_ = capacity - 1;
    hashShift_ = 64 - std::countr_zero(capacity);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
        if (old_keys[i] == kEmpty)
            continue;
        const std::size_t slot = probe(old_keys[i]);
        keys_[slot] = old_keys[i];
        entries_[slot] = old_entries[i];
    }
}

ExactDirectory::ProbeList
ExactDirectory::onReadMiss(CoreId core, Addr pa)
{
    ProbeList probes;
    Entry *e = find(lineOf(pa));
    if (!e)
        return probes;

    if (e->owner >= 0 && static_cast<CoreId>(e->owner) != core) {
        // Downgrade the dirty owner; it supplies the data.
        probes.targets = 1ULL << e->owner;
        probes.ownerSupplies = true;
        ++*stOwnerDowngrades_;
    } else if (e->exclusive) {
        // A sole clean sharer may hold the line Exclusive; E means
        // "only copy system-wide", so it must be downgraded to Shared
        // before this fill creates a second copy.
        probes.targets = e->sharers & ~(1ULL << core);
        *stExclusiveDowngrades_ += std::popcount(probes.targets);
    }
    e->exclusive = false;
    return probes;
}

ExactDirectory::ProbeList
ExactDirectory::onWrite(CoreId core, Addr pa)
{
    ProbeList probes;
    probes.invalidating = true;
    const std::size_t slot = probe(lineOf(pa));
    if (keys_[slot] == kEmpty)
        return probes;

    Entry &e = entries_[slot];
    probes.targets = e.sharers & ~(1ULL << core);
    probes.ownerSupplies =
        e.owner >= 0 && ((probes.targets >> e.owner) & 1) != 0;
    if (probes.targets != 0)
        ++*stWriteInvalidations_;

    // The directory reflects the probes' effect immediately.
    e.sharers &= (1ULL << core);
    if (e.owner != static_cast<int>(core))
        e.owner = -1;
    e.exclusive = false; // the upcoming recordFill() sets ownership
    if (e.sharers == 0)
        eraseAt(slot);
    return probes;
}

std::uint64_t
ExactDirectory::recordFill(CoreId core, Addr pa, bool dirty)
{
    Entry &e = findOrInsert(lineOf(pa));
    e.sharers |= (1ULL << core);
    if (dirty) {
        e.owner = static_cast<std::int8_t>(core);
        e.exclusive = false;
    } else {
        if (e.owner == static_cast<int>(core))
            e.owner = -1;
        // A clean fill is Exclusive only while it is the sole copy.
        e.exclusive =
            e.owner < 0 && e.sharers == (1ULL << core);
    }
    ++*stFills_;
    return e.sharers;
}

void
ExactDirectory::recordEviction(CoreId core, Addr pa)
{
    const std::size_t slot = probe(lineOf(pa));
    if (keys_[slot] == kEmpty)
        return;
    Entry &e = entries_[slot];
    e.sharers &= ~(1ULL << core);
    if (e.owner == static_cast<int>(core))
        e.owner = -1;
    if (e.sharers == 0)
        eraseAt(slot);
    ++*stEvictions_;
}

bool
ExactDirectory::holds(CoreId core, Addr pa) const
{
    const Entry *e = find(lineOf(pa));
    return e && (e->sharers & (1ULL << core)) != 0;
}

unsigned
ExactDirectory::sharerCount(Addr pa) const
{
    const Entry *e = find(lineOf(pa));
    return e ? static_cast<unsigned>(std::popcount(e->sharers)) : 0;
}

int
ExactDirectory::owner(Addr pa) const
{
    const Entry *e = find(lineOf(pa));
    return e ? e->owner : -1;
}

void
ExactDirectory::forEachEntry(
    const std::function<void(Addr pa, std::uint64_t sharers,
                             int owner)> &fn) const
{
    // Visit in address order: slot order follows the hash, and hash
    // order would make audit-violation reports (which abort on the
    // first hit) depend on the table's capacity. Audits are a debug
    // cadence, so the sort cost is acceptable.
    std::vector<std::pair<Addr, std::size_t>> lines;
    lines.reserve(size_);
    for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
        if (keys_[slot] != kEmpty)
            lines.emplace_back(keys_[slot], slot);
    }
    std::sort(lines.begin(), lines.end());
    for (const auto &[line, slot] : lines)
        fn(line << 6, entries_[slot].sharers, entries_[slot].owner);
}

} // namespace seesaw
