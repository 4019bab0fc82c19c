#include "core/tft.hh"

#include "common/logging.hh"

namespace seesaw {

namespace {

/** Sets of an @p entries-entry, @p assoc-way TFT; asserts the
 *  geometry is buildable. */
unsigned
checkedSets(unsigned entries, unsigned assoc)
{
    SEESAW_ASSERT(entries > 0, "TFT needs at least one entry");
    SEESAW_ASSERT(assoc >= 1 && entries % assoc == 0,
                  "TFT associativity must divide entries");
    return entries / assoc;
}

} // namespace

Tft::Tft(unsigned entries, unsigned assoc,
         ReplacementParams replacement)
    : replacement_(replacement),
      table_(checkedSets(entries, assoc), assoc, replacement),
      stats_("tft"),
      stLookups_(&stats_.scalar("lookups")),
      stHits_(&stats_.scalar("hits")),
      stMisses_(&stats_.scalar("misses")),
      stFills_(&stats_.scalar("fills")),
      stConflictEvictions_(&stats_.scalar("conflict_evictions")),
      stInvalidations_(&stats_.scalar("invalidations")),
      stFlushes_(&stats_.scalar("flushes"))
{
}

bool
Tft::lookup(Addr va)
{
    ++*stLookups_;
    const Addr region = regionOf(va);
    const unsigned way = find(region);
    if (way == SetTable<NoPayload>::kNoWay) {
        ++*stMisses_;
        return false;
    }
    table_.touch(setOf(region), way);
    ++*stHits_;
    return true;
}

bool
Tft::peek(Addr va) const
{
    return find(regionOf(va)) != SetTable<NoPayload>::kNoWay;
}

void
Tft::markRegion(Addr va)
{
    const Addr region = regionOf(va);
    const unsigned set = setOf(region);
    ++*stFills_;
    if (const unsigned way = find(region);
        way != SetTable<NoPayload>::kNoWay) {
        table_.touch(set, way);
        return;
    }
    // Policy victim within the set (trivially "the" slot when
    // direct-mapped — no replacement policy is needed at assoc 1,
    // exactly as the paper observes).
    if (table_.place(set, 0, assoc(), region, NoPayload{}).valid())
        ++*stConflictEvictions_;
}

bool
Tft::invalidateRegion(Addr va)
{
    const Addr region = regionOf(va);
    const unsigned way = find(region);
    if (way == SetTable<NoPayload>::kNoWay)
        return false;
    table_.drop(setOf(region), way);
    ++*stInvalidations_;
    return true;
}

void
Tft::flush()
{
    table_.clear();
    ++*stFlushes_;
}

unsigned
Tft::validCount() const
{
    unsigned count = 0;
    table_.forEachValid(
        [&](unsigned, unsigned, Addr, const NoPayload &) { ++count; });
    return count;
}

void
Tft::forEachValidRegion(
    const std::function<void(Addr va_base)> &fn) const
{
    table_.forEachValid([&](unsigned, unsigned, Addr region,
                            const NoPayload &) { fn(region << 21); });
}

double
Tft::storageBytes() const
{
    // 43-bit region tag + 1 valid bit per entry; associative tables
    // also keep replacement side-state per entry — log2(assoc)
    // recency/order bits for LRU and FIFO, the RRPV for SRRIP, and
    // nothing for Random.
    double bits_per_entry = 43.0 + 1.0;
    if (assoc() > 1) {
        switch (replacement_.kind) {
          case ReplacementKind::Lru:
          case ReplacementKind::Fifo:
            for (unsigned a = assoc(); a > 1; a /= 2)
                bits_per_entry += 1.0;
            break;
          case ReplacementKind::Srrip:
            bits_per_entry += replacement_.rripBits;
            break;
          case ReplacementKind::Random:
            break;
        }
    }
    return entries() * bits_per_entry / 8.0;
}

} // namespace seesaw
