#include "cache/set_assoc_cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace seesaw {

namespace {

/** Sets of a @p size_bytes store of @p assoc ways and @p line_bytes
 *  lines, split into @p num_partitions way groups; asserts the
 *  geometry is buildable. */
unsigned
checkedSets(std::uint64_t size_bytes, unsigned assoc, unsigned line_bytes,
            unsigned num_partitions)
{
    SEESAW_ASSERT(isPowerOfTwo(assoc), "assoc must be a power of two");
    SEESAW_ASSERT(isPowerOfTwo(line_bytes),
                  "line size must be a power of two");
    SEESAW_ASSERT(isPowerOfTwo(num_partitions) &&
                      assoc % num_partitions == 0,
                  "partitions must evenly divide the ways");
    const std::uint64_t lines = size_bytes / line_bytes;
    SEESAW_ASSERT(lines % assoc == 0 && lines > 0, "bad geometry");
    const auto sets = static_cast<unsigned>(lines / assoc);
    // Power-of-two set counts index by bit slicing (required for the
    // VIPT/SEESAW partition-bit layout); other counts (e.g., a 24MB
    // LLC) fall back to modulo indexing and cannot be partitioned.
    SEESAW_ASSERT(isPowerOfTwo(sets) || num_partitions == 1,
                  "partitioned caches need power-of-two sets");
    return sets;
}

} // namespace

SetAssocCache::SetAssocCache(std::uint64_t size_bytes, unsigned assoc,
                             unsigned line_bytes,
                             unsigned num_partitions,
                             ReplacementParams replacement)
    : table_(checkedSets(size_bytes, assoc, line_bytes, num_partitions),
             assoc, replacement)
{
    lineBytes_ = line_bytes;
    lineBits_ = log2Floor(line_bytes);
    powerOfTwoSets_ = isPowerOfTwo(numSets());
    setBits_ = powerOfTwoSets_ ? log2Floor(numSets()) : 0;
    numPartitions_ = num_partitions;
    partitionBits_ = log2Floor(num_partitions);
}

unsigned
SetAssocCache::setIndex(Addr addr) const
{
    if (!powerOfTwoSets_)
        return static_cast<unsigned>((addr >> lineBits_) % numSets());
    return static_cast<unsigned>(
        bits(addr, lineBits_ + setBits_ - 1, lineBits_));
}

unsigned
SetAssocCache::partitionIndex(Addr addr) const
{
    if (numPartitions_ == 1)
        return 0;
    const unsigned lo = lineBits_ + setBits_;
    return static_cast<unsigned>(bits(addr, lo + partitionBits_ - 1, lo));
}

TagLookup
SetAssocCache::searchRange(Addr pa, unsigned begin, unsigned end)
{
    const unsigned set = setIndex(pa);
    const unsigned way = wayOf(pa, set, begin, end);
    if (way == SetTable<CacheLine>::kNoWay)
        return TagLookup{false, false, 0};
    table_.touch(set, way);
    CacheLine &line = table_.payload(set, way);
    const TagLookup res{true, line.prefetched, way};
    line.prefetched = false;
    return res;
}

TagLookup
SetAssocCache::lookup(Addr pa)
{
    return searchRange(pa, 0, assoc());
}

TagLookup
SetAssocCache::lookupPartition(Addr pa, unsigned partition)
{
    SEESAW_ASSERT(partition < numPartitions_, "partition out of range");
    const unsigned begin = partitionBase(partition);
    return searchRange(pa, begin, begin + waysPerPartition());
}

TagLookup
SetAssocCache::peek(Addr pa) const
{
    const unsigned way = wayOf(pa, setIndex(pa), 0, assoc());
    if (way == SetTable<CacheLine>::kNoWay)
        return TagLookup{false, false, 0};
    return TagLookup{true, false, way};
}

Eviction
SetAssocCache::insert(Addr pa, InsertScope scope, CoherenceState state,
                      PageSize page_size, bool prefetched)
{
    unsigned begin = 0, end = assoc();
    if (scope == InsertScope::Partition) {
        begin = partitionBase(partitionIndex(pa));
        end = begin + waysPerPartition();
    }

    const auto old = table_.place(setIndex(pa), begin, end, lineAddrOf(pa),
                                  CacheLine{state, prefetched, page_size});
    if (!old.valid())
        return Eviction{};
    return Eviction{true, old.key, old.payload.state, old.payload.pageSize,
                    old.payload.prefetched};
}

std::optional<CoherenceState>
SetAssocCache::invalidate(Addr pa)
{
    const unsigned set = setIndex(pa);
    const unsigned way = wayOf(pa, set, 0, assoc());
    if (way == SetTable<CacheLine>::kNoWay)
        return std::nullopt;
    const CoherenceState prev = table_.payload(set, way).state;
    table_.drop(set, way);
    return prev;
}

CacheLine *
SetAssocCache::findLine(Addr pa)
{
    const unsigned set = setIndex(pa);
    const unsigned way = wayOf(pa, set, 0, assoc());
    return way == SetTable<CacheLine>::kNoWay ? nullptr
                                              : &table_.payload(set, way);
}

const CacheLine *
SetAssocCache::findLine(Addr pa) const
{
    return const_cast<SetAssocCache *>(this)->findLine(pa);
}

unsigned
SetAssocCache::sweepRegion(Addr pa_base, std::uint64_t bytes)
{
    const Addr lo = pa_base >> lineBits_;
    const Addr hi = (pa_base + bytes) >> lineBits_;
    return table_.dropIf([&](Addr line_addr, const CacheLine &) {
        return line_addr >= lo && line_addr < hi;
    });
}

void
SetAssocCache::forEachValidLine(
    const std::function<void(Addr line_addr, const CacheLine &)> &fn)
    const
{
    table_.forEachValid(
        [&](unsigned, unsigned, Addr line_addr, const CacheLine &line) {
            fn(line_addr, line);
        });
}

unsigned
SetAssocCache::validLines() const
{
    unsigned count = 0;
    table_.forEachValid(
        [&](unsigned, unsigned, Addr, const CacheLine &) { ++count; });
    return count;
}

bool
SetAssocCache::checkPlacementInvariant() const
{
    bool holds = true;
    table_.forEachValid(
        [&](unsigned, unsigned way, Addr line_addr, const CacheLine &) {
            const Addr pa = line_addr << lineBits_;
            holds = holds &&
                    partitionIndex(pa) == way / waysPerPartition();
        });
    return holds;
}

} // namespace seesaw
