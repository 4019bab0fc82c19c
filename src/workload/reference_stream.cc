#include "workload/reference_stream.hh"

#include <algorithm>

#include "common/logging.hh"

namespace seesaw {

namespace {
constexpr std::uint64_t kLinesPerRegion = (2ULL << 20) / 64;

// The chase walk concentrates on a hot neighbourhood at the head of
// each region (128KB): pointer-rich structures keep their hot nodes
// clustered, so revisits to a region re-touch the same lines and are
// served by the outer cache levels rather than DRAM.
constexpr std::uint64_t kChaseWindowLines = (128ULL << 10) / 64;
} // namespace

ReferenceStream::ReferenceStream(const WorkloadSpec &spec,
                                 Addr heap_base, std::uint64_t seed,
                                 unsigned thread)
    : spec_(spec), heapBase_(heap_base), rng_(seed)
{
    SEESAW_ASSERT(heap_base % 4096 == 0, "heap base must be page-aligned");
    SEESAW_ASSERT(spec.footprintBytes >= 64, "empty footprint");
    numLines_ = spec.footprintBytes / 64;
    hotLines_ = std::max<std::uint64_t>(1, spec.hotSetBytes / 64);
    hotLines_ = std::min(hotLines_, numLines_);
    SEESAW_ASSERT(spec.memRefFraction > 0.0 &&
                      spec.memRefFraction <= 1.0,
                  "memRefFraction out of range");
    gapTable_ = GeometricTable(1.0 / spec.memRefFraction - 1.0);
    numRegions_ = std::max<std::uint64_t>(1, numLines_ / kLinesPerRegion);

    // Thread-private hot region: thread t's hot set starts t hot-set
    // spans into the footprint (wrapping); the shared region stays at
    // the footprint base. Thread 0's stream is the single-threaded one.
    if (thread > 0 && numLines_ > hotLines_) {
        privateHotBase_ =
            (static_cast<std::uint64_t>(thread) * hotLines_) %
            (numLines_ - hotLines_);
    }

    if (spec_.chasePoolRegions > 0) {
        const std::uint64_t pool_size =
            std::min<std::uint64_t>(spec_.chasePoolRegions,
                                    numRegions_);
        chasePool_.reserve(pool_size);
        for (std::uint64_t i = 0; i < pool_size; ++i)
            chasePool_.push_back(rng_.nextBounded(numRegions_));
    }
}

std::vector<std::pair<Addr, Addr>>
ReferenceStream::hotRanges() const
{
    std::vector<std::pair<Addr, Addr>> ranges;
    ranges.emplace_back(heapBase_, heapBase_ + hotLines_ * 64);
    for (auto region : chasePool_) {
        const Addr start = heapBase_ + region * kLinesPerRegion * 64;
        const std::uint64_t lines =
            std::min(kChaseWindowLines,
                     numLines_ - region * kLinesPerRegion);
        ranges.emplace_back(start, start + lines * 64);
    }
    return ranges;
}

std::uint64_t
ReferenceStream::nextConflictLine()
{
    if (conflictRefsLeft_ == 0) {
        // Re-pick the conflict group. Strides alternate between 256KB
        // (aligned large structures: collide in every geometry and
        // share partition bits) and odd 4KB multiples (page-aligned
        // arrays: collide in <=64-set L1s, alternate partitions).
        conflictRefsLeft_ = 256;
        static constexpr unsigned kSizes[] = {2, 2, 2, 2, 2, 2, 3,
                                              3, 3, 4, 4, 5};
        conflictSize_ = kSizes[rng_.nextBounded(std::size(kSizes))];
        conflictStride_ =
            rng_.chance(0.5)
                ? (256ULL << 10) / 64
                : (1 + 2 * rng_.nextBounded(4)) * (4096 / 64);
        const std::uint64_t span = conflictStride_ * conflictSize_;
        conflictBase_ = span < numLines_
                            ? rng_.nextBounded(numLines_ - span)
                            : 0;
        conflictNextMember_ = 0;
    }
    --conflictRefsLeft_;
    const std::uint64_t line =
        conflictBase_ + conflictNextMember_ * conflictStride_;
    conflictNextMember_ = (conflictNextMember_ + 1) % conflictSize_;
    return std::min(line, numLines_ - 1);
}

std::uint64_t
ReferenceStream::nextChaseRegion()
{
    if (chasePool_.empty())
        return rng_.nextBounded(numRegions_); // unbounded (gups)
    // Slow drift: occasionally replace a pool member with a fresh
    // region, modelling the working set moving across the heap.
    if (rng_.chance(0.005)) {
        chasePool_[rng_.nextBounded(chasePool_.size())] =
            rng_.nextBounded(numRegions_);
    }
    return chasePool_[rng_.nextBounded(chasePool_.size())];
}

MemRef
ReferenceStream::next()
{
    MemRef ref;
    ref.gap = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(gapTable_.draw(rng_), 10000));
    ref.type = rng_.chance(spec_.writeFraction) ? AccessType::Write
                                                : AccessType::Read;

    // Back-to-back reuse of the previous line (field accesses).
    if (rng_.chance(spec_.repeatFraction)) {
        ref.va = lineToVa(prevLine_) + (rng_.next() & 0x38);
        return ref;
    }

    const double u = rng_.nextDouble();
    std::uint64_t line;
    if (u < spec_.streamingFraction) {
        // Sequential sweep across the whole footprint.
        line = streamCursor_;
        streamCursor_ = (streamCursor_ + 1) % numLines_;
    } else if (u < spec_.streamingFraction +
                       spec_.pointerChaseFraction) {
        // Pointer chase: a region-sticky random walk. Real chasing
        // workloads cluster at 2MB granularity (allocator locality,
        // graph communities); truly random streams (gups) configure a
        // tiny stay count.
        if (chaseStay_ == 0) {
            chaseRegion_ = nextChaseRegion();
            chaseStay_ = 1 + rng_.nextGeometric(
                                 spec_.chaseRegionStayRefs);
        }
        --chaseStay_;
        const std::uint64_t region_lines =
            std::min(kLinesPerRegion,
                     numLines_ - chaseRegion_ * kLinesPerRegion);
        line = chaseRegion_ * kLinesPerRegion +
               rng_.nextBounded(
                   std::min(kChaseWindowLines, region_lines));
    } else if (u < spec_.streamingFraction +
                       spec_.pointerChaseFraction +
                       spec_.conflictFraction) {
        line = nextConflictLine();
    } else {
        // Hot-set component: zipf-ranked lines. Rank r maps to a line
        // via a golden-ratio hash so hot lines spread across sets and
        // pages, but the hot set itself is a contiguous region of the
        // heap (how allocators actually lay out hot objects). In
        // multi-threaded runs a sharedFraction of hot references
        // target the common region at the footprint base; the rest go
        // to the thread's private hot region.
        const std::uint64_t rank =
            rng_.nextZipf(hotLines_, spec_.zipfAlpha);
        const bool shared_ref =
            privateHotBase_ != 0 && rng_.chance(spec_.sharedFraction);
        const std::uint64_t base =
            (privateHotBase_ == 0 || shared_ref) ? 0
                                                 : privateHotBase_;
        line = base + (rank * 0x9e3779b97f4a7c15ULL) % hotLines_;
        // Shared hot data is predominantly read-shared (indices,
        // graphs, lookup tables); writes to it are the minority that
        // actually exercises invalidations.
        if (shared_ref && ref.type == AccessType::Write &&
            rng_.chance(0.75)) {
            ref.type = AccessType::Read;
        }
    }

    prevLine_ = line;
    ref.va = lineToVa(line);
    // Touch a random word in the line occasionally (sub-line offsets
    // do not change set indexing but exercise address arithmetic).
    ref.va += (rng_.next() & 0x38);
    return ref;
}

} // namespace seesaw
